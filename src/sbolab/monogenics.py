"""Spinor-valued polynomials, the Dirac operator, and monogenic branching.

Implements Gegenbauer polynomials with exact coefficients, the Fischer
decomposition Pol = (+) x^j M_i, the coordinate-multiplication split of a
monogenic polynomial, the degree-raising embeddings M_j(R^n) -> M_i(R^{n+1}),
and the proportionality constants relating coordinate multiplication on a
sphere to those embeddings -- both as a closed-form table and by brute-force
linear algebra over Q(sqrt(-1)).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from operator import add
from types import MappingProxyType

from .paramfield import (GaussianRational, ParamScalar, ZERO, ONE,
                         PS_ZERO, PS_I, PS_LAM, pochhammer, rat, _times_i_power, _acc)
from .cliffspin import (fund_branching, spin_dim, DimensionMismatch, _spinor,
                        _zeta_table)
from . import linalg


class NotMonogenic(ValueError):
    pass


class ParityError(ValueError):
    pass


class SplitFailure(ArithmeticError):
    pass


class IdentityFailure(AssertionError):
    pass


class MultiplicityViolation(ArithmeticError):
    pass


class ZeroMap(ArithmeticError):
    pass


class NotAdjacent(ValueError):
    pass


class BadDegree(ValueError):
    """A degree bound outside the domain of a verification suite."""


# -- Gegenbauer polynomials ---------------------------------------------------

def gegenbauer(deg, lam):
    """C_deg^lam(z) = sum_m (-1)^m (lam)_{deg-m} / (m! (deg-2m)!) (2z)^{deg-2m},
    as its ParamScalar coefficient list (the coefficient of z^t at t)."""
    lam = ParamScalar.coerce(lam)
    coeffs = [PS_ZERO] * (deg + 1)
    for m in range(deg // 2 + 1):
        p = deg - 2 * m
        coeffs[p] = pochhammer(lam, deg - m) * ParamScalar(
            (-1) ** m * 2 ** p, factorial(m) * factorial(p))
    return coeffs


@lru_cache(maxsize=None)
def gegenbauer_coeffs_rational(deg, lam):
    """Coefficients of C_deg^lam(z) for a fixed rational lam, as GaussianRational."""
    lam = rat(lam)
    out = [ZERO] * (deg + 1)
    for m in range(deg // 2 + 1):
        p = deg - 2 * m
        q = Fraction((-1) ** m * 2 ** p, factorial(m) * factorial(p))
        for t in range(deg - m):
            q *= lam + t
        out[p] = GaussianRational(q)
    return tuple(out)


# z-factors of an identity term, as ((power of z, coefficient), ...)
_1, _Z, _1MZ2 = ((0, 1),), ((1, 1),), ((0, 1), (2, -1))

# Each identity is a list of terms (coeff(n, lam), z-factor, d/dz order,
# degree offset, lam shift); it states that the sum over its terms of
# coeff * factor * (d/dz)^order C_{n+offset}^{lam+shift}(z) vanishes, with
# C_d = 0 for d < 0.  G2 is the classical three-term recurrence (the one
# label the source list skips).
_GEG_IDENTITIES = {
    "G1": [(lambda n, l: 1, _1, 1, 0, 0),
           (lambda n, l: -2 * l, _1, 0, -1, 1)],
    "G2": [(lambda n, l: n + 1, _1, 0, 1, 0),
           (lambda n, l: -2 * (l + n), _Z, 0, 0, 0),
           (lambda n, l: 2 * l + (n - 1), _1, 0, -1, 0)],
    "G3": [(lambda n, l: 2 * l, _Z, 0, 0, 1),
           (lambda n, l: -(n + 1), _1, 0, 1, 0),
           (lambda n, l: -2 * l, _1, 0, -1, 1)],
    "G4": [(lambda n, l: 4 * l * (l + 1), _1MZ2, 0, -2, 2),
           (lambda n, l: (2 * l + n) * (2 * l + (n + 1)), _1, 0, 0, 0),
           (lambda n, l: -2 * l * (2 * l + 1), _1, 0, 0, 1)],
    "G5": [(lambda n, l: 4 * l * (l + 1), _1MZ2, 0, -2, 2),
           (lambda n, l: -2 * l * (2 * l + 1), _Z, 0, -1, 1),
           (lambda n, l: n * (2 * l + n), _1, 0, 0, 0)],
    "G6": [(lambda n, l: 2 * l, _1, 0, 0, 1),
           (lambda n, l: -(2 * l + n), _1, 0, 0, 0),
           (lambda n, l: -2 * l, _Z, 0, -1, 1)],
    "G7": [(lambda n, l: 2 * l, _1MZ2, 0, -1, 1),
           (lambda n, l: -(2 * l + n), _Z, 0, 0, 0),
           (lambda n, l: n + 1, _1, 0, 1, 0)],
    "G8": [(lambda n, l: l - 1, _1, 0, 1, 0),
           (lambda n, l: -(l + n), _1, 0, 1, -1),
           (lambda n, l: -(l - 1), _1, 0, -1, 0)],
    "G9": [(lambda n, l: 4 * l * (l + 1), _1MZ2, 0, -2, 2),
           (lambda n, l: -2 * l * (2 * l + 1), _1, 0, -2, 1),
           (lambda n, l: n * (n - 1), _1, 0, 0, 0)],
    "ODE": [(lambda n, l: 1, _1MZ2, 2, 0, 0),
            (lambda n, l: -(2 * l + 1), _Z, 1, 0, 0),
            (lambda n, l: n * (2 * l + n), _1, 0, 0, 0)],
}


def _geg_identity_diff(name, n):
    """Left side of the named Gegenbauer identity at degree n, formal lam, as
    {power of z: ParamScalar}; empty exactly when the identity holds there."""
    out = {}
    for coeff, factor, order, offset, shift in _GEG_IDENTITIES[name]:
        deg = n + offset
        if deg < order:
            continue
        c = ParamScalar.coerce(coeff(n, PS_LAM))
        terms = [(t - order, c * a * perm(t, order))
                 for t, a in enumerate(gegenbauer(deg, PS_LAM + shift))
                 if t >= order and not a.is_zero()]
        _acc(out, ((t + p, a * f) for p, f in factor for t, a in terms))
    return out


def verify_gegenbauer_identities(max_deg):
    """Check the identity suite as exact polynomial identities in z, formal lam.

    Returns {identity: {degree: True}}; raises IdentityFailure with the first
    nonzero difference.
    """
    if max_deg < 2:
        raise BadDegree("max_deg must be >= 2, got %r" % (max_deg,))
    report = {}
    for name in _GEG_IDENTITIES:
        per = {}
        for n in range(max_deg + 1):
            d = _geg_identity_diff(name, n)
            if d:
                raise IdentityFailure("%s fails at degree %d: %r" % (name, n, d))
            per[n] = True
        report[name] = per
    return report


# -- spinor-valued polynomials ------------------------------------------------

def _sp(nvars, cn, variant, terms):
    """SpinorPolynomial on a (monomial, mask) -> nonzero value dict, taken as it is."""
    p = object.__new__(SpinorPolynomial)
    p.nvars, p.cn, p.variant, p.terms = nvars, cn, variant, terms
    return p


def _bump(mono, idx, by):
    return mono[:idx] + (mono[idx] + by,) + mono[idx + 1:]


class SpinorPolynomial:
    """Polynomial map R^nvars -> S with exact Spinor coefficients.

    cn fixes the ambient Clifford algebra Cl(cn;C) acting on the values
    (cn >= nvars, so embedded polynomials can carry a larger spin module).
    The value is one flat dict `terms`: (monomial, mask) -> nonzero
    GaussianRational, so zeta(e_k), d/dx_k and multiplication by x^a are
    remaps of its keys.  Values are immutable.
    """

    __slots__ = ("nvars", "cn", "variant", "terms")

    def __init__(self, nvars, cn=None, variant="+", coeffs=None):
        self.nvars = nvars
        self.cn = nvars if cn is None else cn
        self.variant = variant
        coeffs = coeffs or {}
        if any(s.m != self.m for s in coeffs.values()):
            raise DimensionMismatch("spinor coefficient of wrong size")
        self.terms = {(mono, mask): v for mono, s in coeffs.items()
                      for mask, v in s.coeffs.items()}

    @property
    def m(self):
        return self.cn // 2

    @property
    def coeffs(self):
        """Read-only {monomial: Spinor} view of the terms."""
        out = {}
        for (mono, mask), v in self.terms.items():
            out.setdefault(mono, {})[mask] = v
        m = self.m
        return MappingProxyType({mono: _spinor(m, c) for mono, c in out.items()})

    def _like(self, terms):
        return _sp(self.nvars, self.cn, self.variant, terms)

    def _zero_like(self):
        return self._like({})

    def is_zero(self):
        return not self.terms

    def _merge(self, other, k):
        """self + i**k * other."""
        if (self.nvars, self.cn, self.variant) != (other.nvars, other.cn, other.variant):
            raise DimensionMismatch("incompatible spinor polynomials")
        return self._like(_acc(dict(self.terms), ((key, _times_i_power(k, v))
                                                  for key, v in other.terms.items())))

    def __add__(self, other):
        return self._merge(other, 0)

    def __sub__(self, other):
        return self._merge(other, 2)

    def scale(self, v):
        v = GaussianRational.coerce(v)
        if v.is_zero():
            return self._zero_like()
        if v == ONE:
            return self
        return self._like({key: c * v for key, c in self.terms.items()})

    def mul_monomial(self, exps, v=ONE):
        return self._like({(tuple(map(add, mono, exps)), mask): c
                           for (mono, mask), c in self.scale(v).terms.items()})

    def diff(self, k):
        """d/dx_k, 1-based k."""
        idx = k - 1
        return self._like({(_bump(mono, idx, -1), mask):
                           c * mono[idx] if mono[idx] > 1 else c
                           for (mono, mask), c in self.terms.items() if mono[idx]})

    def apply_e(self, i):
        """Apply zeta(e_i) of the ambient algebra to every coefficient."""
        table = _zeta_table(self.cn, self.variant, i)
        out = {}
        for (mono, mask), v in self.terms.items():
            image, k = table[mask]
            out[(mono, image)] = _times_i_power(k, v)
        return self._like(out)

    def _zeta_sum(self, step):
        """sum_k zeta(e_k) x_k phi (step 1) or sum_k zeta(e_k) d(phi)/dx_k
        (step -1) over the polynomial variables, in one accumulator."""
        out = {}
        for idx in range(self.nvars):
            table = _zeta_table(self.cn, self.variant, idx + 1)
            items = self.terms.items()
            if step < 0:  # d/dx_k: drop the terms free of x_k, scale by the exponent
                items = [((mono, mask), v * mono[idx] if mono[idx] > 1 else v)
                         for (mono, mask), v in items if mono[idx]]
            _acc(out, (((_bump(mono, idx, step), table[mask][0]),
                        _times_i_power(table[mask][1], v))
                       for (mono, mask), v in items))
        return self._like(out)

    def zeta_x(self):
        """Multiply by zeta(x) = sum_k x_k e_k over the polynomial variables."""
        return self._zeta_sum(1)

    def norm2_mul(self):
        out = {}
        for idx in range(self.nvars):
            _acc(out, (((_bump(mono, idx, 2), mask), v)
                       for (mono, mask), v in self.terms.items()))
        return self._like(out)

    def gamma_twist(self):
        return self._like({(mono, mask): (-v if bin(mask).count("1") & 1 else v)
                           for (mono, mask), v in self.terms.items()})

    def degree(self):
        return max((sum(mono) for mono, _ in self.terms), default=-1)

    def is_homogeneous(self):
        return len({sum(mono) for mono, _ in self.terms}) <= 1

    def extend_vars(self, nvars, cn=None):
        """View in a larger variable set (new variables appended, exponent 0)."""
        pad = nvars - self.nvars
        if pad < 0:
            raise DimensionMismatch("cannot shrink variables")
        cn = self.cn if cn is None else cn
        if cn // 2 != self.m:
            raise DimensionMismatch("spinor coefficient of wrong size")
        pad = (0,) * pad
        return _sp(nvars, cn, self.variant,
                   {(mono + pad, mask): v for (mono, mask), v in self.terms.items()})

    def map_values(self, spinmap):
        """Apply the linear map spinmap to every spinor value."""
        by_col = {}
        for (r, c), v in spinmap.entries.items():
            by_col.setdefault(c, []).append((r, v))
        return _sp(self.nvars, 2 * (spinmap.dst_dim.bit_length() - 1), self.variant,
                   _acc({}, (((mono, r), v * x) for (mono, mask), x in self.terms.items()
                             for r, v in by_col.get(mask, ()))))

    def __eq__(self, other):
        return (isinstance(other, SpinorPolynomial)
                and (self.nvars, self.cn, self.variant)
                == (other.nvars, other.cn, other.variant)
                and self.terms == other.terms)

    def __repr__(self):
        return "SpinorPolynomial(nvars=%d, cn=%d, %d terms)" % (
            self.nvars, self.cn, len({mono for mono, _ in self.terms}))


def dirac(phi):
    """Dirac operator: sum_k zeta(e_k) d(phi)/dx_k over the polynomial variables."""
    return phi._zeta_sum(-1)


def monomials(n, d):
    """Exponent tuples of total degree d in n variables, lex order."""
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials(n - 1, d - e):
            yield (e,) + rest


@lru_cache(maxsize=None)
def monogenic_basis(n, i):
    """Exact basis of M_i(R^n; S_n) = ker(Dirac) on degree-i polynomials."""
    if n < 1:
        raise DimensionMismatch("need n >= 1")
    cols = [(mono, mask) for mono in monomials(n, i) for mask in range(spin_dim(n))]
    rows = {}
    for j, key in enumerate(cols):
        for dkey, v in dirac(_sp(n, n, "+", {key: ONE})).terms.items():
            rows.setdefault(dkey, {})[j] = v
    return tuple(_sp(n, n, "+", {cols[j]: v for j, v in vec.items()})
                 for vec in linalg.nullspace(list(rows.values()), len(cols)))


def _fischer_a(n, i, j):
    """a_j with Dirac(x^j psi) = a_j x^{j-1} psi for psi in M_i(R^n)."""
    a = 0
    for t in range(1, j + 1):
        a = -(n + 2 * (i + t - 1)) - a
    return a


def fischer_split(phi):
    """Components (j, psi_j) with phi = sum_j zeta(x)^j psi_j, psi_j monogenic."""
    if phi.is_zero():
        return []
    if not phi.is_homogeneous():
        raise SplitFailure("fischer_split needs a homogeneous input")
    d = phi.degree()
    u = dirac(phi)
    comps = {}
    if not u.is_zero():
        for j, uj in fischer_split(u):
            a = _fischer_a(phi.nvars, d - j - 1, j + 1)
            if a == 0:
                raise SplitFailure("vanishing Fischer coefficient")
            comps[j + 1] = uj.scale(GaussianRational(Fraction(1, a)))
    rest = phi
    for j, psi in comps.items():
        t = psi
        for _ in range(j):
            t = t.zeta_x()
        rest = rest - t
    if not rest.is_zero():
        if not dirac(rest).is_zero():
            raise SplitFailure("residual component is not monogenic")
        comps[0] = rest
    return sorted(comps.items())


def mult_coordinate_split(phi, k, moves=(1, 0, -1)):
    """Split x_k * phi = phi_plus - zeta(x) phi_zero + |x|^2 phi_minus.

    phi must be homogeneous monogenic; the three components are returned as
    (phi_plus, phi_zero, phi_minus), each monogenic by the closed formulas.
    Only the components whose degree move (+1, 0, -1 respectively) is in
    moves, a non-empty subset of {1, 0, -1}, are built; the others are None.
    """
    if not phi.is_homogeneous():
        raise NotMonogenic("input not homogeneous")
    if not dirac(phi).is_zero():
        raise NotMonogenic("input not monogenic")
    try:
        want = frozenset(moves)
    except TypeError:
        want = frozenset()
    if not want or not want <= {1, 0, -1}:
        raise ValueError("moves must be a non-empty subset of {1, 0, -1}, got %r"
                         % (moves,))
    n = phi.nvars
    i = max(phi.degree(), 0)
    dphi = phi.diff(k)
    inv_ni = GaussianRational(Fraction(1, n + 2 * i))
    plus = zero = minus = None
    if want & {1, 0}:
        ek_phi = phi.apply_e(k)
    if 1 in want:
        xk = tuple(1 if t == k - 1 else 0 for t in range(n))
        plus = phi.mul_monomial(xk) + (ek_phi.zeta_x() - dphi.norm2_mul()).scale(inv_ni)
    # dphi == 0 also covers n + 2i - 2 == 0 (n = 2, i = 0)
    if 0 in want:
        zero = ek_phi if dphi.is_zero() else \
            ek_phi - dphi.zeta_x().scale(GaussianRational(Fraction(2, n + 2 * i - 2)))
        zero = zero.scale(inv_ni)
    if -1 in want:
        minus = dphi if dphi.is_zero() else dphi.scale(GaussianRational(Fraction(1, n + 2 * i - 2)))
    return plus, zero, minus


# -- branching embeddings M_j(R^n) -> M_i(R^{n+1}) ---------------------------

def _embed_values(phi):
    """Embed S_n-valued phi into S_{n+1}-valued via the fixed spin embedding."""
    n = phi.nvars
    if n % 2:
        phi = phi.map_values(fund_branching(n)[0])
    return _sp(n, n + 1, "+", phi.terms)


def _norm2_power_mul(phi, t):
    out = phi
    for _ in range(t):
        out = out.norm2_mul()
    return out


def branch_embed(n, j, i, phi, check=False):
    """Degree-raising Pin(n)-embedding of M_j(R^n;S_n) into M_i(R^{n+1};S_{n+1}).

    Assembles |x|-powers against Gegenbauer parity so the result is an honest
    polynomial; with check=True the output is verified to be monogenic.
    """
    if not (0 <= j <= i):
        raise NotAdjacent("need 0 <= j <= i")
    if phi.nvars != n:
        raise DimensionMismatch("phi has wrong number of variables")
    if not dirac(phi).is_zero():
        raise NotMonogenic("branch_embed input must be monogenic")
    emb = _embed_values(phi).extend_vars(n + 1)
    d = i - j
    out = SpinorPolynomial(n + 1, n + 1, "+")
    lam1 = Fraction(n - 1, 2) + j
    c1 = gegenbauer_coeffs_rational(d, lam1)
    for p, c in enumerate(c1):
        if c.is_zero():
            continue
        t2 = d - p
        if t2 % 2:
            raise ParityError("Gegenbauer parity broke polynomiality")
        term = emb.mul_monomial((0,) * n + (p,), c * GaussianRational(n + i + j - 1))
        out = out + _norm2_power_mul(term, t2 // 2)
    if d >= 1:
        lam2 = Fraction(n + 1, 2) + j
        c2 = gegenbauer_coeffs_rational(d - 1, lam2)
        # zeta(x') e_{n+1} emb, with zeta(x') = zeta(x) - x_{n+1} e_{n+1}
        core = emb.apply_e(n + 1)
        xz = core.zeta_x() - core.apply_e(n + 1).mul_monomial((0,) * n + (1,))
        for p, c in enumerate(c2):
            if c.is_zero():
                continue
            t2 = d - 1 - p
            if t2 % 2:
                raise ParityError("Gegenbauer parity broke polynomiality")
            term = xz.mul_monomial((0,) * n + (p,), c * GaussianRational(n + 2 * j - 1))
            out = out + _norm2_power_mul(term, t2 // 2)
    if check and not dirac(out).is_zero():
        raise NotMonogenic("branch_embed produced a non-monogenic polynomial")
    return out


# -- proportionality constants on the K-type lattice --------------------------
#
# K-type labels: for n even the source-group types are (i, s) with s = +-1 and
# the target types are plain integers j; for n odd the roles of the sign are
# swapped: types i and (j, s).  Containment means j <= i, adjacency means the
# index moves by one of {(+1, same sign), (0, flip), (-1, same sign)}.

def _split_label(lbl):
    if isinstance(lbl, tuple):
        return lbl[0], lbl[1]
    return lbl, 0


def _adjacent_move(a, b):
    """(step, flip) for one adjacency move, or None.

    Signed labels move up/down with the same sign or flip sign in place;
    unsigned labels may also stay in place.
    """
    (ia, sa), (ib, sb) = _split_label(a), _split_label(b)
    if ib == ia + 1 and sa == sb:
        return 1, False
    if ib == ia:
        if sa == 0 and sb == 0:
            return 0, False
        if sa == -sb and sa != 0:
            return 0, True
    if ib == ia - 1 and sa == sb:
        return -1, False
    return None


def _validate_pair(n, alpha, alphap, beta, betap):
    if n < 2:
        raise DimensionMismatch("lattice constants need n >= 2, got n=%r" % (n,))
    even = n % 2 == 0
    i, si = _split_label(alpha)
    j, sj = _split_label(alphap)
    ib, sib = _split_label(beta)
    jb, sjb = _split_label(betap)
    if even and (si == 0 or sj != 0 or sib == 0 or sjb != 0):
        raise NotAdjacent("for even n use alpha=(i,+-1), alphap=j")
    if not even and (si != 0 or sj == 0 or sib != 0 or sjb == 0):
        raise NotAdjacent("for odd n use alpha=i, alphap=(j,+-1)")
    if not (0 <= j <= i) or not (0 <= jb <= ib):
        raise NotAdjacent("containment j <= i fails")
    mv = _adjacent_move(alpha, beta)
    mvp = _adjacent_move(alphap, betap)
    if mv is None or mvp is None:
        raise NotAdjacent("labels are not adjacent")
    return i, si, j, sj, ib, jb, mv, mvp


# (move of alpha, move of alphap) -> (numerator, denominator) of the constant.
# An entry with exactly one zero move is further multiplied by the label sign
# s and by sqrt(-1) for n even, -1 for n odd.
_LAMBDA_TABLE = {
    (1, 1): lambda n, i, j: (n + 2 * j - 1, n + 2 * i + 1),
    (0, 1): lambda n, i, j: (2 * (n + 2 * j - 1), (n + 2 * i - 1) * (n + 2 * i + 1)),
    (-1, 1): lambda n, i, j: (-(n + 2 * j - 1), n + 2 * i - 1),
    (1, 0): lambda n, i, j: (-(i - j + 1), n + 2 * i + 1),
    (0, 0): lambda n, i, j: ((n + 2 * i) * (n + 2 * j - 1),
                             (n + 2 * i - 1) * (n + 2 * i + 1)),
    (-1, 0): lambda n, i, j: (n + i + j - 1, n + 2 * i - 1),
    (1, -1): lambda n, i, j: (-(i - j + 1) * (i - j + 2),
                              (n + 2 * i + 1) * (n + 2 * j - 3)),
    (0, -1): lambda n, i, j: (2 * (i - j + 1) * (n + i + j - 1),
                              (n + 2 * i - 1) * (n + 2 * i + 1) * (n + 2 * j - 3)),
    (-1, -1): lambda n, i, j: ((n + i + j - 2) * (n + i + j - 1),
                               (n + 2 * i - 1) * (n + 2 * j - 3)),
}


def lambda_constant(n, alpha, alphap, beta, betap):
    """Closed-form proportionality constant for one adjacent lattice move."""
    i, si, j, sj, _, _, mv, mvp = _validate_pair(n, alpha, alphap, beta, betap)
    key = (mv[0], mvp[0])
    num, den = _LAMBDA_TABLE[key](n, i, j)
    if key.count(0) != 1:
        return ParamScalar(num, den)
    even = n % 2 == 0
    val = ParamScalar(num * (si if even else sj), den)
    return val * PS_I if even else -val


def _omega_components(phi, k, kind, moves):
    """E'(beta')-components of multiplication by x_k on a sphere K-type element.

    kind 'plain' (element psi), 'xz' (element zeta(x) psi) or 'mixed'
    (element psi + zeta(x) gamma(psi)); returns {move: (kind, rep)} for each
    move in moves, a subset of {+1, 0, -1}, for the target degree j + move.
    """
    # the zeta(x) factor of the 0 component swaps the plain and xz kinds
    flipped = {"plain": "xz", "xz": "plain", "mixed": "mixed"}.get(kind)
    if flipped is None:
        raise ValueError(kind)
    # on the unit sphere x_k phi = phi_plus - zeta(x) phi_zero + phi_minus
    plus, zero, minus = mult_coordinate_split(phi, k, moves)
    if zero is not None and kind != "xz":
        zero = (zero.gamma_twist() if kind == "mixed" else zero).scale(GaussianRational(-1))
    comps = {1: (kind, plus), 0: (flipped, zero), -1: (kind, minus)}
    return {mv: comps[mv] for mv in moves}


@lru_cache(maxsize=256)
def _bruteforce_block(n, alpha, alphap, beta, max_basis):
    """Solve for all constants into one target type at once; {move: value}."""
    i, si = _split_label(alpha)
    j, sj = _split_label(alphap)
    even = n % 2 == 0
    basis = monogenic_basis(n, j)
    if max_basis is not None:
        basis = basis[:max_basis]
    if not basis:
        raise ZeroMap("empty source K-type")
    sib_target = _split_label(beta)[1]
    ib_target = _split_label(beta)[0]
    lhs_move = _adjacent_move(alpha, beta)[0]

    def embed_candidate(jp, ipb, kind, rep):
        """S_{beta,beta'} applied to an omega'-component rep."""
        if rep.is_zero() or jp > ipb:
            return None
        if even:
            # target sign decides whether the x-factor (and gamma twist) is used
            if sib_target == 1:
                return ("plain", branch_embed(n, jp, ipb, rep))
            return ("xz", branch_embed(n, jp, ipb, rep.gamma_twist()))
        if kind == "plain":
            return ("mixed", branch_embed(n, jp, ipb, rep))
        return ("mixed", branch_embed(n, jp, ipb, rep).gamma_twist())

    target = {}
    cand_moves = [mvq for mvq in (1, 0, -1) if 0 <= j + mvq <= ib_target]
    col_vecs = {mvq: {} for mvq in cand_moves}
    sample_idx = 0
    for phi in basis:
        if even:
            # alpha = (i,+): Psi = I(phi); (i,-): Psi = I(gamma phi), xz kind
            if si == 1:
                Psi, lhs_kind = branch_embed(n, j, i, phi), "plain"
            else:
                Psi, lhs_kind = branch_embed(n, j, i, phi.gamma_twist()), "xz"
            omega_kind = "mixed"
        else:
            if sj == 1:
                Psi, lhs_kind = branch_embed(n, j, i, phi), "mixed"
                omega_kind = "plain"
            else:
                Psi, lhs_kind = branch_embed(n, j, i, phi).gamma_twist(), "mixed"
                omega_kind = "xz"
        for k in range(1, n + 1):
            lhs_kind_b, lhs_rep = _omega_components(Psi, k, lhs_kind,
                                                    (lhs_move,))[lhs_move]
            src_comps = _omega_components(phi, k, omega_kind, cand_moves)
            for mvq in cand_moves:
                comp_kind, rep = src_comps[mvq]
                cand = embed_candidate(j + mvq, ib_target, comp_kind, rep)
                if cand is not None:
                    ck, cpoly = cand
                    if ck != lhs_kind_b:
                        raise MultiplicityViolation(
                            "component kinds disagree: %s vs %s" % (ck, lhs_kind_b))
                    for key, v in cpoly.terms.items():
                        col_vecs[mvq][(sample_idx, key)] = v
            for key, v in lhs_rep.terms.items():
                target[(sample_idx, key)] = v
            sample_idx += 1

    live = [mvq for mvq in cand_moves if col_vecs[mvq]]
    if not live:
        raise ZeroMap("comparison map vanishes on the spanning set")
    try:
        sol = linalg.solve_in_span([col_vecs[mvq] for mvq in live], target)
    except ValueError as exc:
        raise ZeroMap(str(exc))
    if sol is None:
        raise MultiplicityViolation(
            "sides are not proportional for %r -> %r" % ((alpha, alphap), beta))
    return {mvq: sol[t] for t, mvq in enumerate(live)}


def lambda_constant_bruteforce(n, alpha, alphap, beta, betap, max_basis=None):
    """Recover the proportionality constant by exact linear algebra.

    Realizes the K-type pair inside the polynomial model on the sphere,
    multiplies by the coordinate functions x_k, and solves for the scalars
    relating the projected result to the embedded images of the target
    pairs.  Raises MultiplicityViolation when the two sides fail to be
    proportional and ZeroMap when the comparison map vanishes on the whole
    spanning set.
    """
    _, _, j, _, _, _, mv, mvp = _validate_pair(n, alpha, alphap, beta, betap)
    block = _bruteforce_block(n, alpha, alphap, beta, max_basis)
    if mvp[0] not in block:
        raise ZeroMap("comparison map vanishes on the spanning set")
    return ParamScalar.coerce(block[mvp[0]])


def apply_group_element(phi, gen_indices):
    """Action of g = e_{i1}...e_{ik} on a spinor polynomial.

    (g . phi)(x) = zeta(g) phi(q(g)^{-1} x).  With e_i^2 = -1 the covering
    image q(e_i): y -> -e_i y e_i^{-1} = e_i y e_i fixes e_j (j != i) and
    negates e_i, so it is the reflection x_i -> -x_i.  q(g) thus negates the
    coordinates named an odd number of times, and a term changes sign when
    its exponents on those coordinates sum to an odd number.
    """
    flip = 0
    for idx in reversed(gen_indices):
        phi = phi.apply_e(idx)
        flip ^= 1 << (idx - 1)
    return phi._like({(mono, mask): -v if sum(e for t, e in enumerate(mono)
                                              if flip >> t & 1) & 1 else v
                      for (mono, mask), v in phi.terms.items()})
