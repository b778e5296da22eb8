"""Spinor-valued polynomials, the Dirac operator, and monogenic branching.

Implements Gegenbauer polynomials with exact coefficients, the Fischer
decomposition Pol = (+) x^j M_i, the coordinate-multiplication split of a
monogenic polynomial, the degree-raising embeddings M_j(R^n) -> M_i(R^{n+1}),
and the proportionality constants relating coordinate multiplication on a
sphere to those embeddings -- both as a closed-form table and by brute-force
linear algebra over Q(sqrt(-1)).

A spinor polynomial holds its values as Gaussian-integer pairs over one
denominator, keyed by one int packing the monomial and the spinor mask, so
its operations and the brute-force solve work on plain ints.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm, perm, prod
from types import MappingProxyType

from .paramfield import (GaussianRational, ParamScalar, ZERO, ONE,
                         PS_ZERO, PS_I, PS_LAM, pochhammer, rat, _gr, _acc)
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


def _geg_identity_diff(name, n, geg=gegenbauer):
    """Left side of the named Gegenbauer identity at degree n, formal lam, as
    {power of z: ParamScalar}; empty exactly when the identity holds there.
    geg(deg, lam) builds the Gegenbauer polynomials."""
    out = {}
    for coeff, factor, order, offset, shift in _GEG_IDENTITIES[name]:
        deg = n + offset
        if deg < order:
            continue
        c = ParamScalar.coerce(coeff(n, PS_LAM))
        terms = [(t - order, c * a * perm(t, order))
                 for t, a in enumerate(geg(deg, PS_LAM + shift))
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
    # each Gegenbauer polynomial built once, in a cache of this call only
    geg = lru_cache(maxsize=None)(gegenbauer)
    for name in _GEG_IDENTITIES:
        per = {}
        for n in range(max_deg + 1):
            d = _geg_identity_diff(name, n, geg)
            if d:
                raise IdentityFailure("%s fails at degree %d: %r" % (name, n, d))
            per[n] = True
        report[name] = per
    return report


# -- spinor-valued polynomials ------------------------------------------------
# A term's key is one int: the spinor mask in the low m = cn // 2 bits, then
# the exponent of x_k in the _W bits from m + _W * (k - 1), so new variables
# take the high fields.  While the total degree is at most MAX_DEGREE no
# field carries, and it is (key >> m) % _FIELD, as 2**_W = 1 mod _FIELD.

_W = 8
_FIELD = (1 << _W) - 1
MAX_DEGREE = _FIELD - 1


def _check_degree(deg):
    if deg > MAX_DEGREE:
        raise BadDegree("total degree %d exceeds %d" % (deg, MAX_DEGREE))


def _pack(mono, nvars):
    """The exponent fields of a monomial in nvars variables, below the mask."""
    if len(mono) != nvars:
        raise DimensionMismatch("monomial of wrong length")
    if min(mono, default=0) < 0 or sum(mono) > MAX_DEGREE:
        raise BadDegree("exponents %r not in 0..%d in total" % (mono, MAX_DEGREE))
    return sum(e << _W * t for t, e in enumerate(mono))


@lru_cache(maxsize=None)
def _norm2_power(nvars, t, m):
    """|x|^(2t) as (key shift for masks of m bits, coefficient) pairs."""
    f = factorial(t)
    return tuple((_pack([2 * e for e in beta], nvars) << m,
                  f // prod(map(factorial, beta)))
                 for beta in monomials(nvars, t))


def _sp(nvars, cn, variant, terms, den=1):
    """SpinorPolynomial on a packed key -> nonzero (re, im) dict over den,
    taken as it is."""
    p = object.__new__(SpinorPolynomial)
    p.nvars, p.cn, p.variant, p.terms, p.den = nvars, cn, variant, terms, den
    return p


def _over_den(vals):
    """(terms, den) of a dict of nonzero GaussianRational values: the parts
    over the lcm of the denominators, where the content is 1."""
    den = lcm(*(v._d for v in vals.values()))
    return {key: (v._a * (den // v._d), v._b * (den // v._d))
            for key, v in vals.items()}, den


def _reduced(p):
    """p, just built, with the common content of its parts and den divided
    out."""
    g = gcd(p.den, *chain.from_iterable(p.terms.values()))
    if g != 1:
        p.terms = {key: (a // g, b // g) for key, (a, b) in p.terms.items()}
        p.den //= g
    return p


def _zacc(out, terms, shifts):
    """Add mult * x^shift * terms into out for each (key shift, int mult) of
    shifts, dropping a sum that vanishes; returns out.  The Z[i] counterpart
    of paramfield._acc."""
    for shift, mult in shifts:
        for key, (a, b) in terms.items():
            key += shift
            a, b = a * mult, b * mult
            t = out.get(key)
            if t is not None:
                a += t[0]
                b += t[1]
                if not (a or b):
                    del out[key]
                    continue
            out[key] = (a, b)
    return out


class SpinorPolynomial:
    """Polynomial map R^nvars -> S with exact Gaussian-rational values.

    cn fixes the ambient Clifford algebra Cl(cn;C) acting on the values
    (cn >= nvars, so embedded polynomials can carry a larger spin module).
    The value is one flat dict `terms`: packed key (above) -> nonzero Gaussian
    integer (re, im), over one positive denominator `den` shared by every
    term, with the parts and den coprime; so zeta(e_k), d/dx_k and x^a are
    int operations on keys, and equal polynomials have equal parts.  A total
    degree above MAX_DEGREE raises BadDegree.  Values are immutable.
    """

    __slots__ = ("nvars", "cn", "variant", "terms", "den")

    def __init__(self, nvars, cn=None, variant="+", coeffs=None):
        self.nvars = nvars
        self.cn = nvars if cn is None else cn
        self.variant = variant
        coeffs = coeffs or {}
        if any(s.m != self.m for s in coeffs.values()):
            raise DimensionMismatch("spinor coefficient of wrong size")
        self.terms, self.den = _over_den({_pack(mono, nvars) << self.m | mask: v
                                          for mono, s in coeffs.items()
                                          for mask, v in s.coeffs.items()})

    @property
    def m(self):
        return self.cn // 2

    @property
    def coeffs(self):
        """Read-only {monomial: Spinor} view of the terms, over Q(i)."""
        m, out = self.m, {}
        low = (1 << m) - 1
        for key, (a, b) in self.terms.items():
            mono = tuple(key >> m + _W * t & _FIELD for t in range(self.nvars))
            out.setdefault(mono, {})[key & low] = _gr(a, b, self.den)
        return MappingProxyType({mono: _spinor(m, c) for mono, c in out.items()})

    def _like(self, terms, den=None):
        return _sp(self.nvars, self.cn, self.variant, terms,
                   self.den if den is None else den)

    def _zero_like(self):
        return _sp(self.nvars, self.cn, self.variant, {})

    def is_zero(self):
        return not self.terms

    def _merge(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        if (self.nvars, self.cn, self.variant) != (other.nvars, other.cn, other.variant):
            raise DimensionMismatch("incompatible spinor polynomials")
        den = lcm(self.den, other.den)
        f, h = den // self.den, sign * (den // other.den)
        out = dict(self.terms) if f == 1 else \
            {key: (a * f, b * f) for key, (a, b) in self.terms.items()}
        return _reduced(self._like(_zacc(out, other.terms, ((0, h),)), den))

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def scale(self, v):
        v = GaussianRational.coerce(v)
        if v.is_zero():
            return self._zero_like()
        c, e, d = v._a, v._b, v._d
        if e:
            terms = {key: (a * c - b * e, a * e + b * c)
                     for key, (a, b) in self.terms.items()}
        elif c == 1:  # 1/d shares the terms
            if d == 1:
                return self
            terms = self.terms
        else:
            terms = {key: (a * c, b * c) for key, (a, b) in self.terms.items()}
        if d == 1 and c * c + e * e == 1:  # a unit keeps the content
            return self._like(terms)
        return _reduced(self._like(terms, self.den * d))

    def mul_monomial(self, exps, v=ONE):
        shift = _pack(exps, self.nvars) << self.m
        _check_degree(self.degree() + sum(exps))
        return self._like({key + shift: c for key, c in self.terms.items()}).scale(v)

    def diff(self, k):
        """d/dx_k, 1-based k."""
        if not 1 <= k <= self.nvars:
            raise DimensionMismatch("variable index out of range")
        at = self.m + _W * (k - 1)
        out = {}
        for key, (a, b) in self.terms.items():
            e = key >> at & _FIELD
            if e:
                out[key - (1 << at)] = (a * e, b * e) if e > 1 else (a, b)
        return _reduced(self._like(out))

    def apply_e(self, i):
        """Apply zeta(e_i) of the ambient algebra to every coefficient: each
        value is multiplied by i^k, a swap and negation of its parts."""
        table = _zeta_table(self.cn, self.variant, i)
        low = (1 << self.m) - 1
        out = {}
        for key, (a, b) in self.terms.items():
            mask = key & low
            image, k = table[mask]
            if k & 1:
                a, b = -b, a
            if k & 2:
                a, b = -a, -b
            out[key - mask + image] = (a, b)
        return self._like(out)

    def _zeta_sum(self, step):
        """sum_k zeta(e_k) x_k phi (step 1) or sum_k zeta(e_k) d(phi)/dx_k
        (step -1) over the polynomial variables, in one accumulator.  zeta(x)
        keeps the content, as zeta(x)^2 = -|x|^2 does (Gauss's lemma)."""
        m = self.m
        low = (1 << m) - 1
        out = {}
        for idx in range(self.nvars):
            table = _zeta_table(self.cn, self.variant, idx + 1)
            at = m + _W * idx
            move = step << at
            # _zacc inline: this loop is the hottest of the brute force
            for key, (a, b) in self.terms.items():
                if step < 0:  # d/dx_k: skip the terms free of x_k, scale by e
                    e = key >> at & _FIELD
                    if not e:
                        continue
                    if e > 1:
                        a, b = a * e, b * e
                mask = key & low
                image, k = table[mask]
                if k & 1:
                    a, b = -b, a
                if k & 2:
                    a, b = -a, -b
                key += move - mask + image
                t = out.get(key)
                if t is not None:
                    a += t[0]
                    b += t[1]
                    if not (a or b):
                        del out[key]
                        continue
                out[key] = (a, b)
        return _reduced(self._like(out)) if step < 0 else self._like(out)

    def zeta_x(self):
        """Multiply by zeta(x) = sum_k x_k e_k over the polynomial variables."""
        _check_degree(self.degree() + 1)
        return self._zeta_sum(1)

    def norm2_mul(self):
        """Multiply by |x|^2, which keeps the content (Gauss's lemma)."""
        _check_degree(self.degree() + 2)
        return self._like(_zacc({}, self.terms, _norm2_power(self.nvars, 1, self.m)))

    def gamma_twist(self):
        low = (1 << self.m) - 1
        return self._like({key: ((-a, -b) if (key & low).bit_count() & 1 else (a, b))
                           for key, (a, b) in self.terms.items()})

    def degree(self):
        m = self.m
        return max(((key >> m) % _FIELD for key in self.terms), default=-1)

    def is_homogeneous(self):
        m = self.m
        return len({(key >> m) % _FIELD for key in self.terms}) <= 1

    def extend_vars(self, nvars, cn=None):
        """View in a larger variable set (new variables appended, exponent
        0): the keys stay, so the terms are shared."""
        if nvars < self.nvars:
            raise DimensionMismatch("cannot shrink variables")
        cn = self.cn if cn is None else cn
        if cn // 2 != self.m:
            raise DimensionMismatch("spinor coefficient of wrong size")
        return _sp(nvars, cn, self.variant, self.terms, self.den)

    def map_values(self, spinmap):
        """Apply the linear map spinmap to every spinor value: its entries
        over their lcm denominator D multiply the parts, over den * D."""
        entries, dmap = _over_den(spinmap.entries)
        m, m2 = self.m, spinmap.dst_dim.bit_length() - 1
        low, out = (1 << m) - 1, {}
        for (r, c), (x, y) in entries.items():
            _zacc(out, {key >> m << m2 | r: (a * x - b * y, a * y + b * x)
                               for key, (a, b) in self.terms.items() if key & low == c},
                         ((0, 1),))
        return _reduced(_sp(self.nvars, 2 * m2, self.variant, out, self.den * dmap))

    def __eq__(self, other):
        return (isinstance(other, SpinorPolynomial)
                and (self.nvars, self.cn, self.variant, self.den)
                == (other.nvars, other.cn, other.variant, other.den)
                and self.terms == other.terms)

    def __repr__(self):
        return "SpinorPolynomial(nvars=%d, cn=%d, %d terms)" % (
            self.nvars, self.cn, len({key >> self.m for key in self.terms}))


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
    cols = [_pack(mono, n) << n // 2 | mask for mono in monomials(n, i)
            for mask in range(spin_dim(n))]
    rows = {}
    for j, key in enumerate(cols):
        # the Dirac image of one term has integer parts over den 1
        for dkey, v in dirac(_sp(n, n, "+", {key: (1, 0)})).terms.items():
            rows.setdefault(dkey, {})[j] = v
    piv = linalg.echelon(map(linalg._primitive, rows.values()), len(cols))
    return tuple(_sp(n, n, "+", *_over_den({cols[j]: v for j, v in vec.items()}))
                 for vec in linalg.echelon_nullspace(piv, len(cols)))


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
    ni, f = n + 2 * i, phi.den // dphi.den  # dphi.den divides phi.den
    plus = zero = minus = None
    if want & {1, 0}:
        ek_phi = phi.apply_e(k)
    # plus and zero each in one accumulator, over one denominator
    if 1 in want:
        # (ni x_k phi + zeta(x) e_k phi - |x|^2 dphi) / ni, into the fresh
        # terms of zeta(x) e_k phi
        out = _zacc(ek_phi.zeta_x().terms, phi.terms, ((1 << phi.m + _W * (k - 1), ni),))
        _zacc(out, dphi.terms, ((s, -f * c) for s, c in _norm2_power(n, 1, phi.m)))
        plus = _reduced(phi._like(out, phi.den * ni))
    # dphi == 0 also covers n + 2i - 2 == 0 (n = 2, i = 0)
    if 0 in want and dphi.is_zero():
        zero = ek_phi.scale(_gr(1, 0, ni))
    elif 0 in want:
        # ((ni - 2) e_k phi - 2 zeta(x) dphi) / (ni (ni - 2))
        out = _zacc({}, ek_phi.terms, ((0, ni - 2),))
        _zacc(out, dphi.zeta_x().terms, ((0, -2 * f),))
        zero = _reduced(phi._like(out, phi.den * ni * (ni - 2)))
    if -1 in want:
        minus = dphi if dphi.is_zero() else dphi.scale(_gr(1, 0, n + 2 * i - 2))
    return plus, zero, minus


# -- branching embeddings M_j(R^n) -> M_i(R^{n+1}) ---------------------------

def _embed_values(phi):
    """Embed S_n-valued phi into S_{n+1}-valued via the fixed spin embedding."""
    n = phi.nvars
    if n % 2:
        phi = phi.map_values(fund_branching(n)[0])
    return _sp(n, n + 1, "+", phi.terms, phi.den)


@lru_cache(maxsize=None)
def _embed_sums(n, j, i):
    """The two Gegenbauer sums of branch_embed, homogeneous in x_1..x_{n+1}:
    the first multiplies the embedded input, the second zeta(x') e_{n+1}
    times it.  Each is (den, ((key shift, numerator), ...)) for masks of
    (n + 1) // 2 bits, the |x|-powers expanded by _norm2_power."""
    m, d, sums = (n + 1) // 2, i - j, []
    for deg, lam, factor in ((d, Fraction(n - 1, 2) + j, n + i + j - 1),
                             (d - 1, Fraction(n + 1, 2) + j, n + 2 * j - 1)):
        acc = {}
        for p, c in enumerate(gegenbauer_coeffs_rational(deg, lam)):  # () for deg -1
            if (deg - p) % 2 and not c.is_zero():
                raise ParityError("Gegenbauer parity broke polynomiality")
            for shift, mult in _norm2_power(n + 1, (deg - p) // 2, m):
                shift += p << m + _W * n  # times x_{n+1}^p
                acc[shift] = acc.get(shift, 0) + c.re * factor * mult
        den = lcm(*(v.denominator for v in acc.values()))
        sums.append((den, tuple((shift, v.numerator * (den // v.denominator))
                                for shift, v in acc.items() if v)))
    return sums


def branch_embed(n, j, i, phi, check=False):
    """Degree-raising Pin(n)-embedding of M_j(R^n;S_n) into M_i(R^{n+1};S_{n+1}).

    Assembles |x|-powers against Gegenbauer parity so the result is an honest
    polynomial; with check=True the output is verified to be monogenic.  Every
    term goes over one common denominator into one accumulator.
    """
    if not (0 <= j <= i):
        raise NotAdjacent("need 0 <= j <= i")
    if phi.nvars != n:
        raise DimensionMismatch("phi has wrong number of variables")
    _check_degree(i)
    if not dirac(phi).is_zero():
        raise NotMonogenic("branch_embed input must be monogenic")
    emb = _embed_values(phi)
    # zeta(x') e_{n+1} emb: zeta_x sums over the n variables of emb
    parts = zip((emb, emb.apply_e(n + 1).zeta_x()) if i > j else (emb,),
                _embed_sums(n, j, i))
    parts = [(poly.terms, poly.den * sden, shifts) for poly, (sden, shifts) in parts]
    den = lcm(*(pden for _, pden, _ in parts))
    out = {}
    for terms, pden, shifts in parts:
        f = den // pden
        _zacc(out, terms, ((shift, mult * f) for shift, mult in shifts))
    out = _reduced(_sp(n + 1, n + 1, "+", out, den))
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
    """Check one adjacent lattice move; (i, si, j, sj, index step of alpha
    -> beta, index step of alphap -> betap)."""
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
    return i, si, j, sj, mv[0], mvp[0]


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
    i, si, j, sj, mv, mvp = _validate_pair(n, alpha, alphap, beta, betap)
    key = (mv, mvp)
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
        emb = branch_embed(n, jp, ipb, rep)
        return ("mixed", emb if kind == "plain" else emb.gamma_twist())

    cand_moves = [mvq for mvq in (1, 0, -1) if 0 <= j + mvq <= ib_target]
    samples = []  # per (phi, k): [(None, left side), (move, nonzero candidate)...]
    for phi in basis:
        if even:
            # alpha = (i,+): Psi = I(phi); (i,-): Psi = I(gamma phi), xz kind
            Psi = branch_embed(n, j, i, phi if si == 1 else phi.gamma_twist())
            lhs_kind, omega_kind = "plain" if si == 1 else "xz", "mixed"
        else:
            Psi = branch_embed(n, j, i, phi)
            Psi = Psi if sj == 1 else Psi.gamma_twist()
            lhs_kind, omega_kind = "mixed", "plain" if sj == 1 else "xz"
        for k in range(1, n + 1):
            lhs_kind_b, lhs_rep = _omega_components(Psi, k, lhs_kind,
                                                    (lhs_move,))[lhs_move]
            src_comps = _omega_components(phi, k, omega_kind, cand_moves)
            sample = [(None, lhs_rep)]
            for mvq in cand_moves:
                comp_kind, rep = src_comps[mvq]
                cand = embed_candidate(j + mvq, ib_target, comp_kind, rep)
                if cand is not None:
                    ck, cpoly = cand
                    if ck != lhs_kind_b:
                        raise MultiplicityViolation(
                            "component kinds disagree: %s vs %s" % (ck, lhs_kind_b))
                    if not cpoly.is_zero():
                        sample.append((mvq, cpoly))
            samples.append(sample)

    live = [mvq for mvq in cand_moves if any(t == mvq for s in samples for t, _ in s)]
    if not live:
        raise ZeroMap("comparison map vanishes on the spanning set")
    col = {mvq: t for t, mvq in enumerate(live + [None])}  # the left side last

    def rows():
        """One Z[i] row per term of a sample, its polynomials brought to the
        lcm of their denominators."""
        for sample in samples:
            den = lcm(*(p.den for _, p in sample))
            by_key = {}
            for mvq, p in sample:
                f = den // p.den
                for key, (a, b) in p.terms.items():
                    by_key.setdefault(key, {})[col[mvq]] = (a * f, b * f)
            yield from by_key.values()

    try:
        sol = linalg.solve_in_span(rows(), len(live))
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
    mvp = _validate_pair(n, alpha, alphap, beta, betap)[-1]
    block = _bruteforce_block(n, alpha, alphap, beta, max_basis)
    if mvp not in block:
        raise ZeroMap("comparison map vanishes on the spanning set")
    return ParamScalar.coerce(block[mvp])


def apply_group_element(phi, gen_indices):
    """Action of g = e_{i1}...e_{ik} on a spinor polynomial.

    (g . phi)(x) = zeta(g) phi(q(g)^{-1} x).  With e_i^2 = -1 the covering
    image q(e_i): y -> -e_i y e_i^{-1} = e_i y e_i fixes e_j (j != i) and
    negates e_i, so it is the reflection x_i -> -x_i.  q(g) thus negates the
    coordinates named an odd number of times, and a term changes sign when
    its exponents on those coordinates sum to an odd number.
    """
    flip = 0  # the lowest bit of each negated coordinate's field
    for idx in reversed(gen_indices):
        phi = phi.apply_e(idx)
        flip ^= 1 << phi.m + _W * (idx - 1)
    return phi._like({key: (-a, -b) if (key & flip).bit_count() & 1 else (a, b)
                      for key, (a, b) in phi.terms.items()})
