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

from .paramfield import (GaussianRational, ParamScalar, PS_ZERO, PS_I, PS_LAM,
                         evaluate, pochhammer, rat, _gr, _acc, _over_den)
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
    """Coefficients of C_deg^lam(z) for a fixed rational lam (int, Fraction
    or str), as GaussianRational: the coefficients of `gegenbauer`, each
    evaluated (it is constant in lam and nu); () for deg = -1."""
    return tuple(evaluate(c, 0, 0) for c in gegenbauer(deg, rat(lam)))


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
        if variant not in ("+", "-"):
            raise ValueError("spin module variant must be '+' or '-', got %r"
                             % (variant,))
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

    def map_values(self, spinmap):
        """Apply the linear map spinmap to every spinor value, in one pass
        over the terms: its entries over their lcm denominator D, grouped
        by source mask, multiply the parts, over den * D."""
        entries, dmap = _over_den(spinmap.entries)
        rows = {}
        for (r, c), (x, y) in entries.items():
            rows.setdefault(c, []).append((r, x, y))
        m, m2 = self.m, spinmap.dst_dim.bit_length() - 1
        low, out = (1 << m) - 1, {}
        for key, (a, b) in self.terms.items():
            base = key >> m << m2
            for r, x, y in rows.get(key & low, ()):  # _zacc inline
                t = out.get(base | r, (0, 0))
                u, v = t[0] + a * x - b * y, t[1] + a * y + b * x
                if u or v:
                    out[base | r] = (u, v)
                else:  # only a sum can vanish: Z[i] has no zero divisors
                    del out[base | r]
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


# typed: a float or bool equal to a cached int is a new key, so its check runs
@lru_cache(maxsize=None, typed=True)
def monogenic_basis(n, i):
    """Exact basis of M_i(R^n; S_n) = ker(Dirac) on degree-i polynomials."""
    if type(n) is not int or n < 1:  # type, not isinstance: no bools
        raise DimensionMismatch("need an integer n >= 1, got n=%r" % (n,))
    if type(i) is not int:
        raise BadDegree("the degree must be an integer, got i=%r" % (i,))
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


def mult_coordinate_split(phi, moves=(1, 0, -1)):
    """Split x_k * phi = phi_plus - zeta(x) phi_zero + |x|^2 phi_minus;
    one (phi_plus, phi_zero, phi_minus) per k = 1..nvars.

    phi must be homogeneous monogenic, checked once per call.  Only the
    components whose degree move (+1, 0, -1 respectively) is in moves, a
    non-empty subset of {1, 0, -1}, are built; the others are None.  By
    zeta(x) e_k = -e_k zeta(x) - 2 x_k and zeta(x) d_k = d_k zeta(x) - e_k,
    all k share Z = zeta(x) phi: with ni = nvars + 2 deg phi,
    ni phi_plus = (ni - 2) x_k phi - e_k Z - |x|^2 d_k phi,
    ni (ni - 2) phi_zero = ni e_k phi - 2 d_k Z, (ni - 2) phi_minus = d_k phi.
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
    n, m, den = phi.nvars, phi.m, phi.den
    i = max(phi.degree(), 0)
    ni = n + 2 * i
    if 1 in want:
        _check_degree(i + 1)  # only plus raises the degree; d_k Z is back at i
    if 1 in want or 0 in want and i:  # at i = 0 every d_k phi vanishes
        mz = phi.scale(_gr(-1, 0, 1))._zeta_sum(1)  # -Z, over den
    splits = []
    for k in range(1, n + 1):
        dphi = phi.diff(k)
        plus = zero = minus = None
        # plus and zero each in one accumulator, over one denominator
        if 1 in want:
            out = mz.apply_e(k).terms  # fresh
            _zacc(out, phi.terms, ((1 << m + _W * (k - 1), ni - 2),) if ni > 2 else ())
            f = den // dphi.den  # dphi.den divides den
            _zacc(out, dphi.terms, ((s, -f * c) for s, c in _norm2_power(n, 1, m)))
            plus = _reduced(phi._like(out, den * ni))
        # dphi == 0 also covers ni == 2 (n = 2, i = 0)
        if 0 in want and dphi.is_zero():
            zero = phi.apply_e(k).scale(_gr(1, 0, ni))
        elif 0 in want:
            dz = mz.diff(k)
            out = _zacc({}, phi.apply_e(k).terms, ((0, ni),))
            _zacc(out, dz.terms, ((0, 2 * (den // dz.den)),))
            zero = _reduced(phi._like(out, den * ni * (ni - 2)))
        if -1 in want:
            minus = dphi if dphi.is_zero() else dphi.scale(_gr(1, 0, ni - 2))
        splits.append((plus, zero, minus))
    return tuple(splits)


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


def branch_embed(n, j, i, phi):
    """Degree-raising Pin(n)-embedding of M_j(R^n;S_n) into M_i(R^{n+1};S_{n+1}).

    Assembles |x|-powers against Gegenbauer parity so the result is an honest
    polynomial.  Every term goes over one common denominator into one
    accumulator.
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
    return _reduced(_sp(n + 1, n + 1, "+", out, den))


# -- proportionality constants on the K-type lattice --------------------------
#
# K-type labels: an int index i (unsigned) or a pair (i, s) with s = +1 or -1;
# anything else is not a label (NotAdjacent).  For n even the source-group
# types are (i, s) and the target types plain integers j; for n odd the roles
# of the sign are swapped: types i and (j, s).  Containment means j <= i,
# adjacency means the index moves by one of {(+1, same sign), (0, flip),
# (-1, same sign)}, an unsigned index staying in place as its own flip.

def _split_label(lbl):
    """(index, sign) of one K-type label, sign 0 for an unsigned index."""
    if type(lbl) is int:  # type, not isinstance: no bools
        return lbl, 0
    if type(lbl) is tuple and len(lbl) == 2 and type(lbl[0]) is int \
            and type(lbl[1]) is int and lbl[1] in (1, -1):
        return lbl
    raise NotAdjacent("a K-type label is an int or (int, +-1), got %r" % (lbl,))


def _adjacent_move(a, b):
    """(step, flip) for one adjacency move, or None.

    Signed labels move up/down with the same sign or flip sign in place;
    unsigned labels may also stay in place.
    """
    (ia, sa), (ib, sb) = _split_label(a), _split_label(b)
    step = ib - ia
    if abs(step) <= 1 and sb == (sa if step else -sa):
        return step, step == 0 and sa != 0
    return None


def _validate_pair(n, alpha, alphap, beta, betap):
    """Check one adjacent lattice move; (i, si, j, sj, index step of alpha
    -> beta, index step of alphap -> betap)."""
    if type(n) is not int or n < 2:
        raise DimensionMismatch("lattice constants need an integer n >= 2, got n=%r"
                                % (n,))
    labels = [_split_label(lbl) for lbl in (alpha, alphap, beta, betap)]
    even = n % 2 == 0
    if [s != 0 for _, s in labels] != [even, not even] * 2:
        raise NotAdjacent("for even n use alpha=(i,+-1), alphap=j" if even
                          else "for odd n use alpha=i, alphap=(j,+-1)")
    (i, si), (j, sj), (ib, _), (jb, _) = labels
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


def _sphere_part(split, move, sign):
    """The E'(beta')-component, of degree move, of x_k times a sphere K-type
    element, from mult_coordinate_split's triple for x_k.

    The element is psi (sign +1), zeta(x) psi (sign -1) or psi + zeta(x)
    gamma(psi) (sign None).  On the unit sphere x_k phi = phi_plus - zeta(x)
    phi_zero + phi_minus, and zeta(x)^2 = -1, so the move-0 part is -phi_zero
    for psi, phi_zero for zeta(x) psi and -gamma(phi_zero) for the mixed
    element; the zeta(x) factor it carries is left to the embedding.
    """
    part = split[1 - move]
    if move or sign == -1:
        return part
    return (part if sign == 1 else part.gamma_twist()).scale(GaussianRational(-1))


@lru_cache(maxsize=256)
def _bruteforce_block(n, alpha, alphap, beta, max_basis):
    """Solve for all constants into one target type at once; {move: value}.

    Labels come checked by _validate_pair.  At even n the left side Psi =
    I(phi) (alpha = (i, +)) or I(gamma phi) (alpha = (i, -)) carries the
    sign si and the source side is mixed; at odd n the left side Psi = I(phi)
    or gamma(I(phi)) is mixed and the source side carries the sign sj.  A
    candidate embeds a source part, gamma-twisted first at target sign -1
    (even n), and at odd n gamma-twisted afterwards when its part is of the
    zeta(x) psi form.
    """
    i, si = _split_label(alpha)
    j, sj = _split_label(alphap)
    ib, sib = _split_label(beta)
    basis = monogenic_basis(n, j)[:max_basis]
    if not basis:
        raise ZeroMap("empty source K-type")
    lhs_move = _adjacent_move(alpha, beta)[0]
    cand_moves = [mvq for mvq in (1, 0, -1) if 0 <= j + mvq <= ib]
    samples = []  # per (phi, k): [(None, left side), (move, nonzero candidate)...]
    for phi in basis:
        Psi = branch_embed(n, j, i, phi.gamma_twist() if si == -1 else phi)
        Psi = Psi.gamma_twist() if sj == -1 else Psi
        # Psi has n + 1 variables; x_1..x_n are the sphere's coordinates
        for lhs, src in zip(mult_coordinate_split(Psi, (lhs_move,)),
                            mult_coordinate_split(phi, cand_moves)):
            sample = [(None, _sphere_part(lhs, lhs_move, si or None))]
            for mvq in cand_moves:
                rep = _sphere_part(src, mvq, sj or None)
                if rep.is_zero():
                    continue
                cand = branch_embed(n, j + mvq, ib, rep.gamma_twist() if sib == -1 else rep)
                if sj and (sj == 1) == (mvq == 0):
                    cand = cand.gamma_twist()
                if not cand.is_zero():
                    sample.append((mvq, cand))
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
    if max_basis is not None and (type(max_basis) is not int or max_basis < 1):
        raise ValueError("max_basis must be >= 1 or None, got %r" % (max_basis,))
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
