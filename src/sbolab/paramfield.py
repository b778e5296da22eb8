"""Exact coefficient arithmetic for the whole package.

Everything downstream is built over the field Q(sqrt(-1)) of Gaussian
rationals, polynomials and rational functions in the two formal induction
parameters lam and nu, and formal Gamma-factor tokens.  A Gamma argument
is an affine form a*lam + b*nu + c (AffineExp, which also holds the kernel
exponents of kernelcalc).  Both are held as ints over one positive
denominator; Fraction is only what the public parts (`re`, `im`, `a`, `b`,
`c`) return, and equal values hash alike.  Gamma tokens are never evaluated
numerically: arguments that differ by an integer are merged through the functional
equation Gamma(z+1) = z*Gamma(z), which turns the shift into an exact
Pochhammer factor.
"""

import sys
from fractions import Fraction
from math import factorial, gcd, lcm

# The rational type of the scalar parts; the benchmark (bench/worker.py)
# reports it as the arithmetic backend.
_mpq = Fraction


class PoleError(ArithmeticError):
    """Evaluation hit a zero denominator or Gamma at a non-positive integer."""


class GammaResidual(ValueError):
    """Evaluation requested on a scalar that still carries Gamma tokens."""


def rat(x):
    """Coerce x to an exact rational Fraction (int, Fraction or str)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.replace(" ", ""))
    raise TypeError("cannot coerce %r to a rational" % (x,))


def _qparts(x):
    """(numerator, denominator) of an int, Fraction or str; only a str is
    parsed."""
    if not isinstance(x, (int, Fraction)):
        x = rat(x)
    return x.numerator, x.denominator


_HASH_P = sys.hash_info.modulus


def _qhashes(d, *nums):
    """hash(Fraction(x, d)) for each int x in nums and an int d > 0, from
    one modular inverse of d: hash() of every rational is that of the int
    x * d^-1 modulo sys.hash_info.modulus, sign and -1 -> -2 rule included."""
    try:
        inv = pow(d, -1, _HASH_P)
    except ValueError:  # d a multiple of the modulus
        return tuple(hash(Fraction(x, d)) for x in nums)
    return tuple(hash(x * inv) for x in nums)


class GaussianRational:
    """Element of Q(sqrt(-1)), held as three ints: (a + b*i)/d.

    The form is canonical (d > 0 and gcd(a, b, d) == 1), so equal values
    have equal parts.  Values are immutable: the parts are private and
    `re`, `im` are read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        a, b, d = _parts(re)
        c, e, f = _parts(im)
        # (a + b i)/d + i (c + e i)/f
        z = _gr(a * f - e * d, b * f + c * d, d * f)
        self._a, self._b, self._d = z._a, z._b, z._d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            # a polynomial or scalar operand adds through its own __radd__
            if isinstance(other, (ParamPoly, ParamScalar)):
                return NotImplemented
            other = GaussianRational(other)
        d, f = self._d, other._d
        if d == f:
            return _gr(self._a + other._a, self._b + other._b, d)
        return _gr(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            if isinstance(other, (ParamPoly, ParamScalar)):
                return NotImplemented
            other = GaussianRational(other)
        d, f = self._d, other._d
        if d == f:
            return _gr(self._a - other._a, self._b - other._b, d)
        return _gr(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return _times_i_power(2, self)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            if isinstance(other, (ParamPoly, ParamScalar)):
                return NotImplemented
            other = GaussianRational(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b and not e:
            return _gr(a * c, 0, self._d * other._d)
        return _gr(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self):
        return _gr(self._a, -self._b, self._d)

    def norm2(self):
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def inverse(self):
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gr(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        if isinstance(other, (ParamPoly, ParamScalar)):
            return NotImplemented
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, ONE)

    def is_zero(self):
        return not self._a and not self._b

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        # a str is parsed on construction, never compared with
        if isinstance(other, (int, Fraction)):
            return self == GaussianRational(other)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if not self._b:
            if self._d == 1:
                return hash(self._a)
            return _qhashes(self._d, self._a)[0]
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "%s*i" % im
        return "(%s%s%s*i)" % (re, "+" if im > 0 else "-", abs(im))


_new = object.__new__


def _gr(a, b, d):
    """The canonical GaussianRational (a + b*i)/d, for ints with d != 0."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _parts(x):
    """Integer parts (a, b, d) of an int, Fraction, str or GaussianRational."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    p, q = _qparts(x)
    return p, 0, q


def _power(base, k, out):
    """out * base**k for an int k >= 0, by repeated squaring."""
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _times_i_power(k, z):
    """i**k * z for k in 0..3: swapping and negating parts keeps it canonical."""
    if k == 0:
        return z
    a, b = z._a, z._b
    if k & 1:
        a, b = -b, a
    if k & 2:
        a, b = -a, -b
    w = _new(GaussianRational)
    w._a, w._b, w._d = a, b, z._d
    return w


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _over_den(vals):
    """(parts, den) of a dict of GaussianRational values: den is the lcm of
    the denominators and parts maps each key to den * value as a Gaussian
    integer (re, im); the parts and den have content 1.  The one conversion
    from Q(i) to Z[i] of the package."""
    den = lcm(*(v._d for v in vals.values()))
    return {key: (v._a * (den // v._d), v._b * (den // v._d))
            for key, v in vals.items()}, den


def _acc(out, items):
    """Add the (key, value) items into the dict out and return it: a zero
    value is dropped, and so is a sum that vanishes.  Every sparse value of
    the package adds through here, apart from the innermost polynomial loops
    (ParamPoly.__init__, _mul_terms, _affine_subs), which measured faster
    inline."""
    for key, v in items:
        t = out.get(key)
        if t is not None:
            v = t + v
            if v.is_zero():
                del out[key]
                continue
        elif v.is_zero():
            continue
        out[key] = v
    return out


def _grlex_key(mono):
    return (mono[0] + mono[1], mono[0])


class ParamPoly:
    """Polynomial in the formal parameters lam, nu over Q(sqrt(-1)).

    Terms map exponent pairs (deg_lam, deg_nu) to nonzero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, c in terms.items():
                c = GaussianRational.coerce(c)
                if not c.is_zero():
                    t[mono] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *a):
        raise AttributeError("ParamPoly is immutable")

    @staticmethod
    def const(c):
        c = GaussianRational.coerce(c)
        return _poly({} if c.is_zero() else {(0, 0): c})

    @staticmethod
    def coerce(x):
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        # a scalar operand adds, subtracts and multiplies by its own operators
        if isinstance(other, ParamScalar):
            return NotImplemented
        return _poly(_acc(dict(self.terms), ParamPoly.coerce(other).terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, ParamScalar):
            return NotImplemented
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other):
        return ParamPoly.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, ParamScalar):
            return NotImplemented
        return _poly(_mul_terms(self.terms, ParamPoly.coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("ParamPoly has no inverse: negative power %d" % k)
        return _power(self, k, _POLY_ONE)

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            if not isinstance(other, _CONSTANTS):
                return NotImplemented
            other = ParamPoly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the coefficient it equals
        t = self.terms
        if not t:
            return hash(ZERO)
        if len(t) == 1 and (0, 0) in t:
            return hash(t[(0, 0)])
        return hash(frozenset(t.items()))

    def subs_lam(self, e, f):
        """Substitute lam := e*nu + f (e, f rationals)."""
        return self._affine_subs(ParamPoly({(0, 1): e, (0, 0): f}), NU)

    def shift(self, dlam, dnu):
        """Substitute lam := lam + dlam, nu := nu + dnu."""
        return self._affine_subs(LAM + dlam, NU + dnu)

    def _affine_subs(self, lam_img, nu_img):
        """Substitute lam := lam_img, nu := nu_img (affine polynomials).

        Each term c*lam^a*nu^b is expanded once against the powers of the
        two images, which are built once per call."""
        lam_pw, nu_pw = [_ONE_TERMS], [_ONE_TERMS]
        out = {}
        for (a, b), c in self.terms.items():
            while len(lam_pw) <= a:
                lam_pw.append(_mul_terms(lam_pw[-1], lam_img.terms))
            while len(nu_pw) <= b:
                nu_pw.append(_mul_terms(nu_pw[-1], nu_img.terms))
            for (a1, b1), c1 in lam_pw[a].items():
                c1 = c * c1
                for (a2, b2), c2 in nu_pw[b].items():
                    m = (a1 + a2, b1 + b2)
                    s = out.get(m)
                    out[m] = c1 * c2 if s is None else s + c1 * c2
        return _poly({m: c for m, c in out.items() if not c.is_zero()})

    def leading(self):
        """(monomial, coeff) for the grlex(lam > nu) leading term."""
        m = max(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[(a, b)]
            s = repr(c)
            if a:
                s += "*lam" + ("^%d" % a if a > 1 else "")
            if b:
                s += "*nu" + ("^%d" % b if b > 1 else "")
            parts.append(s)
        return " + ".join(parts)


# the constants a scalar is coerced from without parsing
_CONSTANTS = (GaussianRational, int, Fraction)
_ONE_TERMS = {(0, 0): ONE}


def _poly(t):
    """The ParamPoly with terms t, whose coefficients are nonzero
    GaussianRationals already; nothing is coerced or checked."""
    p = _new(ParamPoly)
    object.__setattr__(p, "terms", t)
    return p


def _mul_terms(s, t):
    """Product of two term dicts; zero coefficients dropped."""
    out = {}
    for (a1, b1), c1 in s.items():
        for (a2, b2), c2 in t.items():
            m = (a1 + a2, b1 + b2)
            x = out.get(m)
            x = c1 * c2 if x is None else x + c1 * c2
            if x.is_zero():
                del out[m]
            else:
                out[m] = x
    return out


def _scaled(p, c):
    """p * c for a nonzero GaussianRational c."""
    return _poly({m: x * c for m, x in p.terms.items()})


LAM = ParamPoly({(1, 0): ONE})
NU = ParamPoly({(0, 1): ONE})
_POLY_ONE = ParamPoly.const(1)


# -- polynomial gcd over Q(i), used to keep rational functions reduced -------

def _monic(p):
    """p scaled to a grlex-monic polynomial (p nonzero)."""
    _, lead = p.leading()
    return p if lead == ONE else _scaled(p, lead.inverse())


def _lead_coeff(p, v):
    """(degree, leading coefficient) of a nonzero p in the variable v
    (0: lam, 1: nu); the coefficient is a polynomial in the other one."""
    d = max(m[v] for m in p.terms)
    return d, _poly({(0, m[1]) if v == 0 else (m[0], 0): c
                     for m, c in p.terms.items() if m[v] == d})


def _lam_content(p):
    """The monic gcd in Q(i)[nu] of the lam-coefficients of a nonzero p."""
    rows = {}
    for (a, b), c in p.terms.items():
        rows.setdefault(a, {})[(0, b)] = c
    g = None
    for t in rows.values():
        g = _poly(t) if g is None else _gcd(g, _poly(t), 1)
        if g.total_degree() == 0:
            return _POLY_ONE
    return _monic(g)


def _split(p, v):
    """(content, primitive part) of a nonzero p in the variable v, both
    monic.  A polynomial in nu alone has content 1 over the field Q(i)."""
    c = _lam_content(p) if v == 0 else _POLY_ONE
    return c, _monic(p if c is _POLY_ONE else poly_divexact(p, c))


def _gcd(p, q, v):
    """The monic gcd of nonzero p, q that hold no variable before v: a
    primitive pseudo-remainder sequence in v (Brown and Traub, J. ACM 18(4),
    1971), whose contents in v come by recursion into nu."""
    if p.total_degree() == 0 or q.total_degree() == 0:
        return _POLY_ONE
    (cp, a), (cq, b) = _split(p, v), _split(q, v)
    c = _gcd(cp, cq, 1) if v == 0 else _POLY_ONE
    while True:
        db, lb = _lead_coeff(b, v)
        # the pseudo-remainder of a by b; it is a itself when a has the
        # lower degree, so the first pass may only swap the two
        while not a.is_zero():
            da, la = _lead_coeff(a, v)
            if da < db:
                break
            x = _poly({(da - db, 0) if v == 0 else (0, da - db): ONE})
            a = a * lb - b * (la * x)
        if a.is_zero():
            return b * c
        a, b = b, _split(a, v)[1]


def poly_gcd(p, q):
    """gcd in Q(i)[lam, nu], normalized to grlex-monic; gcd(0,0) = 0.  The
    main variable is lam if either input holds it, else nu."""
    if p.is_zero() or q.is_zero():
        g = q if p.is_zero() else p
        return g if g.is_zero() else _monic(g)
    has_lam = any(a for a, _ in p.terms) or any(a for a, _ in q.terms)
    return _gcd(p, q, 0 if has_lam else 1)


def poly_divexact(p, d):
    """Exact division in Q(i)[lam, nu] by grlex leading terms; raises
    ArithmeticError if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    (da, db), lead = d.leading()
    inv = lead.inverse()
    rem, quo = dict(p.terms), {}
    while rem:
        a, b = max(rem, key=_grlex_key)
        if a < da or b < db:
            raise ArithmeticError("inexact polynomial division")
        m, c = (a - da, b - db), rem[(a, b)] * inv
        quo[m] = c
        _acc(rem, (((x + m[0], y + m[1]), -c * w) for (x, y), w in d.terms.items()))
    return _poly(quo)


# -- ParamScalar --------------------------------------------------------------

class AffineExp:
    """a*lam + b*nu + c with exact rational coefficients: a kernel exponent or
    the argument of a Gamma token.  Held as four ints, (a*lam + b*nu + c)/d
    with d > 0 and gcd(a, b, c, d) == 1 (GaussianRational's canonical form),
    so every operation works on ints.  The read-only `a`, `b`, `c` are the
    Fraction coefficients, and the form compares, orders and hashes as the
    tuple (a, b, c) of them."""

    __slots__ = ("_a", "_b", "_c", "_d", "_hash")

    def __init__(self, a=0, b=0, c=0):
        if type(a) is int and type(b) is int and type(c) is int:
            d = 1
        else:
            # over the lcm of reduced denominators the form is canonical
            (a, p), (b, q), (c, r) = _qparts(a), _qparts(b), _qparts(c)
            d = lcm(p, q, r)
            a, b, c = a * (d // p), b * (d // q), c * (d // r)
        _aff_init(self, a, b, c, d)

    a = property(lambda self: Fraction(self._a, self._d))
    b = property(lambda self: Fraction(self._b, self._d))
    c = property(lambda self: Fraction(self._c, self._d))

    @staticmethod
    def const(c):
        return AffineExp(0, 0, c)

    def _plus(self, other, sign):
        d = self._d
        if not isinstance(other, AffineExp):
            p, q = _qparts(other)
            return _aff(self._a * q, self._b * q, self._c * q + sign * p * d, d * q)
        f = other._d
        return _aff(self._a * f + sign * other._a * d, self._b * f + sign * other._b * d,
                    self._c * f + sign * other._c * d, d * f)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __eq__(self, other):
        return (isinstance(other, AffineExp) and self._a == other._a
                and self._b == other._b and self._c == other._c and self._d == other._d)

    def __lt__(self, other):
        # both denominators are positive: cross-multiplied, the order is
        # that of the Fraction triples
        d, f = self._d, other._d
        return ((self._a * f, self._b * f, self._c * f)
                < (other._a * d, other._b * d, other._c * d))

    def __hash__(self):
        return self._hash

    def is_const(self):
        return not self._a and not self._b

    def split(self):
        """(rep, m): the class representative rep, whose constant term lies
        in [0, 1), and the integer m with self = rep + m."""
        m = self._c // self._d
        return (_aff(self._a, self._b, self._c - m * self._d, self._d) if m else self), m

    def subs_lam(self, e, f):
        """Substitute lam := e*nu + f."""
        (p, q), (r, t) = _qparts(e), _qparts(f)
        a = self._a
        return _aff(0, (self._b * q + a * p) * t, (self._c * t + a * r) * q, self._d * q * t)

    def shift(self, dl, dv):
        """Substitute lam := lam + dl, nu := nu + dv."""
        (p, q), (r, t) = _qparts(dl), _qparts(dv)
        a, b = self._a, self._b
        return _aff(a * q * t, b * q * t, (self._c * q + a * p) * t + b * r * q,
                    self._d * q * t)

    def _poly(self):
        """The ParamPoly a*lam + b*nu + c, built from the parts."""
        d = self._d
        return _poly({m: _gr(x, 0, d) for m, x in
                      (((1, 0), self._a), ((0, 1), self._b), ((0, 0), self._c)) if x})

    def as_scalar(self):
        # a polynomial over 1 is canonical as it stands
        return _ps(self._poly(), _POLY_ONE, ())

    def sort_key(self):
        return (str(self.a), str(self.b), str(self.c))

    def __repr__(self):
        return "(%s*lam+%s*nu+%s)" % (self.a, self.b, self.c)


def _aff_init(x, a, b, c, d):
    x._a, x._b, x._c, x._d = a, b, c, d
    # exponents and Gamma arguments are dict keys: hash once, from the ints
    x._hash = hash((a, b, c)) if d == 1 else hash(_qhashes(d, a, b, c))
    return x


def _aff(a, b, c, d):
    """The canonical AffineExp (a*lam + b*nu + c)/d, for ints with d > 0."""
    if d != 1:
        g = gcd(a, b, c, d)
        if g != 1:
            a, b, c, d = a // g, b // g, c // g, d // g
    return _aff_init(_new(AffineExp), a, b, c, d)


class ParamScalar:
    """Rational function in (lam, nu) over Q(i) times a product of Gamma tokens.

    gammas is a sorted tuple of (AffineExp, exponent) pairs, each argument
    the class representative of AffineExp.split.  A raw (a, b, c) triple
    given to the constructor is taken as AffineExp(a, b, c).  The form is
    canonical (den grlex-monic and coprime to num, zero as 0 over 1 with no
    Gamma tokens), so equality and hashing compare the parts.
    """

    __slots__ = ("num", "den", "gammas")

    def __init__(self, num, den=None, gammas=()):
        num = ParamPoly.coerce(num)
        den = _POLY_ONE if den is None else ParamPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("ParamScalar with zero denominator")
        num, den, gammas = self._normalize(num, den, gammas)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "gammas", gammas)

    def __setattr__(self, *a):
        raise AttributeError("ParamScalar is immutable")

    @staticmethod
    def _normalize(num, den, gammas):
        net = {}
        for arg, e in gammas:
            if e == 0:
                continue
            if arg.__class__ is not AffineExp:
                arg = AffineExp(*arg)
            if arg.is_const() and arg._d == 1:
                # Gamma at an integer: reduce to a factorial or a pole
                m = arg._c
                if m <= 0:
                    raise PoleError("Gamma token at non-positive integer %d" % m)
                f = GaussianRational(factorial(m - 1)) ** abs(e)
                if e > 0:
                    num = num * ParamPoly.const(f)
                else:
                    den = den * ParamPoly.const(f)
                continue
            key, m = arg.split()
            if m:
                # Gamma(z0 + m) = (z0)_m Gamma(z0) for m > 0, and
                # Gamma(z0 + m) = Gamma(z0) / ((z0 + m) ... (z0 - 1)) for m < 0
                z0 = key._poly()
                fac = _POLY_ONE
                for t in range(min(m, 0), max(m, 0)):
                    fac = fac * (z0 + t)
                if fac.is_zero():
                    raise PoleError("Gamma shift through a pole")
                p = e if m > 0 else -e
                if p > 0:
                    num = num * fac ** p
                else:
                    den = den * fac ** -p
            net[key] = net.get(key, 0) + e
        if num.is_zero():
            return ParamPoly(), _POLY_ONE, ()
        gammas = tuple(sorted((k, e) for k, e in net.items() if e != 0))
        # gcd reduction is only needed when both sides genuinely involve the
        # parameters; constant denominators cover most arithmetic
        if num.total_degree() > 0 and den.total_degree() > 0:
            g = poly_gcd(num, den)
            if not g.is_zero() and g.total_degree() > 0:
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
        _, lead = den.leading()
        if lead != ONE:
            inv = lead.inverse()
            num, den = _scaled(num, inv), _scaled(den, inv)
        return num, den, gammas

    def _den_is_one(self):
        # den is monic, so a constant den is 1
        t = self.den.terms
        return len(t) == 1 and (0, 0) in t

    def _constant(self):
        """The value of a Gamma-free constant, else None."""
        t = self.num.terms
        if len(t) == 1 and not self.gammas and self._den_is_one():
            return t.get((0, 0))
        return None

    # construction helpers
    @staticmethod
    def coerce(x):
        if isinstance(x, ParamScalar):
            return x
        # a polynomial over 1 is canonical as it stands
        return _ps(ParamPoly.coerce(x), _POLY_ONE, ())

    @staticmethod
    def gamma_factor(a, b, c, power=1):
        """Gamma(a*lam + b*nu + c) ** power as a ParamScalar."""
        return ParamScalar(_POLY_ONE, None, ((AffineExp(a, b, c), power),))

    def is_zero(self):
        return self.num.is_zero()

    def has_gammas(self):
        return bool(self.gammas)

    def __add__(self, other):
        o = ParamScalar.coerce(other)
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.gammas != o.gammas:
            raise ValueError("cannot add scalars with different Gamma content")
        if self._den_is_one() and o._den_is_one():
            num = self.num + o.num
            return PS_ZERO if num.is_zero() else _ps(num, self.den, self.gammas)
        return ParamScalar(self.num * o.den + o.num * self.den,
                           self.den * o.den, self.gammas)

    __radd__ = __add__

    def __neg__(self):
        return _ps(-self.num, self.den, self.gammas)

    def __sub__(self, other):
        return self + (-ParamScalar.coerce(other))

    def __rsub__(self, other):
        return ParamScalar.coerce(other) - self

    def __mul__(self, other):
        o = ParamScalar.coerce(other)
        # a Gamma-free constant factor scales the numerator and nothing else
        for x, y in ((o, self), (self, o)):
            c = x._constant()
            if c is not None:
                return y if c == ONE else _ps(_scaled(y.num, c), y.den, y.gammas)
        g = dict(self.gammas)
        for k, e in o.gammas:
            g[k] = g.get(k, 0) + e
        return ParamScalar(self.num * o.num, self.den * o.den,
                           tuple(g.items()))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero ParamScalar")
        return ParamScalar(self.den, self.num,
                           tuple((k, -e) for k, e in self.gammas))

    def __truediv__(self, other):
        return self * ParamScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ParamScalar.coerce(other) * self.inverse()

    def __eq__(self, o):
        if not isinstance(o, ParamScalar):
            if not isinstance(o, (ParamPoly,) + _CONSTANTS):
                return NotImplemented
            o = ParamScalar.coerce(o)
        return (self.num.terms == o.num.terms and self.den.terms == o.den.terms
                and self.gammas == o.gammas)

    def __hash__(self):
        # den is monic, so a Gamma-free scalar with constant den equals num
        if not self.gammas and self.den.total_degree() == 0:
            return hash(self.num)
        return hash((self.num, self.den, self.gammas))

    def subs_lam(self, e, f):
        """Substitute lam := e*nu + f."""
        g = tuple((arg.subs_lam(e, f), p) for arg, p in self.gammas)
        return ParamScalar(self.num.subs_lam(e, f), self.den.subs_lam(e, f), g)

    def shift(self, dlam, dnu):
        """Substitute lam := lam + dlam, nu := nu + dnu."""
        g = tuple((arg.shift(dlam, dnu), p) for arg, p in self.gammas)
        return ParamScalar(self.num.shift(dlam, dnu), self.den.shift(dlam, dnu), g)

    def __repr__(self):
        s = "(%s)" % self.num
        if self.den != ParamPoly.const(1):
            s += "/(%s)" % self.den
        for arg, e in self.gammas:
            s += "*Gamma%r^%d" % (arg, e)
        return s


def _ps(num, den, gammas):
    """The ParamScalar with parts that are canonical already: den monic and
    coprime to num, gammas merged and sorted.  Nothing is normalised."""
    s = _new(ParamScalar)
    object.__setattr__(s, "num", num)
    object.__setattr__(s, "den", den)
    object.__setattr__(s, "gammas", gammas)
    return s


def _ps_times_i_power(k, s):
    """i**k * s: each numerator coefficient goes through _times_i_power."""
    if k == 0:
        return s
    return _ps(_poly({m: _times_i_power(k, c) for m, c in s.num.terms.items()}),
               s.den, s.gammas)


def _ps_times_int(s, k):
    """k * s for a nonzero int k: each numerator coefficient is scaled on
    its parts, so no constant scalar is built or multiplied."""
    return _ps(_poly({m: _gr(c._a * k, c._b * k, c._d) for m, c in s.num.terms.items()}),
               s.den, s.gammas)


PS_ONE = ParamScalar.coerce(1)
PS_ZERO = ParamScalar.coerce(0)
PS_LAM = ParamScalar(LAM)
PS_NU = ParamScalar(NU)
PS_I = ParamScalar.coerce(I)


def pochhammer(x, n):
    """Rising factorial x(x+1)...(x+n-1); equals 1 for n = 0."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    x = ParamScalar.coerce(x)
    out = PS_ONE
    for t in range(n):
        out = out * (x + ParamScalar.coerce(t))
    return out


def evaluate(s, lam0, nu0):
    """Exact value of s at (lam0, nu0): the affine substitution at constant
    images, read at the monomial 1.  Gamma tokens must already be gone."""
    s = ParamScalar.coerce(s)
    if s.has_gammas():
        raise GammaResidual("unreduced Gamma tokens remain: %r" % (s.gammas,))
    lam0 = GaussianRational.coerce(lam0)
    nu0 = GaussianRational.coerce(nu0)
    point = ParamPoly.const(lam0), ParamPoly.const(nu0)
    d = s.den._affine_subs(*point).terms.get((0, 0), ZERO)
    if d.is_zero():
        raise PoleError("denominator vanishes at (%r, %r)" % (lam0, nu0))
    return s.num._affine_subs(*point).terms.get((0, 0), ZERO) / d
