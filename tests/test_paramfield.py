import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from sbolab.paramfield import (AffineExp, GaussianRational, ParamPoly, ParamScalar,
                               pochhammer, evaluate,
                               PoleError, GammaResidual, poly_gcd, poly_divexact,
                               PS_LAM, PS_NU, PS_ONE, PS_ZERO, ONE, ZERO, I, LAM, rat,
                               _times_i_power, _acc, _ps_times_i_power, _gr)
from sbolab.cliffspin import SpinMap, _matmul


def rebuilt(s):
    """s rebuilt from its parts; normalization runs on construction."""
    return ParamScalar(s.num, s.den, s.gammas)


def gr(a, b=0):
    return GaussianRational(a, b)


def affine(a, b, c):
    """The polynomial a*lam + b*nu + c."""
    return ParamPoly({(1, 0): a, (0, 1): b, (0, 0): c})


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
gaussians = st.builds(GaussianRational, rationals, rationals)


class ReferenceGaussian:
    """Q(sqrt(-1)) as a pair of Fractions: the scalar oracle."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return ReferenceGaussian(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return ReferenceGaussian(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return ReferenceGaussian(-self.re, -self.im)

    def __mul__(self, o):
        return ReferenceGaussian(self.re * o.re - self.im * o.im,
                                 self.re * o.im + self.im * o.re)

    def conjugate(self):
        return ReferenceGaussian(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        return ReferenceGaussian(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = ReferenceGaussian(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        return "(%s%s%s*i)" % (self.re, "+" if self.im > 0 else "-", abs(self.im))


# parts from ints, small and mixed denominators, and zero
parts = st.one_of(st.integers(-30, 30), st.just(0),
                  st.fractions(min_value=-9, max_value=9, max_denominator=12))
pairs = st.tuples(parts, parts)


def agrees(x, ref):
    """x is canonical and equals the reference value, repr included."""
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert repr(x) == repr(ref)
    return True


class TestAgainstReference:
    @given(pairs, pairs, st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    def test_every_operation(self, p, q, k):
        x, y = GaussianRational(*p), GaussianRational(*q)
        rx, ry = ReferenceGaussian(*p), ReferenceGaussian(*q)
        assert agrees(x, rx) and agrees(y, ry)
        assert agrees(x + y, rx + ry)
        assert agrees(x - y, rx - ry)
        assert agrees(x * y, rx * ry)
        assert agrees(-x, -rx)
        assert agrees(x.conjugate(), rx.conjugate())
        assert x.norm2() == rx.norm2()
        assert (x == y) == (rx == ry)
        if not y.is_zero():
            assert agrees(x / y, rx / ry)
            assert agrees(y.inverse(), ry.inverse())
        if not x.is_zero() or k >= 0:
            assert agrees(x ** k, rx ** k)

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_times_i_power(self, p):
        # built without a gcd: swapping and negating parts stays canonical
        x, rx = GaussianRational(*p), ReferenceGaussian(*p)
        for k in range(4):
            assert agrees(_times_i_power(k, x), ReferenceGaussian(0, 1) ** k * rx)
            assert _times_i_power(k, x) == I ** k * x

    @given(pairs, st.one_of(st.integers(-30, 30),
                            st.fractions(min_value=-9, max_value=9,
                                         max_denominator=12)))
    @settings(max_examples=200, deadline=None)
    def test_mixed_with_plain_rationals(self, p, q):
        x, rx, rq = GaussianRational(*p), ReferenceGaussian(*p), ReferenceGaussian(q)
        assert agrees(x + q, rx + rq) and agrees(q + x, rx + rq)
        assert agrees(x - q, rx - rq) and agrees(q - x, rq - rx)
        assert agrees(x * q, rx * rq) and agrees(q * x, rx * rq)
        if q != 0:
            assert agrees(x / q, rx / rq)
        if not x.is_zero():
            assert agrees(q / x, rq / rx)

    def test_construction(self):
        assert agrees(GaussianRational("6/4", "-2/8"), ReferenceGaussian("3/2", "-1/4"))
        assert agrees(GaussianRational(Fraction(4, 6)), ReferenceGaussian("2/3"))
        assert agrees(GaussianRational(gr(1, 2), gr(0, 1)), ReferenceGaussian(0, 2))
        assert agrees(ZERO, ReferenceGaussian())
        with pytest.raises(TypeError):
            GaussianRational(0.5)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / 0


class TestHashAgreesWithEquality:
    """A scalar equal to an int or a Fraction hashes like it, so the two
    are one element of a set."""

    @given(st.one_of(st.integers(-50, 50),
                     st.fractions(min_value=-9, max_value=9, max_denominator=12)))
    @settings(max_examples=100, deadline=None)
    def test_equal_values_hash_alike(self, q):
        for x in (GaussianRational(q), ParamPoly.const(q), ParamScalar.coerce(q)):
            assert x == q
            assert hash(x) == hash(q)
            assert len({x, q}) == 1
        assert len({GaussianRational(q), ParamPoly.const(q),
                    ParamScalar.coerce(q)}) == 1

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_gaussian_scalar_poly_hash_alike(self, p):
        x = GaussianRational(*p)
        assert hash(ParamPoly.const(x)) == hash(x)
        assert hash(ParamScalar.coerce(x)) == hash(x)

    def test_nonconstant_values_still_hash(self):
        s = ParamScalar(affine(1, 0, 2), affine(0, 1, 1))
        assert len({s, ParamScalar(affine(2, 0, 4),
                                   affine(0, 2, 2))}) == 1
        assert len({PS_LAM, LAM}) == 1


class TestGaussianRational:
    def test_i_squared(self):
        assert I * I == gr(-1)

    def test_inverse(self):
        x = gr("3/4", "-2/5")
        assert x * x.inverse() == ONE

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == ONE


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(PS_LAM, 0) == PS_ONE

    def test_formal(self):
        # (lam)_3 = lam(lam+1)(lam+2) = lam^3 + 3 lam^2 + 2 lam
        p = pochhammer(PS_LAM, 3)
        want = ParamScalar(ParamPoly({(3, 0): 1, (2, 0): 3, (1, 0): 2}))
        assert p == want

    def test_at_negative_integer(self):
        assert pochhammer(ParamScalar.coerce(-2), 3).is_zero()

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=5),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_literal_product(self, q, k):
        lhs = evaluate(pochhammer(PS_LAM, k), q, 0)
        rhs = ONE
        for t in range(k):
            rhs = rhs * (gr(q) + gr(t))
        assert lhs == rhs


class TestEvaluate:
    def test_direct_substitution(self):
        s = ParamScalar(affine(1, -1, 0), affine(1, 1, 0))
        assert evaluate(s, 3, 1) == gr("1/2")

    def test_imaginary_point(self):
        s = ParamScalar(ParamPoly({(2, 0): 1}))
        assert evaluate(s, I, 0) == gr(-1)

    def test_pole(self):
        s = ParamScalar(ParamPoly.const(1), affine(1, -1, 0))
        with pytest.raises(PoleError):
            evaluate(s, 1, 1)

    def test_gamma_residual(self):
        with pytest.raises(GammaResidual):
            evaluate(ParamScalar.gamma_factor(0, 1, 0), 1, 1)


class TestGammaNormalize:
    def test_one_step_functional_equation(self):
        # Gamma(z+1)/Gamma(z) = z with z = (lam-nu)/2 + 1/4
        s = ParamScalar.gamma_factor("1/2", "-1/2", "5/4") * \
            ParamScalar.gamma_factor("1/2", "-1/2", "1/4", -1)
        assert s == ParamScalar(affine("1/2", "-1/2", "1/4"))

    def test_cancellation(self):
        s = ParamScalar.gamma_factor(0, 1, "1/3") * \
            ParamScalar.gamma_factor(0, 1, "1/3", -1)
        assert s == PS_ONE

    def test_two_step_shift(self):
        # Gamma(z+2)/Gamma(z) = z(z+1) with z = (lam-nu)/2 - 1/4
        s = ParamScalar.gamma_factor("1/2", "-1/2", "7/4") * \
            ParamScalar.gamma_factor("1/2", "-1/2", "-1/4", -1)
        z = ParamScalar(affine("1/2", "-1/2", "-1/4"))
        assert s == z * (z + PS_ONE)

    def test_idempotent(self):
        s = ParamScalar.gamma_factor(0, 1, "5/2") * \
            ParamScalar.gamma_factor(0, 1, "1/2", -1)
        assert rebuilt(s) == s
        assert s == ParamScalar(affine(0, 1, "1/2") *
                                affine(0, 1, "3/2"))

    def test_commutes_with_multiplication(self):
        a = ParamScalar.gamma_factor("1/2", "1/2", "9/4")
        b = ParamScalar.gamma_factor("1/2", "1/2", "1/4", -1)
        assert rebuilt(a * b) == rebuilt(rebuilt(a) * rebuilt(b))

    def test_integer_gamma_becomes_factorial(self):
        s = ParamScalar.gamma_factor(0, 0, 4)
        assert s == ParamScalar.coerce(6)

    def test_gamma_pole_raises(self):
        with pytest.raises(PoleError):
            ParamScalar.gamma_factor(0, 0, -1)


polys = st.builds(
    lambda d: ParamPoly({k: v for k, v in d.items()}),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    st.integers(-4, 4), max_size=3))


class TestRationalFunctions:
    @given(polys, polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_field_identities(self, p, q, r):
        a = ParamScalar(p + ParamPoly.const(1))
        b = ParamScalar(q + affine(1, 0, 0))
        c = ParamScalar(r + affine(0, 1, 2))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        if not a.is_zero():
            assert a / a == PS_ONE

    @given(polys, polys)
    @example(ParamPoly(), affine(-1, 1, 0))  # q cancels the shift
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides(self, p, q):
        p = p + affine(1, 1, 1)
        q = q + affine(1, -1, 0)
        # the drawn q can cancel the shift, and 0 is no denominator
        assume(not q.is_zero())
        g = poly_gcd(p * q, q)
        # g divides both, and q is a common divisor, so g is q up to a unit
        poly_divexact(p * q, g)
        assert poly_divexact(q, g).total_degree() == 0
        s = ParamScalar(p * q, q)
        assert s == ParamScalar(p)

    def test_reduction(self):
        common = affine(1, 1, 0)
        s = ParamScalar(common * affine(1, -1, "1/2"),
                        common * affine(0, 1, 2))
        assert s == ParamScalar(affine(1, -1, "1/2"),
                                affine(0, 1, 2))

    def test_add_requires_same_gamma_content(self):
        a = ParamScalar.gamma_factor(0, 1, "1/2")
        with pytest.raises(ValueError):
            a + PS_ONE

    def test_substitutions(self):
        s = ParamScalar(affine(1, 1, 0))
        assert s.subs_lam(-1, "-1/2") == ParamScalar.coerce("-1/2")
        assert s.shift(1, 0) == s + PS_ONE


def _to_sympy(p, lam, nu):
    def coeff(c):
        return (sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
    expr = sum((coeff(c) * lam ** a * nu ** b for (a, b), c in p.terms.items()),
               sympy.Integer(0))
    return sympy.Poly(expr, lam, nu, domain=sympy.QQ_I)


small_gaussians = st.builds(GaussianRational,
                            st.fractions(min_value=-3, max_value=3, max_denominator=3),
                            st.integers(-2, 2))
small_polys = st.builds(ParamPoly, st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), small_gaussians, max_size=3))


class TestGcdAgainstSympy:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_poly_gcd_matches_sympy_over_gaussian_rationals(self, f, g, h):
        lam, nu = sympy.symbols("lam nu")
        p, q = f * g, f * h
        got = poly_gcd(p, q)
        want = sympy.gcd(_to_sympy(p, lam, nu), _to_sympy(q, lam, nu))
        if want.is_zero:
            assert got.is_zero()
            return
        # both are monic up to a unit; ours is grlex-monic with lam > nu
        _, lead = got.leading()
        assert lead == ONE
        assert _to_sympy(got, lam, nu).monic() == want.monic()


# -- poly_gcd and poly_divexact against the dense route they replaced ---------

def _upoly_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _upoly_divmod(a, b):
    """Exact division with remainder of univariate coefficient lists."""
    a = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    while len(a) >= len(b) and a:
        if a[-1].is_zero():
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] = a[i + k] - c * bc
        _upoly_trim(a)
    return q, a


def _upoly_gcd(a, b):
    a = _upoly_trim(list(a))
    b = _upoly_trim(list(b))
    while b:
        _, r = _upoly_divmod(a, b)
        a, b = b, _upoly_trim(r)
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _to_ucoeffs(p):
    """ParamPoly -> list over lam-degree of univariate-in-nu coefficient lists."""
    dl = max((a for a, _ in p.terms), default=0)
    out = [[] for _ in range(dl + 1)]
    for (a, b), c in p.terms.items():
        row = out[a]
        while len(row) <= b:
            row.append(ZERO)
        row[b] = c
    return [_upoly_trim(r) for r in out]


def _from_ucoeffs(rows):
    return ParamPoly({(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row)})


def _umul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _upoly_trim(out)


def _content(rows):
    g = []
    for r in rows:
        if r:
            g = _upoly_gcd(g, r)
    return g or [ONE]


def _rows_divexact(rows, d):
    out = []
    for r in rows:
        if not r:
            out.append([])
            continue
        q, rem = _upoly_divmod(r, d)
        if rem:
            raise ArithmeticError("inexact content division")
        out.append(_upoly_trim(q))
    return out


def reference_poly_gcd(p, q):
    """gcd over lists in lam of lists in nu, with an uncontrolled
    pseudo-remainder loop: the route poly_gcd replaced."""
    if p.is_zero():
        g = q
    elif q.is_zero():
        g = p
    else:
        a = _to_ucoeffs(p)
        b = _to_ucoeffs(q)
        ca, cb = _content(a), _content(b)
        a = _rows_divexact(a, ca)
        b = _rows_divexact(b, cb)
        while True:
            b = [_upoly_trim(r) for r in b]
            while b and not b[-1]:
                b.pop()
            if not b:
                break
            if len(a) < len(b):
                a, b = b, a
                continue
            # pseudo-remainder of a by b in (Q(i)[nu])[lam]
            lead = b[-1]
            r = [list(row) for row in a]
            while len(r) >= len(b) and any(r[-1] if r else []):
                k = len(r) - len(b)
                top = r[-1]
                r = [_umul(row, lead) for row in r]
                for i, brow in enumerate(b):
                    sub = _umul(brow, top)
                    row = r[i + k]
                    for d, c in enumerate(sub):
                        while len(row) <= d:
                            row.append(ZERO)
                        row[d] = row[d] - c
                    r[i + k] = _upoly_trim(row)
                while r and not r[-1]:
                    r.pop()
            a, b = b, r
            if b:
                cb2 = _content(b)
                b = _rows_divexact(b, cb2)
        g = _from_ucoeffs(a) * _from_ucoeffs([_upoly_gcd(ca, cb)])
    if g.is_zero():
        return g
    _, lead = g.leading()
    return g * ParamPoly.const(lead.inverse())


def reference_poly_divexact(p, d):
    """Exact division row by row in lam: the route poly_divexact replaced."""
    if p.is_zero():
        return p
    rows_p = _to_ucoeffs(p)
    rows_d = _to_ucoeffs(d)
    out = [[] for _ in range(len(rows_p) - len(rows_d) + 1)]
    lead = rows_d[-1]
    while True:
        rows_p = [_upoly_trim(r) for r in rows_p]
        while rows_p and not rows_p[-1]:
            rows_p.pop()
        if not rows_p:
            break
        if len(rows_p) < len(rows_d):
            raise ArithmeticError("inexact polynomial division")
        k = len(rows_p) - len(rows_d)
        q, rem = _upoly_divmod(rows_p[-1], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        for i, drow in enumerate(rows_d):
            sub = _umul(drow, q)
            row = rows_p[i + k]
            for dg, c in enumerate(sub):
                while len(row) <= dg:
                    row.append(ZERO)
                row[dg] = row[dg] - c
            rows_p[i + k] = row
    return _from_ucoeffs(out)


def dense_poly(rng, deg):
    """Every monomial of total degree <= deg, Gaussian-integer coefficients."""
    return ParamPoly({(a, b): GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                      for a in range(deg + 1) for b in range(deg + 1 - a)})


degree4_polys = st.builds(ParamPoly, st.dictionaries(
    st.sampled_from([(a, b) for a in range(5) for b in range(5 - a)]),
    small_gaussians, max_size=4))


class TestGcdAgainstReference:
    """The term-dict gcd and division give exactly the dense route's results."""

    @given(degree4_polys, degree4_polys, degree4_polys)
    @settings(max_examples=60, deadline=None)
    def test_gcd_quotients_and_normal_form(self, p, q, c):
        p, q = p * c, q * c
        g = poly_gcd(p, q)
        assert g == reference_poly_gcd(p, q)
        if g.is_zero():
            return
        num, den = reference_poly_divexact(p, g), reference_poly_divexact(q, g)
        assert poly_divexact(p, g) == num
        assert poly_divexact(q, g) == den
        if q.is_zero():
            return
        inv = ParamPoly.const(den.leading()[1].inverse())
        s = ParamScalar(p, q)
        assert (s.num, s.den) == (num * inv, den * inv)

    @pytest.mark.parametrize("degree,common", [(7, 2), (8, 3)])
    def test_dense_bivariate_common_factor(self, degree, common):
        rng = random.Random(5)
        c = dense_poly(rng, common)
        p, q = dense_poly(rng, degree - common) * c, dense_poly(rng, degree - common) * c
        assert poly_gcd(p, q) == c * ParamPoly.const(c.leading()[1].inverse())

    def test_division_by_zero(self):
        for p in (LAM + 1, ParamPoly()):
            with pytest.raises(ZeroDivisionError):
                poly_divexact(p, ParamPoly())

    def test_inexact_division(self):
        with pytest.raises(ArithmeticError):
            poly_divexact(LAM * LAM + 1, LAM + 1)

    def test_negative_power(self):
        assert (LAM + 1) ** 0 == 1
        with pytest.raises(ValueError):
            (LAM + 1) ** -1


# -- the fast paths against the routes they replaced ---------------------------

def reference_subs_lam(p, e, f):
    """lam := e*nu + f with one `lin ** a` product per term: the old route."""
    lin = ParamPoly({(0, 1): e, (0, 0): f})
    out = ParamPoly()
    for (a, b), c in p.terms.items():
        out = out + (lin ** a) * ParamPoly({(0, b): c})
    return out


def reference_shift(p, dlam, dnu):
    """(lam, nu) := (lam + dlam, nu + dnu) term by term: the old route."""
    lam = ParamPoly({(1, 0): ONE, (0, 0): GaussianRational.coerce(dlam)})
    nu = ParamPoly({(0, 1): ONE, (0, 0): GaussianRational.coerce(dnu)})
    out = ParamPoly()
    for (a, b), c in p.terms.items():
        out = out + (lam ** a) * (nu ** b) * ParamPoly.const(c)
    return out


def reference_eval(p, lam0, nu0):
    """p at (lam0, nu0) with one power product per term: the old route."""
    lam0, nu0 = GaussianRational.coerce(lam0), GaussianRational.coerce(nu0)
    out = ZERO
    for (a, b), c in p.terms.items():
        out = out + c * (lam0 ** a) * (nu0 ** b)
    return out


def parts_of(s):
    return s.num.terms, s.den.terms, s.gammas


def canonical(s):
    """s has exactly the parts that a full normalisation of them gives."""
    return parts_of(rebuilt(s)) == parts_of(s)


subs_polys = st.builds(ParamPoly, st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)), small_gaussians, max_size=5))
gamma_contents = st.sampled_from([
    (),
    ((("1/2", "1/2", "1/4"), -1),),
    ((("0", "1", "5/2"), 1),),
    ((("1/2", "-1/2", "-3/4"), 1), (("1", "0", "1/3"), -1))])
# denominators up to degree 2 in each parameter, and substitution values
# that keep the Gamma shifts small: a shift by a Gamma token multiplies in
# one affine factor per unit step
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)
quadratic_polys = st.builds(ParamPoly, st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_gaussians, max_size=4))


@st.composite
def scalars(draw):
    """Constants, units i^k, integers and quotients of polynomials, with or
    without Gamma tokens."""
    kind = draw(st.sampled_from(["const", "unit", "int", "ratio"]))
    if kind == "const":
        s = ParamScalar.coerce(draw(small_gaussians))
    elif kind == "unit":
        s = ParamScalar.coerce(I ** draw(st.integers(0, 3)))
    elif kind == "int":
        s = ParamScalar.coerce(draw(st.integers(-6, 6)))
    else:
        num, den = draw(quadratic_polys), draw(quadratic_polys)
        s = ParamScalar(num, affine(0, 1, 1) if den.is_zero() else den)
    g = draw(gamma_contents)
    return s * ParamScalar(1, None, g) if g else s


class TestFastPaths:
    """Every result is canonical and equals the full normalisation of the
    operands' parts; the substitutions equal the per-term power route."""

    @given(subs_polys, small_gaussians, small_gaussians)
    @settings(max_examples=150, deadline=None)
    def test_affine_substitution_matches_reference(self, p, e, f):
        assert p.subs_lam(e, f) == reference_subs_lam(p, e, f)
        assert p.shift(e, f) == reference_shift(p, e, f)

    @given(scalars(), small_gaussians, small_gaussians, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_matches_reference(self, s, lam0, nu0, pole):
        s = ParamScalar(s.num, s.den)   # evaluation needs a Gamma-free scalar
        if pole:
            # a denominator that vanishes at the point, unless the factor
            # cancels against the numerator
            s = s / ParamScalar(affine(1, 0, -lam0) * affine(0, 1, -nu0))
        d = reference_eval(s.den, lam0, nu0)
        if d.is_zero():
            with pytest.raises(PoleError, match=re.escape("(%r, %r)" % (lam0, nu0))):
                evaluate(s, lam0, nu0)
        else:
            assert evaluate(s, lam0, nu0) == reference_eval(s.num, lam0, nu0) / d

    @given(scalars(), scalars())
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_is_canonical(self, x, y):
        y = ParamScalar(y.num, y.den, x.gammas)   # + needs equal Gamma content
        want = {
            "+": ParamScalar(x.num * y.den + y.num * x.den, x.den * y.den, x.gammas),
            "-": ParamScalar(x.num * y.den - y.num * x.den, x.den * y.den, x.gammas),
            "*": ParamScalar(x.num * y.num, x.den * y.den, x.gammas + y.gammas),
            "neg": ParamScalar(-x.num, x.den, x.gammas)}
        got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
        for op, r in got.items():
            assert canonical(r), op
            assert parts_of(r) == parts_of(want[op]), op
        assert parts_of(y * x) == parts_of(want["*"])

    @given(scalars(), small_rationals, small_rationals)
    @settings(max_examples=100, deadline=None)
    def test_substitutions_are_canonical(self, x, e, f):
        for method in ("subs_lam", "shift"):
            try:
                r = getattr(x, method)(e, f)
            except (ZeroDivisionError, PoleError):
                continue
            assert canonical(r), method


def reference_gamma_subs_lam(s, e, f):
    """lam := e*nu + f, with each Gamma argument (a, b, c) sent to the raw
    triple (0, b + a*e, c + a*f): the formula ParamScalar used to repeat."""
    g = tuple(((0, x.b + x.a * e, x.c + x.a * f), p) for x, p in s.gammas)
    return ParamScalar(s.num.subs_lam(e, f), s.den.subs_lam(e, f), g)


def reference_gamma_shift(s, dl, dv):
    """(lam, nu) := (lam + dl, nu + dv), with each Gamma argument (a, b, c)
    sent to the raw triple (a, b, c + a*dl + b*dv)."""
    g = tuple(((x.a, x.b, x.c + x.a * dl + x.b * dv), p) for x, p in s.gammas)
    return ParamScalar(s.num.shift(dl, dv), s.den.shift(dl, dv), g)


affine_forms = st.builds(AffineExp, rationals, rationals, rationals)


class TestAffineExp:
    """One affine form for kernel exponents and Gamma arguments; it behaves
    as the (a, b, c) triple it replaced."""

    @given(scalars(), small_rationals, small_rationals)
    @settings(max_examples=100, deadline=None)
    def test_substitutions_match_triple_formulas(self, x, e, f):
        for method, reference in (("subs_lam", reference_gamma_subs_lam),
                                  ("shift", reference_gamma_shift)):
            try:
                want = reference(x, e, f)
            except (ZeroDivisionError, PoleError) as exc:
                with pytest.raises(type(exc)):
                    getattr(x, method)(e, f)
                continue
            assert parts_of(getattr(x, method)(e, f)) == parts_of(want), method

    @given(affine_forms)
    def test_split(self, x):
        rep, m = x.split()
        assert type(m) is int
        assert 0 <= rep.c < 1 and (rep.a, rep.b) == (x.a, x.b)
        assert rep + m == x
        assert rep.split() == (rep, 0)

    @given(affine_forms, affine_forms)
    def test_orders_and_hashes_as_its_triple(self, x, y):
        tx, ty = (x.a, x.b, x.c), (y.a, y.b, y.c)
        assert hash(x) == hash(tx)
        assert (x == y) == (tx == ty) and (x < y) == (tx < ty)

    def test_gamma_tokens(self):
        s = (ParamScalar.gamma_factor("1/2", 0, "7/3")
             * ParamScalar.gamma_factor(0, 1, "-1/2", -1)
             * ParamScalar.gamma_factor("1/2", "-1/2", 1))
        args = [x for x, _ in s.gammas]
        assert all(type(x) is AffineExp for x in args)
        assert [(x.a, x.b, x.c) for x in args] == sorted(
            [(0, 1, rat("1/2")), (rat("1/2"), rat("-1/2"), 0), (rat("1/2"), 0, rat("1/3"))])
        # a raw triple is coerced where it enters
        raw = ParamScalar(1, None, ((("1/2", 0, "7/3"), 2),))
        assert parts_of(raw) == parts_of(
            ParamScalar(1, None, ((AffineExp("1/2", 0, "7/3"), 2),)))
        g = ParamScalar.gamma_factor("1/2", 0, "7/3")
        assert parts_of(raw) == parts_of(g * g)


class ReferenceAffineExp:
    """AffineExp as the triple of Fractions it was before the ints over one
    denominator: the oracle of every affine-form operation."""

    def __init__(self, a=0, b=0, c=0):
        self.a, self.b, self.c = rat(a), rat(b), rat(c)

    def __add__(self, other):
        if not isinstance(other, ReferenceAffineExp):
            return ReferenceAffineExp(self.a, self.b, self.c + rat(other))
        return ReferenceAffineExp(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        if not isinstance(other, ReferenceAffineExp):
            return ReferenceAffineExp(self.a, self.b, self.c - rat(other))
        return ReferenceAffineExp(self.a - other.a, self.b - other.b, self.c - other.c)

    def __eq__(self, other):
        return (isinstance(other, ReferenceAffineExp)
                and (self.a, self.b, self.c) == (other.a, other.b, other.c))

    def __lt__(self, other):
        return (self.a, self.b, self.c) < (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def is_const(self):
        return self.a == 0 and self.b == 0

    def split(self):
        m = self.c.numerator // self.c.denominator
        return (ReferenceAffineExp(self.a, self.b, self.c - m) if m else self), m

    def subs_lam(self, e, f):
        return ReferenceAffineExp(0, self.b + self.a * rat(e), self.c + self.a * rat(f))

    def shift(self, dl, dv):
        return ReferenceAffineExp(self.a, self.b,
                                  self.c + self.a * rat(dl) + self.b * rat(dv))

    def as_scalar(self):
        return ParamScalar(affine(self.a, self.b, self.c))

    def sort_key(self):
        return (str(self.a), str(self.b), str(self.c))

    def __repr__(self):
        return "(%s*lam+%s*nu+%s)" % (self.a, self.b, self.c)


def same_affine(x, ref):
    """x is a canonical AffineExp with the coefficients, hash, repr, sort
    key and constancy of the reference form ref."""
    return (type(x) is AffineExp and x._d > 0 and gcd(x._a, x._b, x._c, x._d) == 1
            and all(type(v) is Fraction for v in (x.a, x.b, x.c))
            and (x.a, x.b, x.c) == (ref.a, ref.b, ref.c) and hash(x) == hash(ref)
            and repr(x) == repr(ref) and x.sort_key() == ref.sort_key()
            and x.is_const() == ref.is_const())


# a coefficient as an int, a Fraction or a str
affine_coeffs = st.one_of(st.integers(-6, 6), rationals, rationals.map(str))
affine_triples = st.tuples(affine_coeffs, affine_coeffs, affine_coeffs)


class TestAffineExpAgainstReference:
    """The ints over one denominator give every result of the Fraction
    triple, hash and order included."""

    @given(affine_triples, affine_triples, affine_coeffs,
           st.one_of(st.integers(-2, 2), small_rationals), small_rationals)
    @example((1, 0, "1/2"), ("1/2", 0, 0), "-1/2", 0, Fraction(1, 2))
    @settings(max_examples=300, deadline=None)
    def test_every_operation(self, s, t, k, e, f):
        (x, rx), (y, ry) = ((AffineExp(*u), ReferenceAffineExp(*u)) for u in (s, t))
        assert same_affine(x, rx) and same_affine(y, ry)
        assert same_affine(AffineExp.const(k), ReferenceAffineExp(0, 0, k))
        for op in ("__add__", "__sub__"):
            assert same_affine(getattr(x, op)(y), getattr(rx, op)(ry)), op
            assert same_affine(getattr(x, op)(k), getattr(rx, op)(k)), op
        for u, v, ru, rv in ((x, y, rx, ry), (y, x, ry, rx), (x, x, rx, rx)):
            assert (u == v) == (ru == rv) and (u != v) == (ru != rv)
            assert (u < v) == (ru < rv)
        assert x == x + y - y and hash(x + y - y) == hash(x)
        forms = [x, y, x + k, y - k, x + y, AffineExp(*s)]
        refs = [rx, ry, rx + k, ry - k, rx + ry, ReferenceAffineExp(*s)]
        assert [repr(z) for z in sorted(forms)] == [repr(z) for z in sorted(refs)]
        assert len(set(forms)) == len(set(refs))
        (rep, m), (rrep, rm) = x.split(), rx.split()
        assert same_affine(rep, rrep) and type(m) is int and m == rm
        for method in ("subs_lam", "shift"):
            assert same_affine(getattr(x, method)(e, f), getattr(rx, method)(e, f))
            assert same_affine(getattr(x, method)(f, e), getattr(rx, method)(f, e))
        assert parts_of(x.as_scalar()) == parts_of(rx.as_scalar())
        assert x != (x.a, x.b, x.c) and x != 0

    def test_denominator_without_modular_inverse(self):
        # hash() has no inverse of a multiple of its modulus: the Fraction
        # rule (a fixed value) applies
        big = Fraction(1, sys.hash_info.modulus)
        for u in ((0, 0, big), (big, 3 * big, 1), (2, 0, 5 * big)):
            assert same_affine(AffineExp(*u), ReferenceAffineExp(*u))
            assert hash(GaussianRational(u[2])) == hash(rat(u[2]))


def reference_eq(a, b):
    """The cross-multiplied test ParamScalar.__eq__ made before it compared
    the canonical parts."""
    return a.gammas == b.gammas and a.num * b.den == b.num * a.den


# Gamma arguments that are not constant, so no shift meets a pole
shift_tokens = st.sampled_from([("1/2", "1/2", "1/4"), ("0", "1", "1/3"),
                                ("1/2", "-1/2", "3/4"), ("1", "0", "0")])


def _power(s, e):
    out = PS_ONE
    for _ in range(abs(e)):
        out = out * s
    return out if e >= 0 else out.inverse()


@st.composite
def routed_pairs(draw):
    """(route, a, b): two scalars of one value built by different routes,
    one through a constructor normalisation and one through a fast path or
    another identity."""
    x, y = draw(scalars()), draw(scalars())
    route = draw(st.sampled_from([
        "gcd", "coerce", "add", "mul", "neg", "i_power", "inverse",
        "gamma_shift", "subs_lam", "shift"]))
    if route == "gcd":
        # the constructor cancels a common factor, constant or not
        g = draw(quadratic_polys)
        assume(not g.is_zero())
        return route, ParamScalar(x.num * g, x.den * g, x.gammas), x
    if route == "coerce":
        p, q = draw(quadratic_polys), draw(quadratic_polys)
        assume(not q.is_zero())
        c = draw(small_gaussians)
        return route, ParamScalar.coerce(p) + ParamScalar.coerce(c), \
            ParamScalar(p * q + ParamPoly.const(c) * q, q)
    if route == "add":
        y = ParamScalar(y.num, y.den, x.gammas)
        return route, x + y, ParamScalar(x.num * y.den + y.num * x.den,
                                         x.den * y.den, x.gammas)
    if route == "mul":
        return route, x * y, ParamScalar(x.num * y.num, x.den * y.den,
                                         x.gammas + y.gammas)
    if route == "neg":
        return route, -x, x * ParamScalar.coerce(-1)
    if route == "i_power":
        k = draw(st.integers(0, 3))
        return route, _ps_times_i_power(k, x), ParamScalar(x.num * I ** k, x.den,
                                                           x.gammas)
    if route == "inverse":
        assume(not x.is_zero())
        return route, x.inverse().inverse(), x
    if route == "gamma_shift":
        # Gamma(z + m) = (z)_m Gamma(z), Gamma(z - m) = Gamma(z) / (z - m)_m
        a, b, c = draw(shift_tokens)
        m, e = draw(st.integers(-2, 2)), draw(st.sampled_from([-2, -1, 1, 2]))
        z = AffineExp(a, b, c)
        fac = (pochhammer(z.as_scalar(), m) if m >= 0
               else pochhammer((z + m).as_scalar(), -m).inverse())
        shifted = ParamScalar(x.num, x.den, x.gammas + (((z + m), e),))
        return route, shifted, x * _power(ParamScalar.gamma_factor(a, b, c) * fac, e)
    e, f = draw(small_rationals), draw(small_rationals)
    reference = reference_gamma_subs_lam if route == "subs_lam" else reference_gamma_shift
    try:
        return route, getattr(x, route)(e, f), reference(x, e, f)
    except (ZeroDivisionError, PoleError):
        assume(False)


class TestCanonicalEquality:
    """ParamScalar equality compares the canonical parts; it agrees with the
    cross-multiplied test on scalars from every construction route, and
    equal scalars hash alike."""

    @given(routed_pairs(), scalars())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_cross_multiplication(self, case, z):
        route, a, b = case
        assert reference_eq(a, b), route
        assert a == b and hash(a) == hash(b), route
        for u, v in ((a, z), (z, b), (z, z)):
            assert (u == v) == reference_eq(u, v), route
            if u == v:
                assert hash(u) == hash(v), route

    def test_equal_values_from_different_denominators(self):
        s = ParamScalar(affine(1, 0, 2) * affine(0, 1, 3),
                        affine(0, 1, 3) * affine(2, 1, 0))
        t = ParamScalar(affine("1/2", 0, 1), affine(1, "1/2", 0))
        assert s == t and reference_eq(s, t) and hash(s) == hash(t)
        assert s != t * 2 and not reference_eq(s, t * 2)

    def test_zero_has_one_form(self):
        # a zero used to keep its Gamma tokens, and 0 + z returned z while
        # z + 0 returned 0
        z = ParamScalar(0, None, ((AffineExp("1/2", "1/2", "1/4"), -1),))
        assert z.gammas == ()
        for total in (PS_ZERO + z, z + PS_ZERO):
            assert total == PS_ZERO and total == z
            assert hash(total) == hash(PS_ZERO)

    def test_cancelling_sum_is_gamma_free(self):
        s = ParamScalar.gamma_factor("1/2", "1/2", "1/4") * PS_LAM
        # over 1 (the den-one branch of +) and over a polynomial
        for t in (s, s / (PS_NU + 1)):
            assert t.gammas
            total = t + (-t)
            assert total == PS_ZERO and total.gammas == ()
            assert hash(total) == hash(PS_ZERO)


class TestEqualityContract:
    """A scalar equals only values it coerces from without parsing, so
    equality agrees with hashing; a str still constructs one."""

    @pytest.mark.parametrize("x", [GaussianRational(1), ParamPoly.const(1),
                                   ParamScalar.coerce(1)])
    def test_foreign_operands_are_unequal(self, x):
        for other in ("1", None, AffineExp(0, 0, 1), object()):
            assert x.__eq__(other) is NotImplemented
            assert not x == other
            assert x != other
        assert len({x, "1"}) == 2
        assert x == 1 and x == Fraction(1) and x == ONE

    def test_strings_still_construct(self):
        assert GaussianRational("1/2") == Fraction(1, 2)
        assert ParamPoly.const("-3") == -3
        assert ParamScalar.coerce("-1/2") == Fraction(-1, 2)


class TestSharedSparsePieces:
    """The one accumulator and the one sparse product every module uses."""

    def test_acc_drops_zeros_and_returns_out(self):
        out = {"a": gr(1), "b": gr(2)}
        got = _acc(out, [("a", gr(-1)), ("c", ZERO), ("d", gr(0, 1)),
                         ("d", gr(3)), ("b", ZERO)])
        assert got is out
        assert out == {"b": gr(2), "d": gr(3, 1)}
        # a zero value of any scalar type is dropped
        assert _acc({}, [(0, ParamScalar.coerce(0)), (1, ParamPoly())]) == {}
        assert _acc({}, []) == {}

    @given(small_gaussians, scalars())
    @settings(max_examples=100, deadline=None)
    def test_mixed_products_in_either_order(self, z, x):
        assert parts_of(z * x) == parts_of(x * z) == parts_of(ParamScalar.coerce(z) * x)
        p = x.num
        assert z * p == p * z == ParamPoly.const(z) * p

    @pytest.mark.parametrize("x", [gr(1, 1), ParamPoly.const(2), ParamScalar.coerce(3)])
    def test_float_operand_raises(self, x):
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            0.5 * x

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmul_is_dense_product(self, data):
        r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))

        def matrix(rows, cols):
            return data.draw(st.dictionaries(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                small_gaussians, max_size=rows * cols))
        a, b = matrix(r, k), matrix(k, c)
        dense = [[sum((a.get((i, t), ZERO) * b.get((t, j), ZERO) for t in range(k)), ZERO)
                  for j in range(c)] for i in range(r)]
        want = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)
                if not v.is_zero()}
        assert _matmul(a, b) == want
        assert SpinMap(k, r, a).compose(SpinMap(c, k, b)) == SpinMap(c, r, want)


constants = st.one_of(st.integers(-6, 6), rationals, gaussians)


class TestReflectedOperations:
    """A constant left of a polynomial or scalar: each reflected method
    equals the forward operation on the coerced constant, and so does the
    operator, for an int, a Fraction and a GaussianRational alike."""

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_negative_denominator_is_canonical(self, a, b, d):
        z = _gr(a, b, -d)
        assert z._d > 0 and gcd(z._a, z._b, z._d) == 1
        assert z == GaussianRational(Fraction(-a, d), Fraction(-b, d))
        assert (z.re, z.im) == (Fraction(a, -d), Fraction(b, -d))

    @given(constants, polys)
    @settings(max_examples=60, deadline=None)
    def test_constant_minus_poly(self, c, p):
        want = ParamPoly.coerce(c) - p
        assert p.__rsub__(c) == want
        assert c - p == want

    @given(constants, scalars())
    @settings(max_examples=60, deadline=None)
    def test_constant_minus_and_over_scalar(self, c, s):
        def outcome(f):
            # a nonzero constant minus a scalar with Gamma tokens is undefined
            try:
                return f()
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc)
        for method, op in (("__rsub__", lambda x, y: x - y),
                           ("__rtruediv__", lambda x, y: x / y)):
            want = outcome(lambda: op(ParamScalar.coerce(c), s))
            assert outcome(lambda: getattr(s, method)(c)) == want, method
            assert outcome(lambda: op(c, s)) == want, method

    @given(constants, polys, scalars())
    @settings(max_examples=60, deadline=None)
    def test_mixed_operands_act_in_the_higher_type(self, c, p, s):
        # level 0: constant, 1: polynomial, 2: scalar; x op y in either
        # order equals op on both operands coerced to the higher level
        lift = {1: ParamPoly.coerce, 2: ParamScalar.coerce}

        def outcome(f):
            try:
                return f()
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                return type(exc)
        values = (c, p, s)
        for lo in range(3):
            for hi in range(max(lo, 1), 3):
                x, y = values[lo], values[hi]
                for name, op in (("+", lambda a, b: a + b), ("-", lambda a, b: a - b),
                                 ("*", lambda a, b: a * b), ("/", lambda a, b: a / b)):
                    for a, b in ((x, y), (y, x)):
                        if name == "/" and hi == 1:
                            # a polynomial has no inverse and no quotient
                            assert outcome(lambda: op(a, b)) is TypeError
                            continue
                        want = outcome(lambda: op(lift[hi](a), lift[hi](b)))
                        assert outcome(lambda: op(a, b)) == want, (name, lo, hi)

    def test_lower_type_on_the_left(self):
        g, p, s = GaussianRational(1, 2), LAM + 1, PS_LAM / (PS_NU + 1)
        assert g + p == p + g and g - p == -(p - g)
        assert g + s == s + g and g - s == -(s - g)
        assert g / s == ParamScalar.coerce(g) / s
        assert LAM + PS_ONE == PS_LAM + 1 and LAM - PS_ONE == PS_LAM - 1
        assert LAM * PS_LAM == PS_LAM * PS_LAM and I + LAM == LAM + I
        with pytest.raises(TypeError):
            g / p
