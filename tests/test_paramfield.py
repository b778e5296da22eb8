from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from sbolab.paramfield import (GaussianRational, ParamPoly, ParamScalar,
                               pochhammer, evaluate,
                               PoleError, GammaResidual, poly_gcd, poly_divexact,
                               PS_LAM, PS_NU, PS_ONE, ONE, ZERO, I, LAM, rat,
                               _times_i_power, _acc)
from sbolab.cliffspin import SpinMap, _matmul


def rebuilt(s):
    """s rebuilt from its parts; normalization runs on construction."""
    return ParamScalar(s.num, s.den, s.gammas)


def gr(a, b=0):
    return GaussianRational(a, b)


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
        s = ParamScalar(ParamPoly.affine(1, 0, 2), ParamPoly.affine(0, 1, 1))
        assert len({s, ParamScalar(ParamPoly.affine(2, 0, 4),
                                   ParamPoly.affine(0, 2, 2))}) == 1
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
        s = ParamScalar(ParamPoly.affine(1, -1, 0), ParamPoly.affine(1, 1, 0))
        assert evaluate(s, 3, 1) == gr("1/2")

    def test_imaginary_point(self):
        s = ParamScalar(ParamPoly({(2, 0): 1}))
        assert evaluate(s, I, 0) == gr(-1)

    def test_pole(self):
        s = ParamScalar(ParamPoly.const(1), ParamPoly.affine(1, -1, 0))
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
        assert s == ParamScalar(ParamPoly.affine("1/2", "-1/2", "1/4"))

    def test_cancellation(self):
        s = ParamScalar.gamma_factor(0, 1, "1/3") * \
            ParamScalar.gamma_factor(0, 1, "1/3", -1)
        assert s == PS_ONE

    def test_two_step_shift(self):
        # Gamma(z+2)/Gamma(z) = z(z+1) with z = (lam-nu)/2 - 1/4
        s = ParamScalar.gamma_factor("1/2", "-1/2", "7/4") * \
            ParamScalar.gamma_factor("1/2", "-1/2", "-1/4", -1)
        z = ParamScalar(ParamPoly.affine("1/2", "-1/2", "-1/4"))
        assert s == z * (z + PS_ONE)

    def test_idempotent(self):
        s = ParamScalar.gamma_factor(0, 1, "5/2") * \
            ParamScalar.gamma_factor(0, 1, "1/2", -1)
        assert rebuilt(s) == s
        assert s == ParamScalar(ParamPoly.affine(0, 1, "1/2") *
                                ParamPoly.affine(0, 1, "3/2"))

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
        b = ParamScalar(q + ParamPoly.affine(1, 0, 0))
        c = ParamScalar(r + ParamPoly.affine(0, 1, 2))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        if not a.is_zero():
            assert a / a == PS_ONE

    @given(polys, polys)
    @example(ParamPoly(), ParamPoly.affine(-1, 1, 0))  # q cancels the shift
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides(self, p, q):
        p = p + ParamPoly.affine(1, 1, 1)
        q = q + ParamPoly.affine(1, -1, 0)
        # the drawn q can cancel the shift, and 0 is no denominator
        assume(not q.is_zero())
        g = poly_gcd(p * q, q)
        # g divides both, and q is a common divisor, so g is q up to a unit
        poly_divexact(p * q, g)
        assert poly_divexact(q, g).total_degree() == 0
        s = ParamScalar(p * q, q)
        assert s == ParamScalar(p)

    def test_reduction(self):
        common = ParamPoly.affine(1, 1, 0)
        s = ParamScalar(common * ParamPoly.affine(1, -1, "1/2"),
                        common * ParamPoly.affine(0, 1, 2))
        assert s == ParamScalar(ParamPoly.affine(1, -1, "1/2"),
                                ParamPoly.affine(0, 1, 2))

    def test_add_requires_same_gamma_content(self):
        a = ParamScalar.gamma_factor(0, 1, "1/2")
        with pytest.raises(ValueError):
            a + PS_ONE

    def test_substitutions(self):
        s = ParamScalar(ParamPoly.affine(1, 1, 0))
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
# degrees and substitution values that keep the Gamma shifts and the gcds
# small: poly_gcd takes seconds on bivariate inputs of degree 4
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)
bilinear_polys = st.builds(ParamPoly, st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), small_gaussians, max_size=3))


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
        num, den = draw(bilinear_polys), draw(bilinear_polys)
        s = ParamScalar(num, ParamPoly.affine(0, 1, 1) if den.is_zero() else den)
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


class TestEqualityContract:
    """A scalar equals only values it coerces from without parsing, so
    equality agrees with hashing; a str still constructs one."""

    @pytest.mark.parametrize("x", [GaussianRational(1), ParamPoly.const(1),
                                   ParamScalar.coerce(1)])
    def test_foreign_operands_are_unequal(self, x):
        from sbolab.kernelcalc import AffineExp
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
