import pytest
from hypothesis import given, settings, strategies as st

from sbolab.paramfield import (GaussianRational, ParamPoly, ParamScalar,
                               pochhammer, evaluate,
                               PoleError, GammaResidual, poly_gcd,
                               PS_LAM, PS_NU, PS_ONE, ONE, ZERO, I, rat)


def rebuilt(s):
    """s rebuilt from its parts; normalization runs on construction."""
    return ParamScalar(s.num, s.den, s.gammas)


def gr(a, b=0):
    return GaussianRational(a, b)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
gaussians = st.builds(GaussianRational, rationals, rationals)


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
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides(self, p, q):
        p = p + ParamPoly.affine(1, 1, 1)
        q = q + ParamPoly.affine(1, -1, 0)
        g = poly_gcd(p * q, q)
        # q is a common divisor, so gcd is a multiple of ... at least q divides pq
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
