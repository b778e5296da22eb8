from fractions import Fraction
from unittest import mock

import pytest
import sympy

from sbolab.paramfield import ParamScalar, PS_LAM, PS_ONE
from sbolab.monogenics import (gegenbauer, gegenbauer_coeffs_rational,
                               verify_gegenbauer_identities, IdentityFailure,
                               _geg_identity_diff, _GEG_IDENTITIES)


class TestExplicitCoefficients:
    def test_degree_zero(self):
        g = gegenbauer(0, PS_LAM)
        assert g == [PS_ONE]

    def test_degree_one(self):
        g = gegenbauer(1, PS_LAM)
        assert g[0].is_zero()
        assert g[1] == 2 * PS_LAM

    def test_degree_two(self):
        g = gegenbauer(2, PS_LAM)
        assert g[2] == 2 * PS_LAM * (PS_LAM + PS_ONE)
        assert g[1].is_zero()
        assert g[0] == -PS_LAM

    def test_rational_parameter_agrees(self):
        from sbolab.paramfield import evaluate
        for deg in range(6):
            num = gegenbauer_coeffs_rational(deg, "3/2")
            sym = gegenbauer(deg, PS_LAM)
            for t in range(deg + 1):
                assert evaluate(sym[t], "3/2", 0) == num[t]


    def test_rational_coefficients_are_memoized(self):
        got = gegenbauer_coeffs_rational(4, Fraction(3, 2))
        assert isinstance(got, tuple)
        assert gegenbauer_coeffs_rational(4, Fraction(3, 2)) is got

    def test_float_degree_is_not_answered_from_the_cache(self):
        # the coefficients cached at the equal int used to answer 3.0
        gegenbauer_coeffs_rational.cache_clear()
        with pytest.raises(TypeError) as before:
            gegenbauer_coeffs_rational(3.0, 1)
        gegenbauer_coeffs_rational(3, 1)
        with pytest.raises(TypeError) as after:
            gegenbauer_coeffs_rational(3.0, 1)
        assert str(after.value) == str(before.value)


class TestAgainstSympy:
    @pytest.mark.parametrize("lam", ["1/2", "3/2", "-1/3", "5/4", "2", "7/3", "-5/2"])
    def test_rational_coefficients(self, lam):
        x = sympy.Symbol("x")
        for deg in range(9):
            want = sympy.Poly(sympy.gegenbauer(deg, sympy.Rational(lam), x), x)
            got = gegenbauer_coeffs_rational(deg, lam)
            assert len(got) == deg + 1
            for t, c in enumerate(got):
                assert c.im == 0
                assert c.re == Fraction(str(want.coeff_monomial(x ** t)))


class TestIdentities:
    def test_suite_to_degree_ten(self):
        report = verify_gegenbauer_identities(10)
        assert set(report) == set(_GEG_IDENTITIES)
        for per in report.values():
            assert all(per.values())

    def test_g1_degree_three(self):
        assert not _geg_identity_diff("G1", 3)

    def test_g7_degree_one(self):
        # 2 lam (1-z^2) C_0^{lam+1} = (1+2 lam) z C_1^lam - 2 C_2^lam
        assert not _geg_identity_diff("G7", 1)

    def test_ode_degree_zero(self):
        assert not _geg_identity_diff("ODE", 0)

    def test_requires_min_degree(self):
        with pytest.raises(ValueError):
            verify_gegenbauer_identities(1)


class TestIdentityTable:
    @pytest.mark.parametrize("name", sorted(_GEG_IDENTITIES))
    def test_rows_hold_in_sympy(self, name):
        # each row read independently of _geg_identity_diff: symbolic lam and z
        lam, z = sympy.symbols("lam z")
        for n in range(7):
            total = 0
            for coeff, factor, order, offset, shift in _GEG_IDENTITIES[name]:
                if n + offset < 0:
                    continue
                poly = sympy.gegenbauer(n + offset, lam + shift, z)
                total += (coeff(n, lam) * sum(f * z ** p for p, f in factor)
                          * sympy.diff(poly, z, order))
            assert sympy.expand(total) == 0, (name, n)

    @pytest.mark.parametrize("name", sorted(_GEG_IDENTITIES))
    def test_every_term_is_needed(self, name):
        # a row whose term never reaches degree >= 0 would pass vacuously
        terms = _GEG_IDENTITIES[name]
        for k in range(len(terms)):
            with mock.patch.dict(_GEG_IDENTITIES, {name: terms[:k] + terms[k + 1:]}):
                assert any(_geg_identity_diff(name, n) for n in range(11)), (name, k)
