import random

import pytest

from sbolab.paramfield import GaussianRational, ONE, ZERO, I
from sbolab.cliffspin import (CliffordElt, Spinor, SpinMap,
                              pin_element, pin_cover_action, zeta_action,
                              zeta_gen_apply, zeta_matrix, gamma, gamma_matrix,
                              fund_branching, spin_dim, spin_projection_P,
                              check_proj_independence, DimensionMismatch,
                              NotInPin)


def gr(a, b=0):
    return GaussianRational(a, b)


# -- the wedge/contract route to zeta_n(e_i), the oracle for the table -------

def _popcount_below(mask, i):
    return bin(mask & ((1 << i) - 1)).count("1")


def _wedge_w(s, a):
    """w_a wedge s (1-based a)."""
    out = {}
    bit = 1 << (a - 1)
    for mask, v in s.coeffs.items():
        if mask & bit:
            continue
        sgn = -1 if _popcount_below(mask, a - 1) & 1 else 1
        out[mask | bit] = v * GaussianRational(sgn)
    return Spinor(s.m, out)


def _contract_w(s, a):
    """zeta(w'_a) s = (-1)^{pos} * (s with w_a removed)."""
    out = {}
    bit = 1 << (a - 1)
    for mask, v in s.coeffs.items():
        if not (mask & bit):
            continue
        pos = _popcount_below(mask, a - 1) + 1
        out[mask & ~bit] = v * GaussianRational(-1 if pos & 1 else 1)
    return Spinor(s.m, out)


def zeta_gen_oracle(n, variant, i, s):
    """zeta_n(e_i) s from e_{2a-1} = w_a + w'_a, e_{2a} = -i w_a + i w'_a and,
    for odd n, e_n = i * gamma; variant '-' negates."""
    if n % 2 and i == n:
        out = Spinor(s.m, {mask: v * I * gr(-1 if bin(mask).count("1") & 1 else 1)
                           for mask, v in s.coeffs.items()})
    else:
        a = (i + 1) // 2
        if i % 2:
            out = _wedge_w(s, a) + _contract_w(s, a)
        else:
            out = _wedge_w(s, a).scale(-I) + _contract_w(s, a).scale(I)
    if variant == "-":
        out = out.scale(gr(-1))
    return out


def _random_spinor(rng, m):
    vals = [gr(0), gr(1), gr(-3, 2), gr("2/3", "-5/7"), gr(0, "1/4")]
    return Spinor(m, {mask: rng.choice(vals) for mask in range(1 << m)
                      if rng.random() < 0.7})


class TestCliffordAlgebra:
    def test_generator_square(self):
        e1 = CliffordElt.basis(3, [1])
        assert (e1 * e1).scalar_part() == gr(-1)

    def test_anticommutation(self):
        e1, e2 = CliffordElt.basis(3, [1]), CliffordElt.basis(3, [2])
        assert (e1 * e2 + e2 * e1).is_zero()
        assert e1 * e2 == CliffordElt.basis(3, [1, 2])
        assert e2 * e1 == CliffordElt.basis(3, [1, 2]).scale(gr(-1))

    def test_bivector_square(self):
        e12 = CliffordElt.basis(4, [1, 2])
        assert (e12 * e12).scalar_part() == gr(-1)

    def test_mixed_signature(self):
        # Cl(1,1): e_1^2 = -1, e_2^2 = +1
        e1 = CliffordElt.basis(2, [1], p=1)
        e2 = CliffordElt.basis(2, [2], p=1)
        assert (e1 * e1).scalar_part() == gr(-1)
        assert (e2 * e2).scalar_part() == ONE

    def test_associativity_random(self):
        rng = random.Random(11)

        def rnd():
            return CliffordElt(4, {rng.randrange(16): gr(rng.randint(-3, 3),
                                                         rng.randint(-3, 3))
                                   for _ in range(4)})
        for _ in range(25):
            a, b, c = rnd(), rnd(), rnd()
            assert (a * b) * c == a * (b * c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CliffordElt.basis(2, [1]) * CliffordElt.basis(3, [1])

    def test_vector_part(self):
        v = CliffordElt(3, {1: 2, 4: gr(0, 1)})
        assert v.vector_part() == ([gr(2), ZERO, I], True)
        # a scalar or a bivector part makes the element impure
        assert (v + CliffordElt.scalar(3, 1)).vector_part() == ([gr(2), ZERO, I], False)
        assert (v + CliffordElt.basis(3, [1, 3])).vector_part()[1] is False
        assert CliffordElt(3).vector_part() == ([ZERO] * 3, True)


class TestPinCover:
    def test_reflection(self):
        g = pin_element([[1, 0, 0]])
        assert pin_cover_action(g, [1, 0, 0]) == [gr(-1), ZERO, ZERO]
        assert pin_cover_action(g, [0, 1, 0]) == [ZERO, ONE, ZERO]

    def test_identity(self):
        g = CliffordElt.scalar(3, ONE)
        y = ["1/2", 2, -3]
        assert pin_cover_action(g, y) == [gr("1/2"), gr(2), gr(-3)]

    def test_preserves_quadratic_form(self):
        rng = random.Random(5)
        for _ in range(10):
            vecs = []
            for _ in range(rng.randint(1, 3)):
                v = [0] * 4
                v[rng.randrange(4)] = 1
                vecs.append(v)
            g = pin_element(vecs)
            y = [gr(rng.randint(-4, 4)) for _ in range(4)]
            z = pin_cover_action(g, y)
            q = lambda w: sum((c * c for c in w), ZERO)
            assert q(z) == q(y)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generator_is_coordinate_reflection(self, n):
        y = [gr(t + 2, t - 1) for t in range(n)]
        for i in range(1, n + 1):
            want = [-c if t == i - 1 else c for t, c in enumerate(y)]
            assert pin_cover_action(CliffordElt.basis(n, [i]), y) == want

    def test_not_unit_vector(self):
        with pytest.raises(NotInPin):
            pin_element([[1, 1, 0]])

    def test_no_vectors(self):
        with pytest.raises(DimensionMismatch):  # used to raise IndexError
            pin_element([])


class TestSpinModule:
    def test_wedge_action(self):
        one = Spinor.basis(1, 0)
        assert zeta_action(2, "+", [1, I], one).coeffs == {1: gr(2)}  # 2 w_1

    def test_odd_generator(self):
        one, w1 = Spinor.basis(1, 0), Spinor.basis(1, 1)
        assert zeta_gen_apply(3, "+", 3, one) == one.scale(I)
        assert zeta_gen_apply(3, "+", 3, w1) == w1.scale(-I)

    def test_clifford_relation(self):
        # zeta(v)^2 = -|v|^2 on every basis spinor
        for n in (2, 3, 4, 5, 6):
            m = n // 2
            v = [gr(k + 1) for k in range(n)]
            norm = sum((c * c for c in v), ZERO)
            for mask in range(1 << m):
                s = Spinor.basis(m, mask)
                assert zeta_action(n, "+", v, zeta_action(n, "+", v, s)) == \
                    s.scale(-norm)

    def test_variant_is_alpha_twist(self):
        s = Spinor.basis(1, 1)
        assert zeta_gen_apply(3, "-", 2, s) == \
            zeta_gen_apply(3, "+", 2, s).scale(gr(-1))


class TestZetaTable:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_basis_spinors_match_wedge_contract(self, n):
        m = n // 2
        for variant in ("+", "-"):
            for i in range(1, n + 1):
                for mask in range(1 << m):
                    s = Spinor.basis(m, mask).scale(gr("3/5", -2))
                    assert zeta_gen_apply(n, variant, i, s) == \
                        zeta_gen_oracle(n, variant, i, s)
                    # the matrix is read from the same table
                    assert zeta_matrix(n, variant, i).apply_spinor(s) == \
                        zeta_gen_oracle(n, variant, i, s)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_spinors_match_wedge_contract(self, n):
        rng = random.Random(n)
        m = n // 2
        for variant in ("+", "-"):
            for i in range(1, n + 1):
                for _ in range(3):
                    s = _random_spinor(rng, m)
                    got = zeta_gen_apply(n, variant, i, s)
                    assert got == zeta_gen_oracle(n, variant, i, s)
                    assert repr(got) == repr(zeta_gen_oracle(n, variant, i, s))

    def test_wrong_half_dimension(self):
        with pytest.raises(DimensionMismatch, match="wrong half-dimension for n=4"):
            zeta_gen_apply(4, "+", 1, Spinor.basis(1, 0))

    @pytest.mark.parametrize("i", [0, 5])
    def test_generator_out_of_range(self, i):
        with pytest.raises(DimensionMismatch, match="generator index out of range"):
            zeta_gen_apply(4, "+", i, Spinor.basis(2, 0))

    @pytest.mark.parametrize("variant", ["x", "minus", "+-", None])
    def test_unknown_variant(self, variant):
        # any variant but "-" used to act as "+"
        with pytest.raises(ValueError, match="variant"):
            zeta_gen_apply(3, variant, 1, Spinor.basis(1, 0))
        with pytest.raises(ValueError, match="variant"):
            zeta_matrix(3, variant, 1)


class TestCanonicalResults:
    """zeta_gen_apply, gamma and scale by a nonzero value skip coercion."""

    def test_results_are_canonical(self):
        rng = random.Random(7)
        for n in (2, 3, 4, 5):
            m = n // 2
            for _ in range(5):
                s = _random_spinor(rng, m)
                outs = [gamma(s), s.scale(gr("2/3", -1)), s.scale(1)]
                outs += [zeta_gen_apply(n, variant, i, s)
                         for variant in "+-" for i in range(1, n + 1)]
                for t in outs:
                    assert t.m == m
                    assert all(type(v) is GaussianRational and not v.is_zero()
                               for v in t.coeffs.values())
                    assert len(t.coeffs) == len(s.coeffs)

    def test_scale_by_zero(self):
        s = Spinor(2, {0: gr(1), 3: gr(0, 2)})
        for zero in (ZERO, 0):
            z = s.scale(zero)
            assert z.is_zero() and z.coeffs == {} and z.m == 2


class TestGamma:
    def test_degree_zero(self):
        assert gamma(Spinor.basis(2, 0)) == Spinor.basis(2, 0)

    def test_degree_one(self):
        w1 = Spinor.basis(2, 1)
        assert gamma(w1) == w1.scale(gr(-1))

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(10):
            s = Spinor(3, {rng.randrange(8): gr(rng.randint(-3, 3))
                           for _ in range(3)})
            assert gamma(gamma(s)) == s

    def test_anticommutes_with_even_generators(self):
        # gamma intertwines zeta and zeta o alpha on the 2m wedge generators
        for n in (2, 3, 4, 5):
            m = n // 2
            for i in range(1, 2 * m + 1):
                for mask in range(1 << m):
                    s = Spinor.basis(m, mask)
                    assert gamma(zeta_gen_apply(n, "+", i, s)) + \
                        zeta_gen_apply(n, "+", i, gamma(s)) == Spinor(m)


class TestFundBranching:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_intertwining(self, n):
        plus, minus = fund_branching(n)
        m = n // 2
        for i in range(1, n + 1):
            for mask in range(1 << m):
                s = Spinor.basis(m, mask)
                zplus = zeta_matrix(n + 1, "+", i)
                assert zplus.apply_spinor(plus.apply_spinor(s)) == \
                    plus.apply_spinor(zeta_gen_apply(n, "+", i, s))
                assert zplus.apply_spinor(minus.apply_spinor(s)) == \
                    minus.apply_spinor(zeta_gen_apply(n, "-", i, s))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_injective(self, n):
        plus, minus = fund_branching(n)
        assert plus.rank() == spin_dim(n)
        assert minus.rank() == spin_dim(n)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_top_generator_is_i_gamma(self, n):
        assert zeta_matrix(n + 1, "+", n + 1) == gamma_matrix(n // 2).scale(I)

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_projection_formula(self, n):
        # projection onto the +- images is (id +- zeta(e_{n+1}) gamma)/2
        m = n // 2
        plus, minus = fund_branching(n)
        dim = 1 << (m + 1)
        zc = zeta_matrix(n + 1, "+", n + 1)
        gm = gamma_matrix(m + 1)
        proj_plus = (SpinMap.identity(dim) + zc.compose(gm)).scale(gr("1/2"))
        for mask in range(1 << m):
            s = Spinor.basis(m, mask)
            assert proj_plus.apply_spinor(plus.apply_spinor(s)) == \
                plus.apply_spinor(s)
            assert proj_plus.apply_spinor(minus.apply_spinor(s)).is_zero()
            # zeta(e_{n+1}) acts by -+gamma on the +- summand
            assert zc.apply_spinor(plus.apply_spinor(s)) == \
                gm.apply_spinor(plus.apply_spinor(s)).scale(gr(-1))


class TestSpinProjection:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rank(self, n):
        P = spin_projection_P(n)
        want = spin_dim(n) if n % 2 else spin_dim(n) // 2
        assert P.rank() == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_intertwining_with_det_twist(self, n):
        P = spin_projection_P(n)
        for i in range(1, n):
            assert P.compose(zeta_matrix(n, "+", i)) == \
                zeta_matrix(n - 1, "+", i).compose(P).scale(gr(-1))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_kernel_is_complementary_summand(self, n):
        P = spin_projection_P(n)
        iplus, iminus = fund_branching(n - 1)
        assert P.compose(iminus) == SpinMap.identity(spin_dim(n - 1))
        assert P.compose(iplus).is_zero()
        # P o zeta(e_n) vanishes on the summand P inverts
        assert P.compose(zeta_matrix(n, "+", n)).compose(iminus).is_zero()

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_independence(self, n):
        rep = check_proj_independence(n)
        assert rep["ok"] and rep["rank"] == n

    @pytest.mark.parametrize("n", [2.5, 4.0])
    def test_non_integer_dimension(self, n):
        # each used to end in a TypeError; the projection cached at the equal
        # int does not answer for 4.0
        spin_projection_P(4)
        for check in (spin_projection_P, check_proj_independence):
            with pytest.raises(DimensionMismatch):
                check(n)
