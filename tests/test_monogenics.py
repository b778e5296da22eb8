import random
from fractions import Fraction
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sbolab import monogenics
from sbolab.paramfield import GaussianRational, ONE, ZERO
from sbolab.monogenics import (MAX_DEGREE, BadDegree, NotAdjacent,
                               gegenbauer_coeffs_rational)
from sbolab.cliffspin import (Spinor, spin_dim, zeta_gen_apply, gamma,
                              fund_branching, zeta_matrix, DimensionMismatch,
                              CliffordElt, pin_cover_action)
from sbolab.monogenics import (SpinorPolynomial, dirac, monomials,
                               monogenic_basis, fischer_split,
                               mult_coordinate_split, branch_embed,
                               apply_group_element, NotMonogenic, SplitFailure,
                               _embed_values)


def gr(a, b=0):
    return GaussianRational(a, b)


# -- the two-level form monomial -> Spinor, the oracle for the flat class ----

class ReferenceSpinorPolynomial:
    """SpinorPolynomial held as a dict monomial -> Spinor, every operation
    rebuilding one Spinor per monomial."""

    def __init__(self, nvars, cn=None, variant="+", coeffs=None):
        self.nvars = nvars
        self.cn = nvars if cn is None else cn
        self.variant = variant
        m = self.cn // 2
        c = {}
        if coeffs:
            for mono, s in coeffs.items():
                if s.m != m:
                    raise DimensionMismatch("spinor coefficient of wrong size")
                if not s.is_zero():
                    c[mono] = s
        self.coeffs = c

    def _zero_like(self):
        return ReferenceSpinorPolynomial(self.nvars, self.cn, self.variant)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        c = dict(self.coeffs)
        for mono, s in other.coeffs.items():
            t = c.get(mono)
            t = s if t is None else t + s
            if t.is_zero():
                c.pop(mono, None)
            else:
                c[mono] = t
        return ReferenceSpinorPolynomial(self.nvars, self.cn, self.variant, c)

    def __sub__(self, other):
        return self + other.scale(gr(-1))

    def scale(self, v):
        v = GaussianRational.coerce(v)
        if v.is_zero():
            return self._zero_like()
        return ReferenceSpinorPolynomial(self.nvars, self.cn, self.variant,
                                         {mono: s.scale(v) for mono, s in self.coeffs.items()})

    def mul_monomial(self, exps, v=ONE):
        return ReferenceSpinorPolynomial(
            self.nvars, self.cn, self.variant,
            {tuple(a + b for a, b in zip(mono, exps)): s.scale(v)
             for mono, s in self.coeffs.items()})

    def diff(self, k):
        out = {}
        idx = k - 1
        for mono, s in self.coeffs.items():
            e = mono[idx]
            if e == 0:
                continue
            key = mono[:idx] + (e - 1,) + mono[idx + 1:]
            t = s.scale(gr(e))
            prev = out.get(key)
            out[key] = t if prev is None else prev + t
        return ReferenceSpinorPolynomial(self.nvars, self.cn, self.variant, out)

    def apply_e(self, i):
        return ReferenceSpinorPolynomial(
            self.nvars, self.cn, self.variant,
            {mono: zeta_gen_apply(self.cn, self.variant, i, s)
             for mono, s in self.coeffs.items()})

    def zeta_x(self):
        out = self._zero_like()
        for k in range(1, self.nvars + 1):
            exps = tuple(1 if t == k - 1 else 0 for t in range(self.nvars))
            out = out + self.apply_e(k).mul_monomial(exps)
        return out

    def norm2_mul(self):
        out = self._zero_like()
        for k in range(self.nvars):
            exps = tuple(2 if t == k else 0 for t in range(self.nvars))
            out = out + self.mul_monomial(exps)
        return out

    def gamma_twist(self):
        return ReferenceSpinorPolynomial(self.nvars, self.cn, self.variant,
                                         {mono: gamma(s) for mono, s in self.coeffs.items()})

    def degree(self):
        return max((sum(mono) for mono in self.coeffs), default=-1)

    def is_homogeneous(self):
        return len({sum(mono) for mono in self.coeffs}) <= 1

    def extend_vars(self, nvars, cn=None):
        pad = (0,) * (nvars - self.nvars)
        return ReferenceSpinorPolynomial(nvars, self.cn if cn is None else cn, self.variant,
                                         {mono + pad: s for mono, s in self.coeffs.items()})

    def map_values(self, spinmap):
        return ReferenceSpinorPolynomial(
            self.nvars, 2 * (spinmap.dst_dim.bit_length() - 1), self.variant,
            {mono: spinmap.apply_spinor(s) for mono, s in self.coeffs.items()})

    def vec(self):
        return {(mono, mask): v for mono, s in self.coeffs.items()
                for mask, v in s.coeffs.items()}

    def __eq__(self, other):
        return ((self.nvars, self.cn, self.variant) == (other.nvars, other.cn, other.variant)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "SpinorPolynomial(nvars=%d, cn=%d, %d terms)" % (
            self.nvars, self.cn, len(self.coeffs))


def reference_dirac(phi):
    out = phi._zero_like()
    for k in range(1, phi.nvars + 1):
        out = out + phi.diff(k).apply_e(k)
    return out


def reference_mult_coordinate_split(phi, k):
    """mult_coordinate_split from whole-polynomial operations (the route the
    single accumulators replaced), run on the reference class."""
    n = phi.nvars
    i = max(phi.degree(), 0)
    dphi = phi.diff(k)
    inv_ni = gr(Fraction(1, n + 2 * i))
    ek_phi = phi.apply_e(k)
    xk = tuple(1 if t == k - 1 else 0 for t in range(n))
    plus = phi.mul_monomial(xk) + (ek_phi.zeta_x() - dphi.norm2_mul()).scale(inv_ni)
    if dphi.is_zero():
        return plus, ek_phi.scale(inv_ni), dphi
    zero = ek_phi - dphi.zeta_x().scale(gr(Fraction(2, n + 2 * i - 2)))
    return plus, zero.scale(inv_ni), dphi.scale(gr(Fraction(1, n + 2 * i - 2)))


def reference_branch_embed(n, j, i, phi):
    """branch_embed as a sum of whole polynomials: each Gegenbauer term is
    x_{n+1}^p times the embedded input, multiplied by |x|^2 one factor at a
    time and merged into the running sum (the route the single accumulator
    replaced)."""
    if not dirac(phi).is_zero():
        raise NotMonogenic("branch_embed input must be monogenic")
    emb = _embed_values(phi).extend_vars(n + 1)
    d = i - j
    out = SpinorPolynomial(n + 1, n + 1, "+")
    terms = [(emb, d, Fraction(n - 1, 2) + j, n + i + j - 1)]
    if d >= 1:
        # zeta(x') e_{n+1} emb, with zeta(x') = zeta(x) - x_{n+1} e_{n+1}
        core = emb.apply_e(n + 1)
        xz = core.zeta_x() - core.apply_e(n + 1).mul_monomial((0,) * n + (1,))
        terms.append((xz, d - 1, Fraction(n + 1, 2) + j, n + 2 * j - 1))
    for poly, deg, lam, factor in terms:
        for p, c in enumerate(gegenbauer_coeffs_rational(deg, lam)):
            if c.is_zero():
                continue
            assert (deg - p) % 2 == 0
            term = poly.mul_monomial((0,) * n + (p,), c * gr(factor))
            for _ in range((deg - p) // 2):
                term = term.norm2_mul()
            out = out + term
    return out


def reference_apply_group_element(phi, gen_indices):
    """apply_group_element one monomial at a time: each Spinor value is moved
    through zeta_gen_apply and scaled, the monomial substituted by q(g)^-1."""
    n = phi.nvars
    g = CliffordElt.scalar(n, ONE)
    for idx in gen_indices:
        g = g * CliffordElt.basis(n, [idx])
    cols = [pin_cover_action(g, [1 if t == j else 0 for t in range(n)])
            for j in range(n)]
    sub = {}
    for j in range(n):
        (t, v), = [(t, cols[j][t]) for t in range(n) if not cols[j][t].is_zero()]
        sub[j] = (t, v)
    out = {}
    for mono, s in phi.coeffs.items():
        sgn = ONE
        new = [0] * n
        for j, e in enumerate(mono):
            if e == 0:
                continue
            t, v = sub[j]
            new[t] += e
            sgn = sgn * (v ** e)
        for idx in reversed(gen_indices):
            s = zeta_gen_apply(phi.cn, phi.variant, idx, s)
        s = s.scale(sgn)
        key = tuple(new)
        prev = out.get(key)
        out[key] = s if prev is None else prev + s
    return SpinorPolynomial(phi.nvars, phi.cn, phi.variant, out)


def as_reference(phi):
    return ReferenceSpinorPolynomial(phi.nvars, phi.cn, phi.variant, dict(phi.coeffs))


def flat_values(phi):
    """The Q(i) view of phi as one flat (monomial, mask) -> value dict."""
    return {(mono, mask): v for mono, s in phi.coeffs.items()
            for mask, v in s.coeffs.items()}


def is_canonical(phi):
    """Nonzero Z[i] parts over one positive denominator, all coprime."""
    parts = [x for pair in phi.terms.values() for x in pair]
    return (phi.den > 0 and gcd(phi.den, *parts) == 1
            and all(a or b for a, b in phi.terms.values()))


def agrees(got, want):
    """The flat result equals the reference one: values, view, repr and
    shape, in the canonical form."""
    assert isinstance(got, SpinorPolynomial)
    assert is_canonical(got)
    assert flat_values(got) == want.vec()
    assert dict(got.coeffs) == want.coeffs
    assert repr(got) == repr(want)
    assert (got.nvars, got.cn, got.variant) == (want.nvars, want.cn, want.variant)
    assert (got.is_zero(), got.degree(), got.is_homogeneous()) == \
        (want.is_zero(), want.degree(), want.is_homogeneous())
    return True


gaussians = st.builds(GaussianRational,
                      st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def sparse_coeffs(draw, n, deg=None, max_terms=6):
    """{monomial: Spinor} with a few random terms, of degree deg if given."""
    m = n // 2
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        d = draw(st.integers(0, 3)) if deg is None else deg
        mono = draw(st.sampled_from(list(monomials(n, d))))
        out.setdefault(mono, {})[draw(st.integers(0, (1 << m) - 1))] = draw(gaussians)
    return {mono: Spinor(m, c) for mono, c in out.items()}


class TestAgainstReference:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_operation(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        variant = data.draw(st.sampled_from("+-"), label="variant")
        ca, cb = data.draw(sparse_coeffs(n)), data.draw(sparse_coeffs(n))
        a, ra = SpinorPolynomial(n, n, variant, ca), ReferenceSpinorPolynomial(n, n, variant, ca)
        b, rb = SpinorPolynomial(n, n, variant, cb), ReferenceSpinorPolynomial(n, n, variant, cb)
        v = data.draw(gaussians, label="v")
        k = data.draw(st.integers(1, n), label="k")
        exps = data.draw(st.tuples(*[st.integers(0, 2)] * n), label="exps")
        spinmap = data.draw(st.sampled_from(fund_branching(n) + (zeta_matrix(n, variant, k),)))
        assert agrees(a, ra) and agrees(b, rb)
        assert agrees(a + b, ra + rb)
        assert agrees(a - b, ra - rb)
        assert agrees(a - a, ra - ra)
        for w in (v, ONE, ZERO, gr(-1)):
            assert agrees(a.scale(w), ra.scale(w))
            assert agrees(a.mul_monomial(exps, w), ra.mul_monomial(exps, w))
        assert agrees(a.mul_monomial(exps), ra.mul_monomial(exps))
        assert agrees(a.diff(k), ra.diff(k))
        assert agrees(a.apply_e(k), ra.apply_e(k))
        assert agrees(a.zeta_x(), ra.zeta_x())
        assert agrees(a.norm2_mul(), ra.norm2_mul())
        assert agrees(a.gamma_twist(), ra.gamma_twist())
        assert agrees(a.extend_vars(n + 1), ra.extend_vars(n + 1))
        assert agrees(a.map_values(spinmap), ra.map_values(spinmap))
        assert agrees(dirac(a), reference_dirac(ra))
        assert (a == b) == (ra == rb)
        assert a == SpinorPolynomial(n, n, variant, ca)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_group_element(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        variant = data.draw(st.sampled_from("+-"), label="variant")
        phi = SpinorPolynomial(n, n, variant, data.draw(sparse_coeffs(n)))
        gens = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=3), label="gens")
        assert apply_group_element(phi, gens) == reference_apply_group_element(phi, gens)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_fischer_split(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        deg = data.draw(st.integers(0, 3 if n <= 4 else 2), label="deg")
        c = data.draw(sparse_coeffs(n, deg))
        got = fischer_split(SpinorPolynomial(n, n, "+", c))
        with mock.patch.object(monogenics, "dirac", reference_dirac):
            want = fischer_split(ReferenceSpinorPolynomial(n, n, "+", c))
        assert [j for j, _ in got] == [j for j, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert agrees(g, w)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_mult_coordinate_split(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        i = data.draw(st.integers(0, 2 if n <= 4 else 1), label="i")
        variant = data.draw(st.sampled_from("+-"), label="variant")
        basis = monogenic_basis(n, i)
        phi = SpinorPolynomial(n, n, variant)
        for _ in range(data.draw(st.integers(1, 3))):
            psi = basis[data.draw(st.integers(0, len(basis) - 1))]
            phi = phi + SpinorPolynomial(n, n, variant, dict(psi.coeffs)).scale(
                data.draw(gaussians))
        k = data.draw(st.integers(1, n), label="k")
        got = mult_coordinate_split(phi, k)
        want = reference_mult_coordinate_split(as_reference(phi), k)
        for g, w in zip(got, want):
            assert agrees(g, w)


class TestCanonicalForm:
    """Equal values have equal parts, whatever the route and the
    denominators met on the way."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_routes_with_different_denominators(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        variant = data.draw(st.sampled_from("+-"), label="variant")
        p = SpinorPolynomial(n, n, variant, data.draw(sparse_coeffs(n)))
        q = SpinorPolynomial(n, n, variant, data.draw(sparse_coeffs(n)))
        v = data.draw(gaussians.filter(lambda z: not z.is_zero()), label="v")
        routes = [p.scale(gr(Fraction(1, 3))).scale(gr(3)), (p + q) - q,
                  q + (p - q), p.scale(v).scale(v.inverse()),
                  p.scale(gr(Fraction(1, 2))) + p.scale(gr(Fraction(1, 2)))]
        for r in routes:
            assert is_canonical(r) and r == p
        assert p + p == p.scale(gr(2))
        assert p - p == p._zero_like() and (p - p).den == 1

    def test_content_removed_where_it_changes(self):
        s = Spinor.basis(1, 1)
        third = SpinorPolynomial(3, 3, "+", {(1, 0, 0): s.scale(gr(Fraction(1, 3)))})
        two_thirds = third.scale(gr(2))
        assert (third.den, two_thirds.den) == (3, 3)
        whole = third + two_thirds
        assert whole == SpinorPolynomial(3, 3, "+", {(1, 0, 0): s})
        assert whole.den == 1 and flat_values(whole) == {((1, 0, 0), 1): ONE}
        # x_1^2 s / 2 differentiates to x_1 s
        half = SpinorPolynomial(3, 3, "+", {(2, 0, 0): s.scale(gr(Fraction(1, 2)))})
        assert half.diff(1) == SpinorPolynomial(3, 3, "+", {(1, 0, 0): s})
        assert half.diff(1).den == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_group_element_index_range(n):
    phi = SpinorPolynomial(n, n, "+", {(1,) + (0,) * (n - 1): Spinor.basis(n // 2, 0)})
    for bad in (0, n + 1):
        with pytest.raises(DimensionMismatch):
            apply_group_element(phi, [bad])
        with pytest.raises(DimensionMismatch):
            apply_group_element(phi, [1, bad])


class TestVariant:
    def test_sum_of_variants_rejected(self):
        c = {(1, 0, 0): Spinor.basis(1, 0)}
        plus, minus = SpinorPolynomial(3, 3, "+", c), SpinorPolynomial(3, 3, "-", c)
        with pytest.raises(DimensionMismatch):
            plus + minus
        with pytest.raises(DimensionMismatch):
            plus - minus

    def test_variant_is_compared(self):
        c = {(1, 0, 0): Spinor.basis(1, 0)}
        assert SpinorPolynomial(3, 3, "+", c) != SpinorPolynomial(3, 3, "-", c)
        assert SpinorPolynomial(3, 3, "-", c) == SpinorPolynomial(3, 3, "-", c)


def const_poly(n, s):
    return SpinorPolynomial(n, n, "+", {(0,) * n: s})


class TestDirac:
    def test_constant(self):
        assert dirac(const_poly(3, Spinor.basis(1, 0))).is_zero()

    def test_linear(self):
        # D(x_k s) = e_k s
        s = Spinor.basis(1, 1)
        phi = SpinorPolynomial(3, 3, "+", {(0, 1, 0): s})
        assert dirac(phi) == const_poly(3, s).apply_e(2)

    def test_zeta_x(self):
        # D(zeta(x) s) = -n s for a constant spinor
        for n in (2, 3, 4):
            s = Spinor.basis(n // 2, 0)
            assert dirac(const_poly(n, s).zeta_x()) == \
                const_poly(n, s).scale(gr(-n))


class TestMonogenicBasis:
    @pytest.mark.parametrize("n,i", [(2, 0), (2, 1), (2, 3), (2, 5), (3, 2),
                                     (3, 4), (3, 5), (4, 2), (4, 5)])
    def test_dimension_against_rank_oracle(self, n, i):
        # surjectivity of the Dirac operator gives the independent count
        basis = monogenic_basis(n, i)
        want = spin_dim(n) * (comb(n + i - 1, i) -
                              (comb(n + i - 2, i - 1) if i else 0))
        assert len(basis) == want

    @pytest.mark.parametrize("n,i", [(2, 2), (3, 2), (4, 3)])
    def test_members_are_monogenic(self, n, i):
        for phi in monogenic_basis(n, i):
            assert dirac(phi).is_zero()

    def test_constants(self):
        assert len(monogenic_basis(2, 0)) == 2


def random_poly(rng, n, deg):
    m = n // 2
    coeffs = {}
    for mono in monomials(n, deg):
        coeffs[mono] = Spinor(m, {rng.randrange(1 << m): gr(rng.randint(-2, 2))})
    return SpinorPolynomial(n, n, "+", coeffs)


class TestFischer:
    def test_monogenic_is_single_component(self):
        for phi in monogenic_basis(3, 2)[:3]:
            assert fischer_split(phi) == [(0, phi)]

    def test_norm_square(self):
        # |x|^2 s = zeta(x)^2 (-s)
        s = Spinor.basis(1, 1)
        phi = const_poly(3, s).norm2_mul()
        comps = fischer_split(phi)
        assert [j for j, _ in comps] == [2]
        assert comps[0][1] == const_poly(3, s).scale(gr(-1))

    def test_coordinate_times_constant(self):
        # matches the coordinate-multiplication split at degree 0
        n = 3
        s = Spinor.basis(1, 0)
        c = const_poly(n, s)
        phi = c.mul_monomial((1, 0, 0))
        comps = dict(fischer_split(phi))
        plus, zero, minus = mult_coordinate_split(c, 1)
        assert comps[0] == plus
        assert comps[1] == zero.scale(gr(-1))
        assert 2 not in comps and minus.is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reconstruction_random(self, n):
        rng = random.Random(n)
        for deg in range(0, 6 if n < 4 else 4):
            phi = random_poly(rng, n, deg)
            comps = fischer_split(phi)
            rec = phi._zero_like()
            for j, psi in comps:
                assert dirac(psi).is_zero()
                t = psi
                for _ in range(j):
                    t = t.zeta_x()
                rec = rec + t
            assert rec == phi

    def test_inhomogeneous_rejected(self):
        s = Spinor.basis(1, 0)
        phi = SpinorPolynomial(2, 2, "+", {(0, 0): s, (1, 0): s})
        with pytest.raises(SplitFailure):
            fischer_split(phi)


# every non-empty subset of the moves, in several orders
SPLIT_MOVES = [(1,), (0,), (-1,), (1, 0), (0, -1), (-1, 1), (-1, 0, 1),
               (1, 0, -1)]


class TestCoordinateSplit:
    def test_degree_zero_formulas(self):
        for n in (2, 3, 4):
            s = Spinor.basis(n // 2, 0)
            c = const_poly(n, s)
            plus, zero, minus = mult_coordinate_split(c, 1)
            assert minus.is_zero()
            assert zero == c.apply_e(1).scale(gr(Fraction(1, n)))
            want_plus = c.mul_monomial(tuple(1 if t == 0 else 0 for t in range(n))) + \
                c.apply_e(1).zeta_x().scale(gr(Fraction(1, n)))
            assert plus == want_plus

    @pytest.mark.parametrize("n,i", [(3, 2), (4, 2)])
    def test_recombination_and_monogenicity(self, n, i):
        for phi in monogenic_basis(n, i):
            for k in range(1, n + 1):
                plus, zero, minus = mult_coordinate_split(phi, k)
                xk = tuple(1 if t == k - 1 else 0 for t in range(n))
                assert phi.mul_monomial(xk) == \
                    plus - zero.zeta_x() + minus.norm2_mul()
                for c in (plus, zero, minus):
                    assert dirac(c).is_zero()

    def test_rejects_non_monogenic(self):
        s = Spinor.basis(1, 0)
        bad = const_poly(2, s).mul_monomial((1, 0))  # x_1 s is not monogenic
        with pytest.raises(NotMonogenic):
            mult_coordinate_split(bad, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_requested_components_only(self, n):
        # the brute force splits basis elements and their embeddings
        imax = 2 if n <= 4 else 1
        inputs = []
        for i in range(imax + 1):
            basis = monogenic_basis(n, i)[:2]
            inputs += basis
            inputs += [branch_embed(n, i, imax, phi) for phi in basis]
        for phi in inputs:
            for k in range(1, phi.nvars + 1):
                full = mult_coordinate_split(phi, k)
                for moves in SPLIT_MOVES:
                    got = mult_coordinate_split(phi, k, moves)
                    for mv, g, f in zip((1, 0, -1), got, full):
                        assert g == (f if mv in moves else None), (mv, moves)

    @pytest.mark.parametrize("moves", [(), [], (2,), (1, 2), (0, -2), "10",
                                       None, 1, [[1]]])
    def test_bad_moves(self, moves):
        c = const_poly(3, Spinor.basis(1, 0))
        with pytest.raises(ValueError, match="moves"):
            mult_coordinate_split(c, 1, moves)

    @pytest.mark.parametrize("moves", SPLIT_MOVES + [(), (2,)])
    def test_precondition_checked_for_any_moves(self, moves):
        s = Spinor.basis(1, 0)
        inhomogeneous = SpinorPolynomial(2, 2, "+", {(0, 0): s, (1, 0): s})
        not_monogenic = const_poly(2, s).mul_monomial((1, 0))
        for bad in (inhomogeneous, not_monogenic):
            with pytest.raises(NotMonogenic):
                mult_coordinate_split(bad, 1, moves)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_split_and_embedding_reject_non_monogenic(self, n):
        bad = const_poly(n, Spinor.basis(n // 2, 0)).mul_monomial(
            (1,) + (0,) * (n - 1))
        with pytest.raises(NotMonogenic):
            mult_coordinate_split(bad, 1)
        with pytest.raises(NotMonogenic):
            branch_embed(n, 1, 2, bad)


class TestPackedKeys:
    """A term's key packs its monomial into fixed-width fields above the
    spinor mask; no field may carry into its neighbour."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_pack_round_trip(self, data):
        nvars = data.draw(st.integers(1, 12), label="nvars")
        mono = data.draw(st.lists(st.integers(0, MAX_DEGREE), min_size=nvars,
                                  max_size=nvars), label="mono")
        # a random split of a total degree up to the limit over the variables
        total = data.draw(st.integers(0, MAX_DEGREE), label="total")
        weight = sum(mono) or 1
        mono = tuple(e * total // weight for e in mono)
        mask = data.draw(st.integers(0, spin_dim(nvars) - 1), label="mask")
        s = Spinor.basis(nvars // 2, mask)
        phi = SpinorPolynomial(nvars, nvars, "+", {mono: s})
        assert flat_values(phi) == {(mono, mask): ONE}
        assert phi.degree() == sum(mono) and phi.is_homogeneous()
        assert phi.extend_vars(nvars + 1).coeffs == {mono + (0,): s}

    @pytest.mark.parametrize("nvars", [1, 2, 7, 12])
    def test_single_exponent_at_the_limit(self, nvars):
        s = Spinor.basis(nvars // 2, spin_dim(nvars) - 1)
        for t in range(nvars):
            mono = tuple(MAX_DEGREE if u == t else 0 for u in range(nvars))
            phi = SpinorPolynomial(nvars, nvars, "+", {mono: s})
            assert dict(phi.coeffs) == {mono: s}
            assert phi.degree() == MAX_DEGREE
            lower = tuple(e - 1 if u == t else e for u, e in enumerate(mono))
            assert phi.diff(t + 1) == SpinorPolynomial(
                nvars, nvars, "+", {lower: s.scale(gr(MAX_DEGREE))})

    def test_degree_raising_past_the_limit(self):
        n, s = 3, Spinor.basis(1, 1)
        x1 = (1, 0, 0)
        top = SpinorPolynomial(n, n, "+", {(MAX_DEGREE - 1, 0, 0): s})
        assert top.mul_monomial(x1).degree() == MAX_DEGREE
        assert top.zeta_x().degree() == MAX_DEGREE
        with pytest.raises(BadDegree):
            top.norm2_mul()
        at = top.mul_monomial(x1)
        for raise_degree in (lambda: at.mul_monomial(x1), at.zeta_x, at.norm2_mul,
                             lambda: at.mul_monomial((0, 0, 1)),
                             lambda: SpinorPolynomial(n, n, "+", {(MAX_DEGREE, 1, 0): s}),
                             lambda: SpinorPolynomial(n, n, "+", {(-1, 0, 0): s})):
            with pytest.raises(BadDegree):
                raise_degree()
        with pytest.raises(DimensionMismatch):
            SpinorPolynomial(n, n, "+", {(1, 0): s})
        with pytest.raises(DimensionMismatch):
            top.mul_monomial((1, 0))
        for bad in (0, n + 1):
            with pytest.raises(DimensionMismatch):
                top.diff(bad)

    def test_branch_embed_past_the_limit(self):
        phi = monogenic_basis(2, 0)[0]
        with pytest.raises(BadDegree):
            branch_embed(2, 0, MAX_DEGREE + 1, phi)


def embed_inputs(n, j):
    """Basis elements of M_j(R^n), spread over the basis, and a combination
    of several with a denominator and an imaginary part."""
    basis = monogenic_basis(n, j)
    picked = list(basis[::max(1, len(basis) // 5)])
    combo = basis[0]
    for t, phi in enumerate(basis[1:6]):
        combo = combo + phi.scale(gr(Fraction(t + 1, 3), Fraction(1, t + 2)))
    return picked + [combo]


class TestBranchEmbedAgainstOracle:
    """The one-accumulator embedding equals the sum of whole polynomials,
    denominator included."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_same_polynomial(self, n):
        for j in range(4):
            for phi in embed_inputs(n, j):
                twist = phi.gamma_twist()
                for i in range(j, j + 4):
                    got = branch_embed(n, j, i, phi)
                    want = reference_branch_embed(n, j, i, phi)
                    assert got == want and got.den == want.den, (n, j, i)
                    if dirac(twist).is_zero():
                        got = branch_embed(n, j, i, twist)
                        want = reference_branch_embed(n, j, i, twist)
                        assert got == want and got.den == want.den, (n, j, i)
                    else:
                        for embed in (branch_embed, reference_branch_embed):
                            with pytest.raises(NotMonogenic):
                                embed(n, j, i, twist)

    def test_domain(self):
        phi = monogenic_basis(3, 1)[0]
        with pytest.raises(NotAdjacent):
            branch_embed(3, 2, 1, phi)
        with pytest.raises(DimensionMismatch):
            branch_embed(4, 1, 2, phi)


class TestBranchEmbed:
    def test_equal_degrees_is_scaling(self):
        for n in (2, 3):
            for j in (0, 1):
                for phi in monogenic_basis(n, j):
                    e = branch_embed(n, j, j, phi)
                    want = _embed_values(phi).extend_vars(n + 1).scale(
                        gr(n + 2 * j - 1))
                    assert e == want

    def test_degree_zero_to_one(self):
        # I(s) = n(n-1) x_{n+1} s + (n-1) zeta(x') e_{n+1} s
        for n in (2, 3, 4):
            s = Spinor.basis(n // 2, 0)
            phi = const_poly(n, s)
            out = branch_embed(n, 0, 1, phi)
            emb = _embed_values(phi).extend_vars(n + 1)
            xlast = tuple(0 if t < n else 1 for t in range(n + 1))
            want = emb.mul_monomial(xlast, gr(n * (n - 1)))
            core = emb.apply_e(n + 1)
            for k in range(1, n + 1):
                ek = tuple(1 if t == k - 1 else 0 for t in range(n + 1))
                want = want + core.apply_e(k).mul_monomial(ek, gr(n - 1))
            assert out == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monogenic_in_one_more_variable(self, n):
        for j in range(0, 3):
            for i in range(j, 4):
                for phi in monogenic_basis(n, j)[:3]:
                    emb = branch_embed(n, j, i, phi, check=True)
                    assert emb.degree() in (-1, i)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equivariance_on_generators(self, n):
        for j in (0, 1):
            for i in range(j, 3):
                for phi in monogenic_basis(n, j)[:2]:
                    for gens in ((1,), (1, 2)):
                        lhs = branch_embed(n, j, i, apply_group_element(phi, gens))
                        rhs = apply_group_element(branch_embed(n, j, i, phi), gens)
                        assert lhs == rhs
