import hashlib
import json
import os
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from sbolab import kernelcalc
from sbolab.paramfield import (ParamScalar, ParamPoly, GaussianRational, rat,
                               _ps_times_i_power)
from sbolab.cliffspin import SpinMap, spin_dim, zeta_matrix
from sbolab.kernelcalc import (KernelExpr, AffineExp, make_family, mult_xn,
                               mult_zeta, mult_norm2, project, as_matrix,
                               support, check_identity, symmetry_checks,
                               to_json_dict, blade_matrix, BadParams,
                               UnknownIdentity, SymmetryFailure, _on_line,
                               _term_degree, _identity_sides, IDENTITY_TAGS)


def ps(x):
    return ParamScalar.coerce(x)


def affine(a, b, c):
    """The polynomial a*lam + b*nu + c."""
    return ParamPoly({(1, 0): a, (0, 1): b, (0, 0): c})


class TestFamilies:
    def test_b_plus_k0_form(self):
        # |x'|^{1-n-2nu} delta(x_n) times 1/Gamma((lam-nu+1/2)/2)
        K = make_family("Bt+", 4, k=0)
        assert list(K.terms) == [("B", 0, AffineExp(0, -2, 1 - 4), AffineExp(), (0, 0, 0))]
        (value,) = K.terms.values()
        assert list(value) == [0]  # a scalar kernel holds blade 0
        assert value[0].gammas == ((AffineExp("1/2", "-1/2", "1/4"), -1),)

    def test_c_plus_l0_is_delta(self):
        K = make_family("Ct+", 3, l=0)
        assert K.terms == {("P", (0, 0, 0)): {0: ps(1)}}

    def test_c_minus_l0_is_normal_derivative(self):
        K = make_family("Ct-", 3, l=0)
        assert list(K.terms) == [("P", (0, 0, 1))]

    def test_spinor_c_minus_l0(self):
        # D'_{R^{n-1}} delta + 2(nu - 1/2) D_n delta
        K = make_family("sCt-", 3, l=0)
        keys = set(K.terms)
        assert ("P", (0, 0, 1)) in keys and ("P", (1, 0, 0)) in keys
        mat = blade_matrix(3, K.terms[("P", (0, 0, 1))])
        twice = ParamScalar(affine(0, 2, -1))
        from sbolab.cliffspin import zeta_matrix
        want = {k: ps(v) * twice for k, v in zeta_matrix(3, "+", 3).entries.items()}
        assert mat == want

    def test_supports(self):
        assert support(make_family("A+", 4)) == "full"
        assert support(make_family("Bt-", 4, k=1)) == "hyperplane"
        assert support(make_family("Ct+", 4, l=2)) == "origin"
        assert support(make_family("Ct+", 4, l=0) -
                       make_family("Ct+", 4, l=0)) == "empty"

    def test_bad_params(self):
        with pytest.raises(BadParams):
            make_family("Bt+", 4)
        with pytest.raises(BadParams):
            make_family("Att+", 4, i=2, j=0)  # needs odd n
        with pytest.raises(BadParams):
            make_family("nope", 4)
        with pytest.raises(BadParams):
            make_family("sBt+", 1, k=0)  # needs n >= 2
        with pytest.raises(BadParams):
            make_family("Att+", 3, i=-2, j=-2)  # used to raise ValueError
        with pytest.raises(BadParams):
            make_family("sAtt-", 3, i=-1, j=-2)  # used to build a kernel
        for form in ("bogus", None, "Radial"):  # used to give the expanded display
            with pytest.raises(BadParams):
                make_family("Bt+", 3, k=1, form=form)
        with pytest.raises(BadParams):
            check_identity("juhl_up", 1, l=0)
        with pytest.raises(BadParams):  # used to build Ct+(1)
            make_family("Ct+", 3, l=1, k=7, i=1)
        with pytest.raises(BadParams):  # End(S_4) is 4 x 4
            KernelExpr(4, (2, 4), {("P", (0, 0, 0, 0)): {(0, 0): ps(1)}})

    def test_non_integer_dimension_and_indices(self):
        # a bool index used to build the family at 1 or report ok, a float
        # one to end in a TypeError
        for bad in (lambda: make_family("Bt+", 3, k=True),
                    lambda: check_identity("juhl_up", 3, l=True),
                    lambda: make_family("A+", 2.0),
                    lambda: make_family("Bt+", 3, k=1.0),
                    lambda: make_family("Att+", 3, i=1, j=1.0),
                    lambda: check_identity("juhl_up", 3.5, l=1),
                    lambda: check_identity("xn_kernel", True)):
            with pytest.raises(BadParams):
                bad()


def _off_domain(name):
    """(n, index keywords) outside the domain of a family index name, next
    to one pair inside it: n = 1, a negative or missing index, and for
    the residue forms even n, j < 0, j > i and the wrong parity of i - j."""
    if name is None:
        return (3, {}), [(1, {})]
    if name in ("k", "l"):
        return (3, {name: 0}), [(1, {name: 0}), (3, {name: -1}), (3, {})]
    p = int(name == "ij_odd")
    good = {"i": 2 - p, "j": 0}
    return (3, good), [(1, good), (4, good), (3, {"i": 2 - p}), (3, {"j": 0}),
                       (3, {"i": 0, "j": p - 2}), (3, {"i": p - 3, "j": -3}),
                       (3, {"i": 0, "j": 2 - p}), (3, {"i": 1 + p, "j": 0})]


@pytest.mark.parametrize("tag", list(kernelcalc._FAMILIES))
def test_family_domain(tag):
    name = kernelcalc._FAMILIES[tag][0]
    good, bad = _off_domain(name)
    n, kw = good
    make_family(tag, n, **kw)
    # each keyword outside the index name, once silently ignored
    bad += [(n, dict(kw, **{p: 1})) for p in "klij" if p not in (name or "")[:2]]
    for n, kw in bad:
        with pytest.raises(BadParams):
            make_family(tag, n, **kw)


class TestMultiplicationRules:
    def test_delta_layer(self):
        # x_n delta^{(m)} = -m delta^{(m-1)}
        K = make_family("Bt-", 4, k=1)  # delta^{(3)} layers
        X = mult_xn(K)
        orders = {key[1] for key in X.terms}
        assert orders == {2, 0}

    def test_delta_layer_drops_at_zero(self):
        K = make_family("Bt+", 4, k=0)
        assert mult_xn(K).is_zero()

    def test_point_rule(self):
        K = make_family("Ct+", 3, l=0)
        assert mult_xn(K).is_zero()
        Km = make_family("Ct-", 3, l=0)
        X = mult_xn(Km)
        assert X.terms == {("P", (0, 0, 0)): {0: ps(-1)}}

    def test_sign_algebra(self):
        # x_n (sgn(x_n)|x_n|^a r^b) = |x_n|^{a+1} r^b
        K = make_family("A-", 4)
        X = mult_xn(K)
        (key,) = X.terms
        assert key[1] == 0 and key[2] == AffineExp(1, 1, "1/2")

    def test_zeta_on_delta(self):
        assert mult_zeta(make_family("Ct+", 3, l=0)).is_zero()
        Z = mult_zeta(make_family("Ct-", 3, l=0))
        from sbolab.cliffspin import zeta_matrix
        want = {k: ps(v) * ps(-1) for k, v in zeta_matrix(3, "+", 3).entries.items()}
        assert {key: blade_matrix(3, v) for key, v in Z.terms.items()} == \
            {("P", (0, 0, 0)): want}

    @pytest.mark.parametrize("tag,kw", [("A+", {}), ("Bt+", {"k": 1}),
                                        ("Ct-", {"l": 1})])
    def test_zeta_squared_is_minus_norm(self, tag, kw):
        for n in (3, 4):
            K = make_family(tag, n, **kw)
            assert mult_zeta(mult_zeta(K)) == \
                as_matrix(mult_norm2(K)).scale(ps(-1))

    def test_zeta_needs_spinor_rows_of_s_n(self):
        # a projected kernel at even n takes values in S_{n-1}, half the size
        with pytest.raises(BadParams):
            mult_zeta(project(make_family("sBt+", 4, k=0)))

    @pytest.mark.parametrize("n", [3, 5])
    def test_zeta_needs_spinor_rows_of_s_n_odd(self, n):
        # at odd n, S_{n-1} and S_n have one dimension, so only the row flag
        # tells a projected kernel apart
        P = project(make_family("sBt+", n, k=0))
        with pytest.raises(BadParams):
            mult_zeta(P)
        with pytest.raises(BadParams):
            project(P)
        assert P.shape == (spin_dim(n),) * 2 and P.row_n == n - 1

    def test_raw_values(self):
        # a scalar, a blade dict and a dense matrix with int entries all give
        # the same blade values
        point = ("P", (0, 0, 0, 0))
        want = as_matrix(KernelExpr(4, None, {point: 2}))
        assert KernelExpr(4, (4, 4), {point: {0: 2}}) == want
        assert KernelExpr(4, (4, 4), {point: {(r, r): 2 for r in range(4)}}) == want

    def test_substitution_drops_zero_entries(self):
        lam_minus_nu = ParamScalar(affine(1, -1, 0))
        point = ("P", (0, 0, 0))
        K = KernelExpr(3, (2, 2), {point: {(0, 0): lam_minus_nu, (1, 1): ps(1)}})
        L = K.subs_lam(1, 0)
        W = KernelExpr(3, (2, 2), {point: {(1, 1): ps(1)}})
        assert (L - W).is_zero()
        assert L == W
        assert to_json_dict(L) == to_json_dict(W)
        # on blade values: blade 0 vanishes on the line and is dropped
        point = ("P", (0, 0, 0, 0))
        B = KernelExpr(4, (4, 4), {point: {0: lam_minus_nu, 3: ps(1)}})
        assert B.subs_lam(1, 0).terms == {point: {3: ps(1)}}

    def test_support_shrinks_under_xn(self):
        order = {"empty": 0, "origin": 1, "hyperplane": 2, "full": 3}
        for tag, kw in [("A+", {}), ("Bt+", {"k": 2}), ("Ct-", {"l": 2})]:
            K = make_family(tag, 4, **kw)
            assert order[support(mult_xn(K))] <= order[support(K)]


class TestExpandAgainstDelta:
    def test_zero_jet(self):
        # r^b delta(x_n) -> |x'|^{2b} delta(x_n)
        b = AffineExp(0, -1, 0)
        raw = {("B", 0, AffineExp(), b, (0, 0, 0)): ps(1)}
        K = KernelExpr(4, None, raw)
        assert list(K.terms) == [("B", 0, AffineExp(0, -2, 0), AffineExp(), (0, 0, 0))]

    def test_second_jet(self):
        # r^b delta''(x_n) -> |x'|^{2b} delta'' + 2b |x'|^{2b-2} 2! delta
        b = AffineExp(0, -1, 0)
        raw = {("B", 2, AffineExp(), b, (0, 0, 0)): ps(1)}
        K = KernelExpr(4, None, raw)
        t2 = K.terms[("B", 2, AffineExp(0, -2, 0), AffineExp(), (0, 0, 0))]
        t0 = K.terms[("B", 0, AffineExp(0, -2, -2), AffineExp(), (0, 0, 0))]
        assert t2 == {0: ps(1)}
        assert t0 == {0: ParamScalar(affine(0, -2, 0))}

    def test_normalization_is_additive(self):
        # pulling |x'|^2 out of one group adds to a second group that is
        # itself divided in the same sweep; that addition must survive
        xn, r = AffineExp(1, 1, 0), AffineExp(0, -1, 0)
        a = {("S", 0, xn, r, (2, 0, 0)): ps(1)}
        b = {("S", 0, xn + 2, r, (0, 0, 0)): ps(1),
             ("S", 0, xn + 2, r, (2, 0, 0)): ps(2)}
        assert KernelExpr(4, None, {**a, **b}) == \
            KernelExpr(4, None, a) + KernelExpr(4, None, b)

    def test_idempotent(self):
        # normalization runs on construction, so rebuilding changes nothing
        K = make_family("Bt+", 4, k=2, form="radial")
        assert KernelExpr(K.n, K.shape, dict(K.terms)) == K

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_double_display(self, k, sign):
        radial = make_family("Bt" + sign, 5, k=k, form="radial")
        explicit = make_family("Bt" + sign, 5, k=k, form="expanded")
        assert radial == explicit

    def test_preserves_homogeneity(self):
        K = make_family("Bt+", 4, k=3, form="radial")
        degs = {repr(_term_degree(4, key)) for key in K.terms}
        assert len(degs) == 1


# one case per catalogued identity, all valid at n = 3
CONTROL_CASES = [
    ("b_translation", {"k": 1}), ("c_translation", {"l": 1}),
    ("juhl_up", {"l": 1}), ("juhl_down", {"l": 1}),
    ("b_double_display", {"k": 1}), ("b_double_display", {"k": 1, "j": -1}),
    ("spinor_b_minus", {"k": 1}), ("spinor_b_plus", {"k": 1}),
    ("spinor_c_minus", {"l": 1}), ("spinor_c_plus", {"l": 1}),
    ("spinor_a_closure_minus", {}), ("spinor_a_closure_plus", {}),
    ("residue_step", {"i": 1, "j": 0}),
    ("residue_step_spinor_minus", {"i": 1, "j": 0}),
    ("residue_step_spinor_plus", {"i": 2, "j": 0}),
]


# identity with a line -> (family, index name) whose constraint that line is
LINE_FAMILY = {"b_translation": ("Bt-", "k"), "c_translation": ("Ct-", "l"),
               "juhl_up": ("Ct+", "l"), "juhl_down": ("Ct-", "l"),
               "spinor_b_minus": ("sBt-", "k"), "spinor_b_plus": ("sBt+", "k"),
               "spinor_c_minus": ("sCt-", "l"), "spinor_c_plus": ("sCt+", "l")}


class TestIdentityCatalogue:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("tag,kw", [
        ("b_translation", {"k": 0}), ("b_translation", {"k": 2}),
        ("c_translation", {"l": 0}), ("c_translation", {"l": 2}),
        ("juhl_up", {"l": 0}), ("juhl_up", {"l": 2}),
        ("juhl_down", {"l": 1}),
        ("spinor_b_minus", {"k": 1}), ("spinor_b_plus", {"k": 1}),
        ("spinor_c_minus", {"l": 1}), ("spinor_c_plus", {"l": 1}),
        ("spinor_a_closure_minus", {}), ("spinor_a_closure_plus", {}),
    ])
    def test_catalogue(self, n, tag, kw):
        assert check_identity(tag, n, **kw)["ok"]

    @pytest.mark.parametrize("n", [3, 5])
    def test_residue_steps(self, n):
        assert check_identity("residue_step", n, i=1, j=0)["ok"]
        assert check_identity("residue_step_spinor_minus", n, i=1, j=0)["ok"]
        assert check_identity("residue_step_spinor_plus", n, i=2, j=0)["ok"]

    @pytest.mark.parametrize("tag,kw", [
        ("residue_step", {"i": 0, "j": -1}),  # used to report ok
        ("residue_step", {"i": 0, "j": 1}),
        ("residue_step", {"i": 2, "j": 0}),
        ("residue_step_spinor_minus", {"i": -1, "j": -2}),
        ("residue_step_spinor_plus", {"i": 1, "j": 0}),
        ("residue_step_spinor_plus", {"i": -2, "j": -2}),
    ])
    def test_residue_steps_need_lattice_indices(self, tag, kw):
        with pytest.raises(BadParams):
            check_identity(tag, 3, **kw)

    @pytest.mark.parametrize("tag,kw", [
        # each used to report ok with the unused keyword among its params
        ("juhl_up", {"l": 1, "k": 5}), ("spinor_a_closure_minus", {"l": 4}),
        ("b_double_display", {"k": 1, "i": 0}), ("residue_step", {"i": 1, "j": 0, "k": 1}),
        ("xn_kernel", {"i": 1}), ("zeta_kernel", {"k": 1, "l": 1, "j": 0}),
    ])
    def test_foreign_index_keyword(self, tag, kw):
        with pytest.raises(BadParams):
            check_identity(tag, 3, **kw)

    def test_identity_lines_are_family_constraints(self):
        # each identity with a line is stated on the constraint line of one
        # family; at index x the line moves by -2x, as in _identity_sides
        lined = {tag for tag, (_, line, *_) in kernelcalc._IDENTITIES.items() if line}
        assert lined == set(LINE_FAMILY)
        for tag, (family, name) in LINE_FAMILY.items():
            kind, c = kernelcalc._IDENTITIES[tag][1]
            for x in range(5):
                K = make_family(family, 3, **{name: x})
                assert K.meta["constraint"] == (kind, c - 2 * x), (tag, x)

    def test_vanishing_classification(self):
        assert check_identity("xn_kernel", 4, k=2, l=2)["ok"]
        assert check_identity("zeta_kernel", 4, k=2, l=2)["ok"]

    @pytest.mark.parametrize("tag", ["xn_kernel", "zeta_kernel"])
    @pytest.mark.parametrize("kw", [{"k": -1}, {"l": -1}, {"k": -1, "l": -1},
                                    {"k": 0, "l": -2}])
    def test_vanishing_needs_nonnegative_indices(self, tag, kw):
        # a negative index used to check no family and report "ok"
        with pytest.raises(BadParams):
            check_identity(tag, 4, **kw)

    @pytest.mark.parametrize("tag,kw", CONTROL_CASES)
    def test_doubled_rhs_fails(self, tag, kw):
        # negative control: neither side is zero, so the comparison is not
        # vacuous and a wrong factor on either side makes it fail
        lhs, rhs = _identity_sides(tag, 3, **kw)
        assert (lhs - rhs).is_zero()
        assert not (lhs - rhs.scale(ps(2))).is_zero()

    def test_control_covers_table(self):
        assert {tag for tag, _ in CONTROL_CASES} == set(kernelcalc._IDENTITIES)

    def test_verify_cases_cover_table(self):
        # every catalogued tag is run by `sbolab verify kernels`, each residue
        # step only where i - j has its parity
        cases = kernelcalc.identity_cases(3, 2, 1)
        assert {tag for tag, _ in cases} == set(IDENTITY_TAGS)
        for tag, kw in cases:
            if "i" in kw:
                odd = (kw["i"] - kw["j"]) % 2 == 1
                assert odd == (tag != "residue_step_spinor_plus")
        # the step at j = i, even i - j, for each i <= kmax
        assert [kw for tag, kw in cases if "i" in kw and kw["i"] == kw["j"]] == \
            [{"i": i, "j": i} for i in range(3)]
        assert not any("i" in kw for _, kw in kernelcalc.identity_cases(4, 2, 1))
        # the double display of Bt- (j < 0) right after that of Bt+
        cases = kernelcalc.identity_cases(4, 2, 1)
        for k in range(3):
            at = cases.index(("b_double_display", {"k": k}))
            assert cases[at + 1] == ("b_double_display", {"k": k, "j": -1})

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            check_identity("nonsense", 4)

    def test_all_tags_run(self):
        kwargs = {"b_translation": {"k": 1}, "c_translation": {"l": 1},
                  "juhl_up": {"l": 1}, "juhl_down": {"l": 1},
                  "b_double_display": {"k": 1},
                  "spinor_b_minus": {"k": 1}, "spinor_b_plus": {"k": 1},
                  "spinor_c_minus": {"l": 1}, "spinor_c_plus": {"l": 1},
                  "spinor_a_closure_minus": {}, "spinor_a_closure_plus": {},
                  "residue_step": {"i": 1, "j": 0},
                  "residue_step_spinor_minus": {"i": 1, "j": 0},
                  "residue_step_spinor_plus": {"i": 2, "j": 0},
                  "xn_kernel": {"k": 1, "l": 1}, "zeta_kernel": {"k": 1, "l": 1}}
        assert set(kwargs) == set(IDENTITY_TAGS)
        for tag, kw in kwargs.items():
            n = 3 if tag.startswith("residue") else 4
            assert check_identity(tag, n, **kw)["ok"], tag


class TestSymmetry:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("tag,kw,par", [
        ("A+", {}, 0), ("A-", {}, 1), ("Bt+", {"k": 1}, 0), ("Bt-", {"k": 1}, 1),
        ("Ct+", {"l": 2}, 0), ("Ct-", {"l": 1}, 1),
        ("sBt+", {"k": 1}, 0), ("sBt-", {"k": 1}, 1),
        ("sCt+", {"l": 1}, 0), ("sCt-", {"l": 1}, 1),
        ("sAt+", {}, 0), ("sAt-", {}, 1)])
    def test_families(self, n, tag, kw, par):
        K = make_family(tag, n, **kw)
        rep = symmetry_checks(K, par)
        assert rep["rotations"] == "ok"

    def test_wrong_parity_detected(self):
        with pytest.raises(SymmetryFailure):
            symmetry_checks(make_family("A+", 4), 1)

    def test_homogeneity_matches_a_family_on_line(self):
        for tag, kw in (("Bt+", {"k": 2}), ("Bt-", {"k": 1}),
                        ("Ct+", {"l": 2}), ("Ct-", {"l": 1})):
            K = make_family(tag, 4, **kw)
            line = K.meta["constraint"]
            A = _on_line(make_family("A+" if tag.endswith("+") else "A-", 4), line)
            d_fam = {repr(_term_degree(4, key)) for key in _on_line(K, line).terms}
            d_a = {repr(_term_degree(4, key)) for key in A.terms}
            assert d_fam == d_a and len(d_fam) == 1


class TestProjection:
    @pytest.mark.parametrize("n", [4, 6])
    def test_projected_kernels_stay_invariant(self, n):
        # the row twist switches to the smaller spin module after projection
        for tag, kw, par in (("sBt-", {"k": 1}, 1), ("sCt+", {"l": 1}, 0),
                             ("sAt+", {}, 0)):
            rep = symmetry_checks(project(make_family(tag, n, **kw)), par)
            assert rep["rotations"] == "ok"

    def test_projected_residue_forms_odd_n(self):
        for tag, kw, par in (("sAtt-", {"i": 1, "j": 0}, 1),
                             ("sAtt+", {"i": 2, "j": 0}, 0)):
            rep = symmetry_checks(project(make_family(tag, 5, **kw)), par)
            assert rep["rotations"] == "ok"

    @pytest.mark.parametrize("n", [4, 6])
    def test_support_unchanged_even(self, n):
        for tag, kw in (("sAt+", {}), ("sAt-", {}), ("sBt+", {"k": 1}),
                        ("sBt-", {"k": 2}), ("sCt+", {"l": 1}), ("sCt-", {"l": 2})):
            K = make_family(tag, n, **kw)
            assert support(project(K)) == support(K)

    def test_projection_shape(self):
        from sbolab.cliffspin import spin_dim
        K = project(make_family("sCt+", 4, l=1))
        assert K.shape == (spin_dim(3), spin_dim(4))


class TestSerialization:
    def test_roundtrip_determinism(self):
        import json
        K = make_family("sBt-", 4, k=1)
        a = json.dumps(to_json_dict(K), sort_keys=True)
        b = json.dumps(to_json_dict(make_family("sBt-", 4, k=1)), sort_keys=True)
        assert a == b

    def test_schema_fields(self):
        d = to_json_dict(make_family("Bt+", 4, k=1))
        assert d["n"] == 4 and d["shape"] is None
        for t in d["terms"]:
            assert t["variant"] == "boundary"
            assert set(t) >= {"coeff", "delta_order", "xp_exp", "prefactor"}


def random_kernel(rng, n, shape=None):
    """Random mixed-variant kernel expression with small integer data."""
    nx = n - 1
    raw = {}
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["S", "B", "P"])
        coeff = ps(GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)))
        if coeff.is_zero():
            continue
        if kind == "S":
            mono = tuple(rng.randint(0, 2) for _ in range(nx))
            key = ("S", rng.randint(0, 1), AffineExp(1, 1, rng.randint(-2, 2)),
                   AffineExp(0, -1, rng.randint(-2, 0)), mono)
        elif kind == "B":
            mono = tuple(rng.randint(0, 1) for _ in range(nx))
            key = ("B", rng.randint(0, 3), AffineExp(0, -2, rng.randint(-3, 1)),
                   AffineExp(), mono)
        else:
            key = ("P", tuple(rng.randint(0, 2) for _ in range(n)))
        if shape:
            val = {(rng.randrange(shape[0]), rng.randrange(shape[1])): coeff}
        else:
            val = coeff
        raw[key] = val
    return KernelExpr(n, shape, raw)


class TestRandomizedInvariants:
    def test_zeta_squared_random(self):
        rng = random.Random(7)
        for n in (3, 4):
            for _ in range(8):
                K = random_kernel(rng, n)
                assert mult_zeta(mult_zeta(K)) == \
                    as_matrix(mult_norm2(K)).scale(ps(-1))

    def test_linearity_random(self):
        rng = random.Random(8)
        for n in (3, 4):
            for _ in range(6):
                K1, K2 = random_kernel(rng, n), random_kernel(rng, n)
                assert mult_xn(K1 + K2) == mult_xn(K1) + mult_xn(K2)
                assert mult_zeta(K1 + K2) == mult_zeta(K1) + mult_zeta(K2)

    def test_support_shrinks_random(self):
        rng = random.Random(9)
        order = {"empty": 0, "origin": 1, "hyperplane": 2, "full": 3}
        for _ in range(10):
            K = random_kernel(rng, 4)
            assert order[support(mult_xn(K))] <= order[support(K)]

    def test_normalization_idempotent_random(self):
        rng = random.Random(10)
        for _ in range(10):
            K = random_kernel(rng, 4)
            assert KernelExpr(K.n, K.shape, dict(K.terms)) == K


# -- golden digest of every family normal form -----------------------------------

GOLDEN_FAMILIES = os.path.join(os.path.dirname(__file__), "golden",
                               "kernel_families.json")


def _index_cases(name, n):
    """The index keywords of the digest cases of a family index name: none,
    k or l in 0..2, or at odd n each j <= i <= 2 with i - j of the parity."""
    if name is None:
        return [{}]
    if name in ("k", "l"):
        return [{name: x} for x in range(3)]
    odd = name == "ij_odd"
    return [{"i": i, "j": j} for i in range(3) for j in range(i + 1)
            if n % 2 and (i - j) % 2 == odd]


def _family_cases(ns=range(2, 6)):
    """(case name, kernel) for every catalogued tag at each n in ns, at the
    index keywords of `_index_cases`."""
    for n in ns:
        cases = [(tag, kw) for tag, (name, _) in kernelcalc._FAMILIES.items()
                 for kw in _index_cases(name, n)]
        for tag, kw in cases:
            name = " ".join(["%s n=%d" % (tag, n)] +
                            ["%s=%d" % p for p in sorted(kw.items())])
            for form in ("radial", "expanded"):
                K = make_family(tag, n, form=form, **kw)
                yield "%s %s" % (name, form), K
            if K.shape:
                yield name + " project", project(K)
            if "constraint" in K.meta:
                yield name + " line", _on_line(K, K.meta["constraint"])


def family_digests():
    return {name: hashlib.sha256(json.dumps(to_json_dict(K), sort_keys=True)
                                 .encode()).hexdigest()
            for name, K in _family_cases()}


def test_family_digests_match_golden():
    with open(GOLDEN_FAMILIES) as fh:
        want = json.load(fh)
    got = family_digests()
    assert len(want) == 452
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []



# -- mult_zeta against the per-coordinate and dense products ----------------------

def _mult_xi(K, i):
    """x_i K for i < n (acts on the x'-dependence), normalized whole when
    i = 1, the only coordinate whose raised exponent can leave the normal
    form."""
    out = {}
    for key, val in K.terms.items():
        if key[0] != "P":
            kernelcalc._put(out, key[:4] + (kernelcalc._bump(key[4], i - 1, 1),), val)
        else:
            ai = key[1][i - 1]
            if ai > 0:
                kernelcalc._put(out, ("P", kernelcalc._bump(key[1], i - 1, -1)), val, -ai)
    return K.copy_with(out, normalized=i > 1)


def _coordinate_products(K):
    """The kernels x_i K for i = 1..n."""
    return [mult_xn(K) if i == K.n else _mult_xi(K, i) for i in range(1, K.n + 1)]


def route_mult_zeta(K):
    """zeta(x) K as sum_i zeta_n(e_i) (x_i K): n normalized kernels x_i K,
    each remapped on the blades, the route the one-pass product replaced."""
    n = K.n
    out = {}
    for i, xi in enumerate(_coordinate_products(K), 1):
        for key, val in xi.terms.items():
            kernelcalc._put(out, key, kernelcalc._zeta_lmul(n, i, val))
    return KernelExpr(n, (spin_dim(n),) * 2, out,
                      kernelcalc._shift_meta(K.meta, rat("1/2"), -rat("1/2")),
                      normalized=True)


def dense_mult_zeta(K):
    """zeta(x) K as sum_i zeta_n(e_i) (x_i K) with dense matrix products: the
    route the blade remap replaced.  The constructor takes the dense values
    back to blades."""
    n = K.n
    dim = spin_dim(n)
    out = {}
    for i, xi in enumerate(_coordinate_products(K), 1):
        zi = zeta_matrix(n, "+", i)
        for key, val in xi.terms.items():
            kernelcalc._put(out, key, kernelcalc._matmul(zi.entries,
                                                         blade_matrix(n, val)))
    return KernelExpr(n, (dim, dim), out,
                      kernelcalc._shift_meta(K.meta, rat("1/2"), -rat("1/2")))


def _zeta_cases():
    """(name, K) for every family case on which zeta_n(x) acts, n = 2..6."""
    return [(name, K) for name, K in _family_cases(range(2, 7))
            # zeta_n(x) does not act on S_{n-1}-valued kernels
            if not name.endswith("project")]


def test_mult_zeta_matches_dense_product():
    for name, K in _zeta_cases():
        Z = mult_zeta(K)
        assert to_json_dict(Z) == to_json_dict(dense_mult_zeta(K)), name
        assert to_json_dict(mult_zeta(Z)) == to_json_dict(dense_mult_zeta(Z)), name


def test_one_pass_mult_zeta_matches_coordinate_route():
    """The one-pass product, which normalizes only the terms whose x_1
    exponent rises to 2, equals the sum of the n normalized x_i K."""
    for name, K in _zeta_cases():
        Z, R = mult_zeta(K), route_mult_zeta(K)
        assert (Z.terms, Z.meta) == (R.terms, R.meta), name
        assert mult_zeta(Z).terms == route_mult_zeta(Z).terms, name


def test_multipliers_build_normal_forms():
    """mult_xn, mult_norm2, mult_zeta, the oracle's x_i K for i >= 2 and the
    parameter substitutions skip _normalize: their results are normal by
    construction, so normalizing them again changes nothing."""
    for name, K in _family_cases(range(3, 7)):
        outs = [mult_xn(K), mult_norm2(K)]
        outs += [_mult_xi(K, i) for i in range(2, K.n)]
        outs += [K.shift_params(-1, 0), K.shift_params(rat("-1/2"), rat("1/2"))]
        if "constraint" in K.meta:  # a "sum" line or a "diff" line
            outs.append(kernelcalc._on_line(K, K.meta["constraint"]))
        if K.row_n == K.n:
            outs.append(mult_zeta(K))
        for out in outs:
            assert kernelcalc._normalize(K.n, out.terms) == out.terms, name


# -- the one coordinate rule against the per-kind rules it replaced -------------

def reference_r2_prime(key):
    """|x'|^2 times a normal Smooth or Boundary term, as the quotient step of
    _normalize wrote it before _r2_prime."""
    kind, a, b, r, mono = key
    if kind == "S":
        # |x'|^2 = (|x'|^2 + x_n^2) - x_n^2
        return [(("S", a, b, r + 1, mono), 1), (("S", a, b + 2, r, mono), -1)]
    return [(("B", a, b + 2, AffineExp(), mono), 1)]


def reference_mult_norm2(K):
    """The terms of |x|^2 K by the per-kind factors mult_norm2 once stated on
    its own: r + 1 on a smooth term, |x'|^{xp+2} and m(m-1) delta^(m-2) on a
    boundary term, alpha_i(alpha_i-1) d^{alpha-2e_i} delta on a point term."""
    put, bump = kernelcalc._put, kernelcalc._bump
    out = {}
    for key, val in K.terms.items():
        kind = key[0]
        if kind == "S":
            _, par, xn, r, mono = key
            put(out, ("S", par, xn, r + 1, mono), val)
        elif kind == "B":
            _, m, xp, r, mono = key
            put(out, ("B", m, xp + 2, r, mono), val)
            if m >= 2:
                put(out, ("B", m - 2, xp, r, mono), val, m * (m - 1))
        else:
            alpha = key[1]
            for i, ai in enumerate(alpha):
                if ai >= 2:
                    put(out, ("P", bump(alpha, i, -2)), val, ai * (ai - 1))
    return out


def reference_rotation_apply(K, a, b):
    """The rotation defect with one exponent-move loop per term kind, in the
    mirrored orders _rotation_apply used before its one loop."""
    put, bump = kernelcalc._put, kernelcalc._bump
    out = {}
    for key, val in K.terms.items():
        if key[0] != "P":
            mono = key[4]
            for (src, dst) in ((b, a), (a, b)):
                e = mono[src - 1]
                if e:
                    nm = bump(bump(mono, src - 1, -1), dst - 1, 1)
                    sgn = 1 if src == b else -1
                    put(out, key[:4] + (nm,), val, -sgn * e)
        else:
            alpha = key[1]
            for (src, dst, sgn) in ((a, b, 1), (b, a, -1)):
                e = alpha[src - 1]
                if e:
                    na = bump(bump(alpha, src - 1, -1), dst - 1, 1)
                    put(out, ("P", na), val, sgn * e)
    defect = K.copy_with(out)
    if K.shape:
        Xrow, Xcol = (blade_matrix(m, {1 << (a - 1) | 1 << (b - 1): ParamScalar(1, 2)})
                      for m in (K.row_n, K.n))
        tw = {}
        for key, val in K.terms.items():
            if K.row_n == K.n:
                val = blade_matrix(K.n, val)
            put(tw, key, kernelcalc._matmul(Xrow, val))
            put(tw, key, kernelcalc._matmul(val, Xcol), -1)
        defect = defect + K.copy_with(tw)
    return defect


def _oracle_kernels():
    """(kind, K): random scalar and spinor kernels at n = 2..6 and the
    projections of the spinor ones; none is rotation invariant by design."""
    rng = random.Random(27)
    for n in range(2, 7):
        for _ in range(5):
            yield "scalar", random_kernel(rng, n)
            S = random_kernel(rng, n, (spin_dim(n),) * 2)
            yield "spinor", S
            yield "projected", project(S)


def test_mult_norm2_matches_per_kind_rules():
    cases = list(_oracle_kernels()) + list(_family_cases(range(2, 6)))
    for name, K in cases:
        N = mult_norm2(K)
        assert (N.terms, N.meta) == (reference_mult_norm2(K), K.meta), name
    assert any(not mult_norm2(K).is_zero() for _, K in cases)


def test_r2_prime_matches_quotient_branch(monkeypatch):
    """Every |x'|^2 step, from the quotient of _normalize, from mult_zeta's
    terms whose x_1 exponent rises to 2 and from mult_norm2, equals the
    branch _normalize used to hold."""
    real, seen = kernelcalc._r2_prime, set()

    def checked(key):
        got = real(key)
        assert list(got) == reference_r2_prime(key), key
        seen.add(key[0])
        return got
    monkeypatch.setattr(kernelcalc, "_r2_prime", checked)
    for _, K in _oracle_kernels():
        KernelExpr(K.n, K.shape, dict(K.terms), row_n=K.row_n)
        mult_norm2(K)
        if K.row_n == K.n:
            mult_zeta(K)
    assert seen == {"S", "B"}


def test_rotation_defect_matches_per_kind_loops():
    nonzero = set()
    for kind, K in _oracle_kernels():
        for a in range(1, K.n):
            for b in range(a + 1, K.n):
                D = kernelcalc._rotation_apply(K, a, b)
                R = reference_rotation_apply(K, a, b)
                assert (D.terms, D.shape, D.row_n) == (R.terms, R.shape, R.row_n), \
                    (kind, K.n, a, b)
                if not D.is_zero():
                    nonzero.add((kind, K.n))
    # the comparison is not vacuous: a defect for every kind at every n >= 3
    assert nonzero == {(kind, n) for kind in ("scalar", "spinor", "projected")
                       for n in range(3, 7)}


# -- the blades against the dense zeta_n(e_i) products ----------------------------

def dense_blade(n, mask):
    """zeta_n(e_S) as the product of the zeta_n(e_i) matrices, i in S ascending."""
    M = SpinMap.identity(spin_dim(n))
    for i in range(1, n + 1):
        if mask >> (i - 1) & 1:
            M = M.compose(zeta_matrix(n, "+", i))
    return M


def ps_entries(M):
    return {rc: ps(v) for rc, v in M.entries.items()}


@pytest.mark.parametrize("n", range(2, 8))
def test_blade_table_matches_dense_products(n):
    # the canonical blades run over e_1..e_n at even n and e_1..e_{n-1} at odd
    # n; left multiplication by every generator, e_n at odd n included
    one = ps(1)
    for s in range(1 << (n - n % 2)):
        M = dense_blade(n, s)
        assert blade_matrix(n, {s: one}) == ps_entries(M)
        assert kernelcalc._matrix_blades(n, ps_entries(M)) == {s: one}
        for gen in range(1, n + 1):
            got = blade_matrix(n, kernelcalc._zeta_lmul(n, gen, {s: one}))
            assert got == ps_entries(zeta_matrix(n, "+", gen).compose(M)), (s, gen)


scalars = st.builds(lambda a, b, c, k: _ps_times_i_power(
    k, ParamScalar(affine(a, b, c))),
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3),
    st.integers(0, 3)).filter(lambda x: not x.is_zero())


@st.composite
def blade_cases(draw):
    """n, two spinor kernels with random blade values on point terms (so
    normalization leaves them as they are) and a generator."""
    n = draw(st.integers(2, 6))
    keys = st.tuples(*[st.integers(0, 1)] * n).map(lambda a: ("P", a))
    values = st.dictionaries(st.integers(0, (1 << (n - n % 2)) - 1), scalars,
                             min_size=1, max_size=4)
    dim = spin_dim(n)
    K1, K2 = (KernelExpr(n, (dim, dim), draw(st.dictionaries(keys, values,
                                                             max_size=3)))
              for _ in range(2))
    return n, K1, K2, draw(st.integers(1, n))


def dense(K):
    return {key: blade_matrix(K.n, v) for key, v in K.terms.items()}


def dense_map(D, f):
    """f on every entry of the dense values, zero entries and values dropped."""
    out = {}
    for key, m in D.items():
        m = {rc: y for rc, y in ((rc, f(x)) for rc, x in m.items()) if not y.is_zero()}
        if m:
            out[key] = m
    return out


def dense_add(D, E):
    out = {key: dict(m) for key, m in D.items()}
    for key, m in E.items():
        acc = out.setdefault(key, {})
        for rc, x in m.items():
            acc[rc] = acc[rc] + x if rc in acc else x
    return dense_map(out, lambda x: x)


def dense_product(a, b):
    out = {}
    for (r, c), x in a.items():
        for (c2, cc), y in b.items():
            if c2 == c:
                out[(r, cc)] = out.get((r, cc), ps(0)) + ps(x) * y
    return {rc: x for rc, x in out.items() if not x.is_zero()}


@given(blade_cases(), scalars, st.integers(-2, 2),
       st.fractions(min_value=-2, max_value=2, max_denominator=2))
@settings(max_examples=60, deadline=None)
def test_blades_to_matrix_commutes(case, c, e, f):
    n, K1, K2, gen = case
    assert dense(K1 + K2) == dense_add(dense(K1), dense(K2))
    assert dense(K1.scale(c)) == dense_map(dense(K1), lambda x: x * c)
    Z = K1.copy_with({key: kernelcalc._zeta_lmul(n, gen, v)
                      for key, v in K1.terms.items()})
    zg = zeta_matrix(n, "+", gen).entries
    assert dense(Z) == {key: dense_product(zg, m) for key, m in dense(K1).items()}
    assert dense(K1.subs_lam(e, f)) == dense_map(dense(K1), lambda x: x.subs_lam(e, f))
    assert dense(K1.shift_params(e, f)) == dense_map(dense(K1), lambda x: x.shift(e, f))


# -- the Laplacian's multi-indices against the recursive enumeration ------------

def recursive_laplacian_monomials(n, j):
    """(multi-index, multinomial weight) pairs for (sum_{a<n} d_a^2)^j by a
    recursion n - 1 deep (the route the bars enumeration replaced)."""
    nx = n - 1
    out = []

    def rec(pos, remaining, alpha, weight):
        if pos == nx - 1:
            a = alpha + [remaining]
            w = weight // factorial(remaining)
            out.append((tuple(a) + (0,), w))
            return
        for t in range(remaining + 1):
            rec(pos + 1, remaining - t, alpha + [t], weight // factorial(t))

    rec(0, j, [], factorial(j))
    return [(tuple(2 * a for a in alpha[:-1]) + (0,), w) for alpha, w in out]


@pytest.mark.parametrize("n", range(2, 9))
def test_laplacian_monomials_match_recursion(n):
    for j in range(4):
        got = kernelcalc._laplacian_monomials(n, j)
        assert got == recursive_laplacian_monomials(n, j), (n, j)
        # the weights are the multinomial expansion of (n - 1 ones)^j
        assert sum(w for _, w in got) == (n - 1) ** j
