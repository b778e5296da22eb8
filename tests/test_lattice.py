import functools
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import sbolab
from sbolab import linalg
from sbolab.paramfield import (GaussianRational, ParamScalar, PS_LAM, PS_NU,
                               PS_I, evaluate, rat)
from sbolab.cliffspin import DimensionMismatch
from sbolab.monogenics import (lambda_constant, NotAdjacent, _split_label,
                               _adjacent_move)
from sbolab.sbolattice import (build_system, solve_dimension, multiplicity,
                               composition_multiplicity, composition_table,
                               expected_composition, on_special_set,
                               lattice_point, BadDepth, BadLabel, _echelon,
                               _real_frame, _level_rows, _PAIRS)


# -- the symbolic sector rows: the oracle for the rows built at the point -----

def _sector_rows(n, i, j, sigma):
    """Coefficient rows of the three sector identities at (i, j) in the
    symbolic lam, nu: {(k, l): ParamScalar}, invalid neighbor indices
    dropped.  sigma = +-1 selects the sector."""
    c = ParamScalar.coerce
    L, N = PS_LAM, PS_NU
    r, rh = Fraction(n, 2), Fraction(n - 1, 2)
    lam_up = L + c(r + Fraction(1, 2) + i)
    lam_dn = L - c(r - Fraction(1, 2) + i)
    even = n % 2 == 0
    sgn = sigma * (-1) ** (i - j)
    rows = []
    # family 1: couples (i, j) to degree j+1 neighbors
    row = {(i, j): c((n + 2 * i - 1) * (n + 2 * i + 1)) *
           (N + c(rh + Fraction(1, 2) + j))}
    row[(i + 1, j + 1)] = -c((n + 2 * i - 1) * (n + 2 * j - 1)) * lam_up
    if j + 1 <= i:
        mid = c(2 * (n + 2 * j - 1)) * L
        row[(i, j + 1)] = (c(sgn) * PS_I * mid if even else mid)
    if j + 1 <= i - 1:
        row[(i - 1, j + 1)] = c((n + 2 * i + 1) * (n + 2 * j - 1)) * lam_dn
    rows.append(row)
    # family 2: horizontal neighbors
    lead = c((n + 2 * i - 1) * (n + 2 * i + 1)) * N - \
        c(sgn * (n + 2 * i) * (n + 2 * j - 1)) * L
    row = {(i, j): lead}
    up = c((i - j + 1) * (n + 2 * i - 1)) * lam_up
    dn = c((n + 2 * i + 1) * (n + i + j - 1)) * lam_dn
    if even:
        row[(i + 1, j)] = PS_I * up
        if i - 1 >= j:
            row[(i - 1, j)] = -PS_I * dn
    else:
        row[(i + 1, j)] = c(sgn) * up
        if i - 1 >= j:
            row[(i - 1, j)] = -c(sgn) * dn
    rows.append(row)
    # family 3: couples (i, j) to degree j-1 neighbors
    if j >= 1:
        row = {(i, j): c((n + 2 * i - 1) * (n + 2 * i + 1) * (n + 2 * j - 3)) *
               (N - c(rh - Fraction(1, 2) + j))}
        row[(i + 1, j - 1)] = c((i - j + 1) * (i - j + 2) * (n + 2 * i - 1)) * lam_up
        mid = c(2 * (i - j + 1) * (n + i + j - 1)) * L
        row[(i, j - 1)] = (c(sgn) * PS_I * mid if even else mid)
        if i - 1 >= j - 1:
            row[(i - 1, j - 1)] = -c((n + 2 * i + 1) * (n + i + j - 2) *
                                     (n + i + j - 1)) * lam_dn
        rows.append(row)
    return rows


# -- the symbolic derivation: the general identity from the lambda constants,
# the printed displays and the t-coefficient system, the oracles for the
# sector rows and the sector reduction ----------------------------------------

def casimir_difference(n, alpha, beta, primed=False):
    """Casimir eigenvalue difference sigma_beta - sigma_alpha for one move.

    The primed variant is the same table one dimension down (the subgroup's
    K-types).
    """
    mv = _adjacent_move(alpha, beta)
    if mv is None:
        raise NotAdjacent("labels %r, %r are not adjacent" % (alpha, beta))
    i = _split_label(alpha)[0]
    dim = n - 1 if primed else n
    if mv[0] == 1:
        return 2 * i + dim + 1
    if mv[0] == -1:
        return -2 * i - dim + 1
    return 0


def general_identity_instance(n, alpha, alphap, betap):
    """One instance of the general scalar identity, with symbolic lam, nu.

    Returns {label: ParamScalar} representing sum_label coeff * t_label = 0,
    where label = (alpha, alphap) for the left side and (beta, betap) for
    every adjacent beta containing betap.
    """
    mvp = _adjacent_move(alphap, betap)
    if mvp is None:
        raise NotAdjacent("alphap and betap are not adjacent")
    i, si = _split_label(alpha)
    jp, sjp = _split_label(betap)
    out = {}
    lhs = (PS_NU * 2 + ParamScalar.coerce(casimir_difference(n, alphap, betap,
                                                             primed=True)))
    out[(alpha, alphap)] = lhs
    if n % 2 == 0:
        betas = [(i + 1, si), (i, -si), (i - 1, si)]
    else:
        betas = [i + 1, i, i - 1]
    for beta in betas:
        ib = _split_label(beta)[0]
        if ib < 0 or jp > ib:
            continue
        try:
            lam = lambda_constant(n, alpha, alphap, beta, betap)
        except NotAdjacent:
            continue
        coeff = lam * (PS_LAM * 2 + ParamScalar.coerce(
            casimir_difference(n, alpha, beta)))
        key = (beta, betap)
        out[key] = out.get(key, ParamScalar.coerce(0)) - coeff
    return out


def scalar_identity_display(n, i, j, which, sign):
    """The three displayed t-coefficient identities for even n, as printed.

    which is 1, 2 or 3 (target degree j+1, j or j-1); sign is the +-1 carried
    by alpha = (i, sign).  Returned as {label: ParamScalar} with the same
    normalization as the printed displays (denominators cleared).
    """
    if n % 2:
        raise NotAdjacent("displays are stated for even n")
    s = sign
    L, N = PS_LAM, PS_NU
    c = ParamScalar.coerce
    r, rh = rat(n) / 2, rat(n - 1) / 2
    lam_up = L + c(rat(r) + rat("1/2") + i)
    lam_dn = L - c(rat(r) - rat("1/2") + i)
    out = {}
    if which == 1:
        out[((i, s), j)] = c((n + 2 * i - 1) * (n + 2 * i + 1)) * \
            (N + c(rat(rh) + rat("1/2") + j))
        out[((i + 1, s), j + 1)] = -c((n + 2 * i - 1) * (n + 2 * j - 1)) * lam_up
        out[((i, -s), j + 1)] = -c(2 * (n + 2 * j - 1) * s) * PS_I * L
        out[((i - 1, s), j + 1)] = c((n + 2 * i + 1) * (n + 2 * j - 1)) * lam_dn
    elif which == 2:
        out[((i, s), j)] = c((n + 2 * i - 1) * (n + 2 * i + 1)) * N
        out[((i + 1, s), j)] = c((i - j + 1) * (n + 2 * i - 1) * s) * PS_I * lam_up
        out[((i, -s), j)] = -c((n + 2 * i) * (n + 2 * j - 1)) * L
        out[((i - 1, s), j)] = -c((n + 2 * i + 1) * (n + i + j - 1) * s) * PS_I * lam_dn
    elif which == 3:
        out[((i, s), j)] = c((n + 2 * i - 1) * (n + 2 * i + 1) * (n + 2 * j - 3)) * \
            (N - c(rat(rh) - rat("1/2") + j))
        out[((i + 1, s), j - 1)] = c((i - j + 1) * (i - j + 2) * (n + 2 * i - 1)) * lam_up
        out[((i, -s), j - 1)] = -c(2 * (i - j + 1) * (n + i + j - 1) * s) * PS_I * L
        out[((i - 1, s), j - 1)] = -c((n + 2 * i + 1) * (n + i + j - 2) * (n + i + j - 1)) * lam_dn
    else:
        raise ValueError("which must be 1, 2 or 3")
    return {k: v for k, v in out.items()
            if not v.is_zero() and 0 <= k[1] <= k[0][0]}


def build_t_system(n, lam0, nu0, depth):
    """The untwisted system in the doubled unknowns t_{alpha,alphap}.

    Used to cross-check that the sector reduction preserves total dimension.
    """
    lam0 = GaussianRational.coerce(lam0)
    nu0 = GaussianRational.coerce(nu0)
    idx = {}
    even = n % 2 == 0
    for i in range(depth + 1):
        for j in range(i + 1):
            for s in (1, -1):
                lbl = ((i, s), j) if even else (i, (j, s))
                idx[lbl] = len(idx)
    rows = []
    for i in range(depth):
        for j in range(i + 1):
            for s in (1, -1):
                alpha, alphap = ((i, s), j) if even else (i, (j, s))
                for dj in (1, 0, -1):
                    if even:
                        betaps = [j + dj] if dj else [j]
                    else:
                        betaps = [(j + dj, s)] if dj else [(j, -s)]
                    for betap in betaps:
                        jb = _split_label(betap)[0]
                        if jb < 0:
                            continue
                        try:
                            con = general_identity_instance(n, alpha, alphap, betap)
                        except NotAdjacent:
                            continue
                        row = {}
                        for lbl, coeff in con.items():
                            kb, lb = _split_label(lbl[0])[0], _split_label(lbl[1])[0]
                            if not (0 <= lb <= kb):
                                continue
                            if kb > depth:
                                row = None
                                break
                            v = evaluate(coeff, lam0, nu0)
                            if not v.is_zero():
                                row[idx[lbl]] = v
                        if row:
                            rows.append(row)
    return rows, len(idx)


def t_system_dimension(n, lam0, nu0, depth):
    rows, ncols = build_t_system(n, lam0, nu0, depth)
    return len(linalg.nullspace(rows, ncols))


class TestCasimir:
    def test_up(self):
        assert casimir_difference(4, (1, 1), (2, 1)) == 2 * 1 + 4 + 1

    def test_flip(self):
        assert casimir_difference(4, (1, 1), (1, -1)) == 0

    def test_down(self):
        assert casimir_difference(4, (2, 1), (1, 1)) == -2 * 2 - 4 + 1

    def test_primed_uses_smaller_group(self):
        assert casimir_difference(4, 1, 2, primed=True) == 2 * 1 + 3 + 1

    def test_not_adjacent(self):
        with pytest.raises(NotAdjacent):
            casimir_difference(4, (1, 1), (3, 1))


class TestGeneralIdentity:
    @pytest.mark.parametrize("n", [4, 6])
    def test_reproduces_printed_displays(self, n):
        for i in range(5):
            for j in range(i + 1):
                for s in (1, -1):
                    for which, betap in ((1, j + 1), (2, j), (3, j - 1)):
                        if betap < 0:
                            continue
                        gen = general_identity_instance(n, (i, s), j, betap)
                        mult = ParamScalar.coerce((n + 2 * i - 1) * (n + 2 * i + 1))
                        if which == 3:
                            mult = mult * ParamScalar.coerce(n + 2 * j - 3)
                        mult = mult * ParamScalar(1, 2)
                        scaled = {k: v * mult for k, v in gen.items()
                                  if not v.is_zero()}
                        disp = scalar_identity_display(n, i, j, which, s)
                        for key in set(scaled) | set(disp):
                            assert scaled.get(key, ParamScalar.coerce(0)) == \
                                disp.get(key, ParamScalar.coerce(0)), \
                                (n, i, j, s, which, key)

    def test_lead_coefficient_example(self):
        # at (i,j) = (1,0), n = 4 the horizontal identity reads
        # 35 nu -+ (-1) 18 lam on the two sectors
        for sigma in (1, -1):
            lead = _sector_rows(4, 1, 0, sigma)[1][(1, 0)]
            want = ParamScalar.coerce(35) * PS_NU - \
                ParamScalar.coerce(sigma * (-1) * 18) * PS_LAM
            assert lead == want

    def test_diagonal_instance(self):
        # at (i,i) only the up-diagonal neighbor survives
        rows = _sector_rows(4, 2, 2, 1)
        row = rows[0]
        assert set(row) == {(2, 2), (3, 3)}


@functools.lru_cache(maxsize=None)
def _symbolic_rows(n, sigma, depth):
    return tuple(row for i in range(depth) for j in range(i + 1)
                 for row in _sector_rows(n, i, j, sigma))


def _evaluated_symbolic_rows(n, sigma, depth, points, region=None):
    """The symbolic sector rows of the whole triangle, evaluated at each
    point and filtered as build_system does: the oracle for the rows that
    build_system computes directly at the point."""
    symbolic = _symbolic_rows(n, sigma, depth)
    out = []
    for lam0, nu0 in points:
        lam0, nu0 = GaussianRational.coerce(lam0), GaussianRational.coerce(nu0)
        rows = []
        for row in symbolic:
            num = {}
            for (k, l), coeff in row.items():
                v = evaluate(coeff, lam0, nu0)
                if 0 <= l <= k and (region is None or region(k, l)) \
                        and not v.is_zero():
                    num[(k, l)] = v
            if num:
                rows.append(num)
        out.append(rows)
    return out


class TestRowsAtThePoint:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_build_system_matches_evaluated_symbolic_rows(self, n, sigma):
        r, rh = rat(n) / 2, rat(n - 1) / 2
        points = [(-(r + rat("1/2") + 3), -(rh + rat("1/2") + 1)),  # special
                  (-(r + rat("1/2") + 1), -(rh + rat("1/2") + 2)),  # j > i
                  (rat("1/3"), rat("-2/7"))]                        # generic
        want = _evaluated_symbolic_rows(n, sigma, 8, points)
        for (lam0, nu0), rows in zip(points, want):
            system = build_system(n, lam0, nu0, sigma, 8)
            assert system.constraints == rows, (n, sigma, lam0, nu0)
            assert all(isinstance(v, GaussianRational)
                       for con in system.constraints for v in con.values())


class TestSolveDimension:
    def test_unknown_count(self):
        # unknowns s_{i,j} with j <= i <= depth; their count less the rank
        # is the dimension solve_dimension reports
        sys_ = build_system(4, 0, 0, 1, 6)
        cols, piv = _echelon(sys_.rows, sys_.depth, sys_.region)
        assert len(cols) == 7 * 8 // 2
        assert len(cols) - len(piv) == solve_dimension(sys_).dim

    def test_generic_point(self):
        r = multiplicity(4, 0, 0, depth=10)
        assert r == {"dim_plus": 1, "dim_minus": 1, "total": 2,
                     "stabilized": True, "on_lattice": False}

    def test_special_point_even_gap(self):
        r = multiplicity(4, "-5/2", -2, depth=10)
        assert (r["dim_plus"], r["dim_minus"]) == (2, 1)
        assert r["total"] == 3 and r["on_lattice"]

    def test_special_point_odd_gap(self):
        r = multiplicity(4, "-7/2", -2, depth=10)
        assert (r["dim_plus"], r["dim_minus"]) == (1, 2)

    def test_odd_n_special_point(self):
        r = multiplicity(5, -3, "-5/2", depth=10)
        assert r["total"] == 3 and r["on_lattice"]
        assert (r["dim_plus"], r["dim_minus"]) == (2, 1)

    def test_depth_guard(self):
        with pytest.raises(BadDepth):
            build_system(4, 0, 0, 1, 1)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_dimension_guard(self, n):
        with pytest.raises(DimensionMismatch):
            build_system(n, 0, 0, 1, 4)
        with pytest.raises(ValueError):
            multiplicity(n, "-5/2", -2, depth=4)

    def test_monotone_stability(self):
        for depth in (8, 9, 10):
            s = solve_dimension(build_system(4, "-5/2", -2, 1, depth))
            assert s.dim == 2 and s.stabilized

    def test_basis_solves_system(self):
        from sbolab.paramfield import ZERO
        sys_ = build_system(4, "-5/2", -2, 1, 8)
        sol = solve_dimension(sys_)
        for vec in sol.basis:
            for con in sys_.constraints:
                acc = ZERO
                for key, coeff in con.items():
                    acc = acc + coeff * vec.get(key, ZERO)
                assert acc.is_zero()


class TestSpecialSet:
    def test_membership(self):
        assert on_special_set(4, rat("-5/2"), rat(-2))
        assert on_special_set(4, rat("-9/2"), rat(-3))
        assert not on_special_set(4, rat("-5/2"), rat(-3))   # j > i
        assert not on_special_set(4, rat(0), rat(0))
        assert not on_special_set(4, rat("-3"), rat(-2))     # lam not half-integer
        for n in range(2, 10):
            for a in range(-2, 7):
                for b in range(-2, 7):
                    assert on_special_set(n, *lattice_point(n, a, b)) == \
                        (0 <= b <= a), (n, a, b)


class TestReductionConsistency:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_t_system_total(self, n):
        # a generic point, the origin, the corner of the special set and a
        # non-real point
        pts = [("1/3", "-2/7"), (0, 0), _point(n, 0, 0),
               (_gauss("1/3", 1), _gauss("-1/2", "2/5"))]
        for lam0, nu0 in pts:
            m = multiplicity(n, lam0, nu0, depth=8)
            assert t_system_dimension(n, lam0, nu0, 8) == m["total"]


class TestComposition:
    @pytest.mark.parametrize("n", [4, 5])
    def test_small_tables(self, n):
        for i in range(2):
            for j in range(2):
                for parity in (0, 1):
                    want = expected_composition(i, j, parity)
                    for pair in ("FF", "FT", "TF", "TT"):
                        got = composition_multiplicity(n, i, j, parity, pair,
                                                       depth=8, stabilize=False)
                        assert got == want[pair], (n, i, j, parity, pair)

    def test_table_shape(self):
        rows = composition_table(4, 1, 1, depth=8)
        assert len(rows) == 2 * 2 * 2
        assert set(rows[0]) == {"n", "i", "j", "parity", "FF", "FT", "TF", "TT"}

    def test_depth_guard(self):
        with pytest.raises(BadDepth):
            composition_multiplicity(4, 2, 2, 0, "TT", depth=5)


class TestDomain:
    @pytest.mark.parametrize("sign", [0, 2, "x", "", None, "plusminus"])
    def test_bad_sign(self, sign):
        with pytest.raises(BadLabel):
            build_system(4, "-5/2", -2, sign, 4)

    @pytest.mark.parametrize("sign,sigma", [
        (1, 1), ("+", 1), ("plus", 1), (-1, -1), ("-", -1), ("minus", -1)])
    def test_good_signs(self, sign, sigma):
        assert build_system(4, "-5/2", -2, sign, 4).sign == sigma

    @pytest.mark.parametrize("i,j,parity", [
        (-1, 0, 0), (0, -1, 0), (2, 1, 5), (2, 1, -1), (-3, -3, 2)])
    def test_bad_composition_label(self, i, j, parity):
        with pytest.raises(BadLabel):
            composition_multiplicity(4, i, j, parity, "FF", depth=12,
                                     stabilize=False)

    @pytest.mark.parametrize("i,j,parity", [
        (1.5, 0, 0), (1.0, 0, 0), (0, 2.0, 0), (Fraction(1), 0, 0),
        ("1", 0, 0), (None, 0, 0), (True, 0, 0), (0, False, 0), (1, 0, 1.0),
        (1, 0, True)])
    def test_non_integer_composition_label(self, i, j, parity):
        for stabilize in (True, False):
            with pytest.raises(BadLabel):
                composition_multiplicity(4, i, j, parity, "FF", 12, stabilize)

    @pytest.mark.parametrize("n", [4.0, Fraction(4), "4", None, True, 1])
    def test_non_integer_composition_n(self, n):
        with pytest.raises(DimensionMismatch):
            composition_multiplicity(n, 1, 0, 0, "FF")

    @pytest.mark.parametrize("depth", [12.0, "12", None])
    def test_non_integer_composition_depth(self, depth):
        with pytest.raises(BadDepth):
            composition_multiplicity(4, 1, 0, 0, "FF", depth)


def test_lattice_path_leaves_monogenics_out():
    # the symbolic derivation lives in the tests, so the point path needs
    # no spinor code
    src = os.path.dirname(os.path.dirname(sbolab.__file__))
    code = ("import sys; import sbolab.sbolattice; "
            "sys.exit('sbolab.monogenics' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- the from-scratch route, kept as the oracle for the extended echelon -------

def reference_solve(system):
    """Nullspace of the truncated system, solved from scratch over all
    unknowns s_{i,j}, i <= depth, that the region leaves free."""
    idx = {}
    for i in range(system.depth + 1):
        for j in range(i + 1):
            if system.region is None or system.region(i, j):
                idx[(i, j)] = len(idx)
    rows = [{idx[key]: v for key, v in con.items() if key in idx}
            for con in system.constraints]
    inv = {c: key for key, c in idx.items()}
    return [{inv[c]: v for c, v in vec.items()}
            for vec in linalg.nullspace(rows, len(idx))]


def reference_dimensions(system):
    """Nullities at depth d and, rebuilding the whole system, at d + 1."""
    bigger = build_system(system.n, system.lam0, system.nu0, system.sign,
                          system.depth + 1, system.region)
    return len(reference_solve(system)), len(reference_solve(bigger))


def _point(n, a, b):
    """(lam, nu) at the lattice offsets a, b; on the special set when
    0 <= b <= a."""
    return (-(rat(n) / 2 + rat("1/2") + a), -(rat(n - 1) / 2 + rat("1/2") + b))


def _points(n):
    """A point on the special set, one off it with j > i, a half-integer
    point just outside the triangle and a generic rational point."""
    return [_point(n, 2, 1), _point(n, 1, 2), _point(n, -1, 0),
            (rat("2/5"), rat("-3/7"))]


def _composition_system(n, i, j, parity, pair, depth):
    """The system composition_multiplicity solves for one entry."""
    lam_mag = rat(n) / 2 + rat("1/2") + i
    nu_mag = rat(n - 1) / 2 + rat("1/2") + j
    src_F, dst_F = pair[0] == "F", pair[1] == "F"
    flip = (parity + src_F + (not dst_F)) % 2
    region = lambda k, l: (k <= i if src_F else k > i) and \
        (l <= j if dst_F else l > j)
    return build_system(n, lam_mag if src_F else -lam_mag,
                        -nu_mag if dst_F else nu_mag, -1 if flip else 1,
                        depth, region)


class TestExtendedEchelonOracle:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_nullities_at_d_and_d_plus_1(self, n):
        # the last two points sit at the truncation edge, where the nullity
        # still changes from depth d to d + 1
        cases = list(zip(_points(n), (6, 8, 10, 12))) + \
            [(_point(n, 5, 1), 6), (_point(n, 7, 0), 7)]
        flags = set()
        for (lam0, nu0), depth in cases:
            for sign in (1, -1):
                system = build_system(n, lam0, nu0, sign, depth)
                sol = solve_dimension(system)
                want = reference_dimensions(system)
                assert (sol.dim, sol.dim_next) == want, (n, lam0, nu0, sign)
                assert sol.stabilized == (want[0] == want[1])
                assert sol.basis == reference_solve(system)
                flags.add(sol.stabilized)
        assert flags == {True, False}

    @pytest.mark.parametrize("n", [4, 5])
    def test_composition_regions(self, n):
        for i, j, parity, depth in ((1, 0, 1, 6), (2, 1, 1, 8), (1, 2, 0, 8)):
            for pair in ("FF", "FT", "TF", "TT"):
                system = _composition_system(n, i, j, parity, pair, depth)
                sol = solve_dimension(system)
                want = reference_dimensions(system)
                assert (sol.dim, sol.dim_next) == want, (n, i, j, pair)
                assert composition_multiplicity(n, i, j, parity, pair, depth,
                                                stabilize=False) == want[0]
                assert composition_multiplicity(n, i, j, parity, pair,
                                                depth) == want[0]
                assert sol.basis == reference_solve(system)


# -- the Z[i] route, kept as the oracle for the Z elimination at real points ---

def zi_solution(system):
    """(dim, dim_next, basis) from linalg.echelon on system.rows in Z[i],
    extended by the level-d rows to depth d + 1, with no real frame."""
    d, region = system.depth, system.region
    cols = [(i, j) for i in range(d + 2) for j in range(i + 1)
            if region is None or region(i, j)]
    idx = {key: c for c, key in enumerate(cols)}
    ncols = sum(1 for i, _ in cols if i <= d)
    bigger = build_system(system.n, system.lam0, system.nu0, system.sign,
                          d + 1, region)
    assert bigger.rows[:len(system.rows)] == system.rows
    top = bigger.rows[len(system.rows):]
    piv = linalg.echelon(({idx[key]: v for key, v in row.items()}
                          for row in system.rows), ncols)
    piv1 = linalg.echelon(({idx[key]: v for key, v in row.items()}
                           for row in top), len(cols), piv)
    basis = [{cols[c]: v for c, v in vec.items()}
             for vec in linalg.echelon_nullspace(piv, ncols)]
    return ncols - len(piv), len(cols) - len(piv1), basis


def _real_points(n):
    """Two special points, two off the set (j > i, and just outside the
    triangle), a generic rational point, the origin, and a point at the
    truncation edge of depth 8, where the nullity still grows."""
    return [_point(n, 2, 1), _point(n, 3, 3), _point(n, 1, 2),
            _point(n, -1, 0), (rat("2/5"), rat("-3/7")), (rat(0), rat(0)),
            _point(n, 8, 1)]


def _assert_z_matches_zi(system):
    sol = solve_dimension(system)
    dim, dim_next, basis = zi_solution(system)
    assert (sol.dim, sol.dim_next) == (dim, dim_next)
    assert sol.basis == basis
    return sol


class TestRealFrame:
    """At a real point the rows are eliminated over Z in the unknowns
    t_{i,j} = i^-k s_{i,j}; the Z[i] route on the same rows is the oracle."""

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_nullities_and_basis_match_zi(self, n, sign):
        flags = set()
        for lam0, nu0 in _real_points(n):
            system = build_system(n, lam0, nu0, sign, 8)
            assert _real_frame(system) is not None
            flags.add(_assert_z_matches_zi(system).stabilized)
        assert flags == {True, False}

    @pytest.mark.parametrize("n", [4, 5])
    def test_composition_regions(self, n):
        for i, j, parity, depth in ((1, 0, 1, 6), (2, 1, 1, 8), (1, 2, 0, 8),
                                    (3, 2, 0, 8)):
            for pair in ("FF", "FT", "TF", "TT"):
                system = _composition_system(n, i, j, parity, pair, depth)
                dim = _assert_z_matches_zi(system).dim
                assert composition_multiplicity(
                    n, i, j, parity, pair, depth, stabilize=False) == dim

    @pytest.mark.parametrize("n", range(2, 10))
    def test_rows_are_real_up_to_a_unit(self, n):
        # e * i^k(col) over a row: all real or all imaginary
        units = [(1, 0), (0, 1)]
        for sign in (1, -1):
            for lam0, nu0 in _real_points(n):
                system = build_system(n, lam0, nu0, sign, 8)
                k = _real_frame(system)
                for row in system.rows:
                    parts = set()
                    for key, (x, y) in row.items():
                        u, v = units[k(*key)]
                        re, im = x * u - y * v, x * v + y * u
                        assert re or im
                        parts.add("re" if re else "im")
                        assert not (re and im), (n, key, row)
                    assert len(parts) == 1, (n, row)

    def test_non_real_point_keeps_zi(self):
        for lam0, nu0 in ((_gauss("1/3", 1), 0), (0, _gauss(0, "1/2"))):
            system = build_system(4, lam0, nu0, 1, 6)
            assert _real_frame(system) is None
            _, piv = _echelon(system.rows, 6, None, None,
                              _real_frame(system))
            assert all(isinstance(v, tuple)
                       for row in piv.values() for v in row.values())


# -- the level-order route, kept as the oracle for the j-major elimination ----

def level_order_solution(system):
    """(dim, dim_next, basis) by the route `solve_dimension` took before the
    j-major order: the unknowns numbered by (i, j), so that the index of the
    depth-d triangle is a prefix of that of depth d + 1; the echelon of the
    rows there, in the real frame at a real point, extended by the rows of
    level d; and the nullspace basis from the depth-d echelon."""
    d, region, k = system.depth, system.region, _real_frame(system)
    cols = [(i, j) for i in range(d + 2) for j in range(i + 1)
            if region is None or region(i, j)]
    idx = {key: c for c, key in enumerate(cols)}
    ncols = sum(1 for i, _ in cols if i <= d)

    def indexed(rows):
        if k is None:
            return [{idx[key]: v for key, v in row.items()} for row in rows]
        return [{idx[key]: x - y if k(*key) else x + y
                 for key, (x, y) in row.items()} for row in rows]

    top = [row for row, _ in
           _level_rows(system.n, system.point, system.sign, d, region)]
    piv = linalg.echelon(indexed(system.rows), ncols)
    piv1 = linalg.echelon(indexed(top), len(cols), piv)
    if k is not None:
        piv = {c: {cc: (0, -x) if k(*cols[cc]) else (x, 0)
                   for cc, x in row.items()} for c, row in piv.items()}
    basis = [{cols[c]: v for c, v in vec.items()}
             for vec in linalg.echelon_nullspace(piv, ncols)]
    return ncols - len(piv), len(cols) - len(piv1), basis


def _assert_matches_level_order(system):
    sol = solve_dimension(system)
    dim, dim_next, basis = level_order_solution(system)
    assert (sol.dim, sol.dim_next) == (dim, dim_next)
    # the same vectors, each with its entries in the same order
    assert [list(vec.items()) for vec in sol.basis] == \
        [list(vec.items()) for vec in basis]
    return sol


class TestJMajorOrder:
    """The unknowns are eliminated j-major; the nullities and the level-order
    basis are those of the level-order route."""

    def test_columns_sorted_by_j_then_i(self):
        region = lambda k, l: l != 1
        cols, _ = _echelon([], 5, region)
        assert cols == sorted(((i, j) for i in range(6) for j in range(i + 1)
                               if region(i, j)), key=lambda c: (c[1], c[0]))

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_real_points(self, n, sign):
        flags = set()
        for lam0, nu0 in _real_points(n):
            system = build_system(n, lam0, nu0, sign, 8)
            flags.add(_assert_matches_level_order(system).stabilized)
        assert flags == {True, False}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_non_real_point(self, sign):
        system = build_system(4, _gauss("-5/2", "1/2"), _gauss(-2, "-3/4"),
                              sign, 6)
        assert _real_frame(system) is None
        _assert_matches_level_order(system)

    @pytest.mark.parametrize("n", [4, 5])
    def test_composition_regions(self, n):
        for i, j, parity, depth in ((1, 0, 1, 6), (2, 1, 1, 8), (1, 2, 0, 8),
                                    (3, 2, 0, 8)):
            for pair in ("FF", "FT", "TF", "TT"):
                system = _composition_system(n, i, j, parity, pair, depth)
                dim = _assert_matches_level_order(system).dim
                assert composition_multiplicity(
                    n, i, j, parity, pair, depth, stabilize=False) == dim

    def test_fewer_reductions_than_level_order(self, monkeypatch):
        calls = []
        reduce = linalg._reduce_z

        def counted(r, row, col):
            calls.append(col)
            return reduce(r, row, col)

        monkeypatch.setattr(linalg, "_reduce_z", counted)
        for lam0, nu0 in (("-5/2", -2), ("1/3", "-2/7")):
            system = build_system(4, lam0, nu0, 1, 12)
            solve_dimension(system)
            j_major = len(calls)
            calls.clear()
            level_order_solution(system)
            assert j_major < len(calls), (lam0, nu0)
            calls.clear()


def _sympy_nullity(system):
    """Nullity of the system's Q(i) rows by sympy's rank over QQ_I."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    cols = [(i, j) for i in range(system.depth + 1) for j in range(i + 1)]
    rows = [[sympy.QQ_I(sympy.Rational(row[c].re.numerator,
                                       row[c].re.denominator),
                        sympy.Rational(row[c].im.numerator,
                                       row[c].im.denominator))
             if c in row else sympy.QQ_I.zero for c in cols]
            for row in system.constraints]
    shape = (len(rows), len(cols))
    return len(cols) - DomainMatrix(rows, shape, sympy.QQ_I).rank()


class TestSympyRank:
    @pytest.mark.parametrize("n", [4, 5])
    def test_small_nullities(self, n):
        nullity = _sympy_nullity
        for lam0, nu0 in _points(n) + [_point(n, 3, 1)]:
            for sign in (1, -1):
                for depth in (4, 6):
                    system = build_system(n, lam0, nu0, sign, depth)
                    bigger = build_system(n, lam0, nu0, sign, depth + 1)
                    sol = solve_dimension(system)
                    assert (sol.dim, sol.dim_next) == \
                        (nullity(system), nullity(bigger)), (n, lam0, nu0, sign)


# -- the Z[i] rows built at the point ------------------------------------------

def _gauss(re, im=0):
    return GaussianRational(rat(re), rat(im))


def _row_points(n):
    """A special point, one off the set with j > i, a generic rational
    point and a non-real one."""
    return [_point(n, 3, 1), _point(n, 1, 2), (rat("1/3"), rat("-2/7")),
            (_gauss("1/3", "2/5"), _gauss("-1/2", 1))]


def _assert_rows_match(system, want):
    """The integer rows are the primitive Z[i] form of the Q(i) rows, and
    the Q(i) view rebuilt from them is those rows."""
    assert system.rows == [linalg.gaussian_ints(row) for row in want]
    assert [list(row) for row in system.rows] == [list(row) for row in want]
    assert system.constraints == want


class TestIntegerRows:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_rows_are_primitive_symbolic_rows(self, n, sigma):
        points = _row_points(n)
        want = _evaluated_symbolic_rows(n, sigma, 7, points)
        for (lam0, nu0), rows in zip(points, want):
            _assert_rows_match(build_system(n, lam0, nu0, sigma, 7), rows)

    @pytest.mark.parametrize("n", [4, 5])
    def test_composition_region(self, n):
        for i, j, parity, pair in ((2, 1, 1, "FT"), (1, 2, 0, "TF"),
                                   (1, 0, 1, "TT")):
            system = _composition_system(n, i, j, parity, pair, 7)
            want, = _evaluated_symbolic_rows(
                n, system.sign, 7, [(system.lam0, system.nu0)], system.region)
            _assert_rows_match(system, want)

    @given(n=st.integers(2, 7), sigma=st.sampled_from([1, -1]),
           depth=st.integers(2, 6),
           parts=st.lists(st.fractions(min_value=-8, max_value=8,
                                       max_denominator=12),
                          min_size=4, max_size=4),
           real=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_points(self, n, sigma, depth, parts, real):
        lam0 = GaussianRational(parts[0], 0 if real else parts[1])
        nu0 = GaussianRational(parts[2], 0 if real else parts[3])
        system = build_system(n, lam0, nu0, sigma, depth)
        want, = _evaluated_symbolic_rows(n, sigma, depth, [(lam0, nu0)])
        _assert_rows_match(system, want)
        # the nullities equal those of the Q(i) rows through linalg.nullspace
        sol = solve_dimension(system)
        assert (sol.dim, sol.dim_next) == reference_dimensions(system)


def reference_level_rows(n, point, sigma, i, region):
    """The sector rows of level i with every entry computed before region
    drops it: the route the region-first row builder replaced."""
    d, (lr, li), (nr, ni) = point
    h = d // 2
    one, lam = (1, 0), (lr, li)
    a, b = n + 2 * i - 1, n + 2 * i + 1
    up = (lr + h * (n + 1) + d * i, li)
    dn = (lr - h * (n - 1) - d * i, li)
    out = []
    for j in range(i + 1):
        sgn = sigma if (i - j) % 2 == 0 else -sigma
        m = n + 2 * j - 1
        mid, side = ((0, sgn), (0, 1)) if n % 2 == 0 else (one, (sgn, 0))
        f1 = [((i, j), a * b, one, (nr + h * n + d * j, ni)),
              ((i + 1, j + 1), -a * m, one, up)]
        if j + 1 <= i:
            f1.append(((i, j + 1), 2 * m, mid, lam))
        if j + 1 <= i - 1:
            f1.append(((i - 1, j + 1), b * m, one, dn))
        c = sgn * (n + 2 * i) * m
        f2 = [((i, j), 1, one, (a * b * nr - c * lr, a * b * ni - c * li)),
              ((i + 1, j), (i - j + 1) * a, side, up)]
        if i - 1 >= j:
            f2.append(((i - 1, j), -b * (n + i + j - 1), side, dn))
        rows = [f1, f2]
        if j >= 1:
            rows.append([
                ((i, j), a * b * (n + 2 * j - 3), one,
                 (nr - h * (n - 2) - d * j, ni)),
                ((i + 1, j - 1), (i - j + 1) * (i - j + 2) * a, one, up),
                ((i, j - 1), 2 * (i - j + 1) * (n + i + j - 1), mid, lam),
                ((i - 1, j - 1), -b * (n + i + j - 2) * (n + i + j - 1), one, dn)])
        for row in rows:
            g, ents = 0, []
            for key, k, (u, v), (x, y) in row:
                x, y = k * (u * x - v * y), k * (u * y + v * x)
                if (x or y) and (region is None or region(*key)):
                    g = gcd(g, x, y)
                    ents.append((key, x, y))
            if ents:
                out.append(({key: (x // g, y // g) for key, x, y in ents}, g))
    return out


class TestLevelRowsInRegion:
    @pytest.mark.parametrize("n", [4, 5])
    def test_composition_regions_match_reference(self, n):
        """Every composition region at i, j <= 4, both sector signs: the
        rows and contents equal those of the compute-then-drop route."""
        for i in range(5):
            for j in range(5):
                for parity in (0, 1):
                    for pair in _PAIRS:
                        s = _composition_system(n, i, j, parity, pair, 12)
                        want = [p for lvl in range(12) for p in reference_level_rows(
                            n, s.point, s.sign, lvl, s.region)]
                        assert s.rows == [p[0] for p in want], (i, j, parity, pair)
                        assert s.contents == [p[1] for p in want], (i, j, parity, pair)
                        # the unfiltered rows at that point are unchanged too
                        assert _level_rows(n, s.point, s.sign, i, None) == \
                            reference_level_rows(n, s.point, s.sign, i, None)


class TestNonRealPoint:
    """n = 4, lam = 1/3 + i, nu = 0: eliminating at a non-real point takes
    the common factors in Z[i], so entries stay small."""

    LAM = _gauss("1/3", 1)

    def test_echelon_entries_stay_small(self):
        system = build_system(4, self.LAM, 0, 1, 5)
        _, piv = _echelon(system.rows, 5, None)
        bits = max(max(abs(x).bit_length(), abs(y).bit_length())
                   for row in piv.values() for x, y in row.values())
        assert bits < 200

    def test_depth_12_is_fast(self):
        t0 = time.perf_counter()
        got = multiplicity(4, self.LAM, 0, depth=12)
        assert time.perf_counter() - t0 < 2.0
        assert got == {"dim_plus": 1, "dim_minus": 1, "total": 2,
                       "stabilized": True, "on_lattice": False}

    @pytest.mark.parametrize("lam0,nu0", [
        (_gauss("1/3", 1), 0), (_gauss("-5/2", "1/2"), _gauss(-2, "-3/4"))])
    def test_nullities_match_sympy(self, lam0, nu0):
        for sign in (1, -1):
            for depth in (4, 6):
                system = build_system(4, lam0, nu0, sign, depth)
                bigger = build_system(4, lam0, nu0, sign, depth + 1)
                sol = solve_dimension(system)
                assert (sol.dim, sol.dim_next) == \
                    (_sympy_nullity(system), _sympy_nullity(bigger)), \
                    (lam0, nu0, sign)


class TestScalarInputs:
    def test_gaussian_rational_point(self):
        point = (GaussianRational(Fraction(-5, 2)), GaussianRational(-2))
        assert on_special_set(4, *point)
        assert multiplicity(4, *point) == multiplicity(4, "-5/2", -2)

    def test_non_real_point_is_off_the_set(self):
        assert not on_special_set(4, _gauss("-5/2", 1), -2)
        assert not on_special_set(4, "-5/2", _gauss(-2, "1/2"))
        assert isinstance(multiplicity(4, _gauss("-5/2", 1), -2, depth=6), dict)

    @pytest.mark.parametrize("n", [4.0, Fraction(4), "4", None])
    def test_non_integer_n(self, n):
        with pytest.raises(DimensionMismatch):
            build_system(n, 0, 0, 1, 4)
        with pytest.raises(DimensionMismatch):
            multiplicity(n, 0, 0)

    @pytest.mark.parametrize("depth", [6.5, 6.0, "6", None])
    def test_non_integer_depth(self, depth):
        with pytest.raises(BadDepth):
            build_system(4, 0, 0, 1, depth)
        with pytest.raises(BadDepth):
            multiplicity(4, 0, 0, depth=depth)
