"""The fraction-free elimination against the plain Q(i) elimination."""

import pytest
from hypothesis import given, settings, strategies as st

from sbolab import linalg, sbolattice as lt
from sbolab.paramfield import GaussianRational, ZERO, ONE


def reference_eliminate(rows, ncols):
    """Forward elimination carried out directly in Q(i), normalizing each
    pivot row before it is used: the oracle for linalg.eliminate."""
    work = [dict(r) for r in rows if r]
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        pr = None
        for idx, r in enumerate(work):
            if col in r:
                pr = idx
                break
        if pr is None:
            continue
        row = work.pop(pr)
        inv = row[col].inverse()
        row = {c: v * inv for c, v in row.items()}
        nxt = []
        for r in work:
            if col in r:
                f = r[col]
                out = {}
                for c, v in r.items():
                    if c == col:
                        continue
                    w = v - f * row.get(c, ZERO)
                    if not w.is_zero():
                        out[c] = w
                for c, v in row.items():
                    if c != col and c not in r:
                        w = -f * v
                        if not w.is_zero():
                            out[c] = w
                if out:
                    nxt.append(out)
            else:
                nxt.append(r)
        work = nxt
        pivots.append(col)
        pivot_rows.append(row)
        if not work:
            break
    return pivots, pivot_rows


def reference_nullspace(rows, ncols):
    """Nullspace basis by back-substitution on the reference echelon form,
    each vector 1 at its free column and 0 at the others."""
    pivots, prows = reference_eliminate(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = {fc: ONE}
        for pc, row in reversed(list(zip(pivots, prows))):
            acc = _dot({c: v for c, v in row.items() if c != pc}, vec)
            if not acc.is_zero():
                vec[pc] = -acc
        basis.append(vec)
    return basis


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)
reals = st.builds(GaussianRational, rationals)


@st.composite
def sparse_systems(draw):
    """Sparse rows, all real or Gaussian-rational, some of them combinations
    of earlier ones so that rank deficiency and cancellation are common."""
    entries = draw(st.sampled_from([reals, gaussians]))
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(entries), draw(entries)
            r1, r2 = rows[-1], rows[-2]
            row = {}
            for c in list(r1) + [c for c in r2 if c not in r1]:
                v = a * r1.get(c, ZERO) + b * r2.get(c, ZERO)
                if not v.is_zero():
                    row[c] = v
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), unique=True,
                                 max_size=ncols))
            row = {c: v for c, v in ((c, draw(entries)) for c in cols)
                   if not v.is_zero()}
        rows.append(row)
    return rows, ncols


def reference_solve_in_span(columns, target):
    """linalg.solve_in_span by full elimination of every row before the
    solve: the oracle for the solve that stops at full rank."""
    keys = {}
    for col in columns:
        for k in col:
            keys.setdefault(k, len(keys))
    for k in target:
        keys.setdefault(k, len(keys))
    m = len(columns)
    rows = []
    for k, ridx in keys.items():
        row = {}
        for j, col in enumerate(columns):
            v = col.get(k)
            if v is not None and not v.is_zero():
                row[j] = v
        t = target.get(k)
        if t is not None and not t.is_zero():
            row[m] = t
        if row:
            rows.append(row)
    pivots, prows = linalg.eliminate(rows, m + 1)
    if m in pivots:
        return None  # inconsistent
    if len(pivots) < m:
        raise ValueError("solution not unique: rank %d < %d" % (len(pivots), m))
    # back substitution: columns are 0..m-1 pivots in order
    sol = [ZERO] * m
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        acc = prows[i].get(m, ZERO)
        for cc, v in prows[i].items():
            if cc != m and cc != c:
                acc = acc - v * sol[cc]
        sol[c] = acc
    return sol


def _dot(row, vec):
    acc = ZERO
    for c, v in row.items():
        acc = acc + v * vec.get(c, ZERO)
    return acc


@given(sparse_systems())
@settings(max_examples=80, deadline=None)
def test_eliminate_matches_reference(system):
    rows, ncols = system
    pivots, prows = linalg.eliminate(rows, ncols)
    ref_pivots, ref_prows = reference_eliminate(rows, ncols)
    assert pivots == ref_pivots
    # equal entries, in the same column order
    assert [list(r.items()) for r in prows] == \
        [list(r.items()) for r in ref_prows]


@given(sparse_systems(), sparse_systems())
@settings(max_examples=80, deadline=None)
def test_echelon_extension_is_echelon_of_all_rows(first, second):
    rows = first[0] + second[0]
    ncols = max(first[1], second[1])
    # echelon takes Z[i] rows; the Q(i) rows go through the public converter
    first_z, second_z, rows_z = ([linalg.gaussian_ints(r) for r in part]
                                 for part in (first[0], second[0], rows))
    piv = linalg.echelon(first_z, ncols)
    before = dict(piv)
    assert linalg.echelon(second_z, ncols, piv) == linalg.echelon(rows_z, ncols)
    assert piv == before
    assert len(linalg.echelon(rows_z, ncols)) == len(reference_eliminate(rows, ncols)[0])


@given(sparse_systems())
@settings(max_examples=50, deadline=None)
def test_nullspace_annihilates_rows(system):
    rows, ncols = system
    basis = linalg.nullspace(rows, ncols)
    assert len(basis) == ncols - linalg.rank(rows, ncols)
    for vec in basis:
        for row in rows:
            assert _dot(row, vec).is_zero()


@given(sparse_systems(), st.lists(gaussians, min_size=1, max_size=7))
@settings(max_examples=50, deadline=None)
def test_solve_in_span_roundtrip(system, coeffs):
    rows, _ = system
    # columns are the drawn rows, keyed by their column indices
    columns = rows[:len(coeffs)]
    coeffs = coeffs[:len(columns)]
    target = {}
    for col, a in zip(columns, coeffs):
        for k, v in col.items():
            target[k] = target.get(k, ZERO) + a * v
    keys = sorted({k for col in columns for k in col})
    as_rows = [{j: col[k] for j, col in enumerate(columns) if k in col}
               for k in keys]
    if linalg.rank(as_rows, len(columns)) < len(columns):
        with pytest.raises(ValueError):
            linalg.solve_in_span(columns, target)
    else:
        assert linalg.solve_in_span(columns, target) == coeffs


def test_solve_in_span_inconsistent():
    one = GaussianRational(1)
    assert linalg.solve_in_span([{"a": one}], {"b": one}) is None


@st.composite
def span_systems(draw):
    """(columns, target) with at most 3 columns over a few keys: the target
    a combination of the columns, possibly perturbed at one key, and some
    columns combinations of others, so that consistent, inconsistent and
    rank-deficient systems all occur, with non-real entries."""
    entries = draw(st.sampled_from([reals, gaussians]))
    keys = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8,
                         unique=True))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if columns and draw(st.integers(0, 3)) == 0:
            a, b = draw(entries), draw(entries)
            other = draw(st.sampled_from(columns))
            col = {k: a * columns[-1].get(k, ZERO) + b * other.get(k, ZERO)
                   for k in keys}
        else:
            col = {k: draw(entries) for k in draw(st.lists(
                st.sampled_from(keys), unique=True, min_size=1,
                max_size=len(keys)))}
        columns.append({k: v for k, v in col.items() if not v.is_zero()})
    target = {}
    for col in columns:
        a = draw(entries)
        for k, v in col.items():
            target[k] = target.get(k, ZERO) + a * v
    if draw(st.booleans()):
        k = draw(st.sampled_from(keys))
        target[k] = target.get(k, ZERO) + draw(entries)
    return columns, {k: v for k, v in target.items() if not v.is_zero()}


def _solve_outcome(solve, columns, target):
    try:
        return solve(columns, target)
    except ValueError:
        return ValueError


@given(span_systems())
@settings(max_examples=100, deadline=None)
def test_solve_in_span_matches_full_elimination(system):
    columns, target = system
    assert _solve_outcome(linalg.solve_in_span, columns, target) == \
        _solve_outcome(reference_solve_in_span, columns, target)


@pytest.mark.parametrize("columns,target", [
    # rows a and c pin (2, 4); the last row, b, asks for x_1 = 3
    ([{"a": ONE, "c": ONE}, {"b": ONE, "c": ONE}],
     {"a": GaussianRational(2), "b": GaussianRational(3),
      "c": GaussianRational(6)}),
    # full rank on the first two rows; the last row is the target alone
    ([{"a": ONE}, {"b": GaussianRational(0, 1)}],
     {"a": ONE, "b": ONE, "z": GaussianRational(1, 1)}),
])
def test_solve_in_span_checks_rows_after_full_rank(columns, target):
    assert reference_solve_in_span(columns, target) is None
    assert linalg.solve_in_span(columns, target) is None


@pytest.mark.parametrize("n,lam0,nu0,sign", [
    (4, "-5/2", -2, 1), (4, "1/3", "-2/7", -1), (5, -3, "-5/2", 1),
    (6, "-7/2", "-5/2", -1)])
def test_lattice_solve_matches_reference(n, lam0, nu0, sign):
    system = lt.build_system(n, lam0, nu0, sign, 8)
    rows = [{(i * (i + 1) // 2 + j): v for (i, j), v in con.items()}
            for con in system.constraints]
    ncols = 9 * 10 // 2
    pivots, prows = linalg.eliminate(rows, ncols)
    assert (pivots, prows) == reference_eliminate(rows, ncols)
    cols = [(i, j) for i in range(9) for j in range(i + 1)]
    want = [{cols[c]: v for c, v in vec.items()}
            for vec in reference_nullspace(rows, ncols)]
    sol = lt.solve_dimension(system)
    assert sol.basis == want and sol.dim == len(want)
