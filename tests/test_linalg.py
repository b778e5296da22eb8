"""The fraction-free elimination against the plain Q(i) elimination."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from sbolab import linalg, sbolattice as lt
from sbolab.paramfield import GaussianRational, ZERO, ONE


def reference_eliminate(rows, ncols):
    """Forward elimination carried out directly in Q(i), normalizing each
    pivot row before it is used: the oracle for linalg.eliminate.  The
    pivot for a column is the shortest row holding it, the first in list
    order on a tie; reduced rows move to the end of the list in the order
    they are made, which is linalg.echelon's pivot rule."""
    work = [dict(r) for r in rows if r]
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        holding = [idx for idx, r in enumerate(work) if col in r]
        if not holding:
            continue
        row = work.pop(min(holding, key=lambda idx: len(work[idx])))
        inv = row[col].inverse()
        row = {c: v * inv for c, v in row.items()}
        nxt, reduced = [], []
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
                    reduced.append(out)
            else:
                nxt.append(r)
        work = nxt + reduced
        pivots.append(col)
        pivot_rows.append(row)
        if not work:
            break
    return pivots, pivot_rows


def first_row_echelon(rows, ncols):
    """linalg.echelon with the earlier pivot rule: each column rescans the
    whole work list and pivots on the first row that holds it.  The oracle
    for the pivot columns and the nullspace of the shortest-row rule."""
    piv = {}
    work = [r for r in rows if r]
    for col in range(ncols):
        if not work:
            break
        for idx, r in enumerate(work):
            if col in r:
                row = piv[col] = work.pop(idx)
                break
        else:
            continue
        work = [r if col not in r else linalg._reduce(r, row, col)
                for r in work]
        work = [r for r in work if r is not None]
    return piv


def _assert_same_echelon_as_first_row(rows, ncols):
    """The Z[i] rows have the same pivot columns and the same nullspace
    under the shortest-row and the first-row pivot rules."""
    piv = linalg.echelon(rows, ncols)
    old = first_row_echelon(rows, ncols)
    assert sorted(piv) == sorted(old)
    assert linalg.echelon_nullspace(piv, ncols) == \
        linalg.echelon_nullspace(old, ncols)


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


def span_rows(columns, target, sample_of=None, factor=None):
    """The Z[i] rows linalg.solve_in_span takes for sum_j c_j * columns[j]
    == target: one row per key, in order of first appearance, with the
    target in column len(columns).  The keys fall into samples by
    sample_of (one sample if None), and each sample's rows are brought to
    the lcm of the sample's denominators, times factor[sample] if given."""
    keys = dict.fromkeys(k for col in (*columns, target) for k in col)
    rows = {k: {j: v for j, v in enumerate([col.get(k) for col in columns]
                                            + [target.get(k)])
                if v is not None and not v.is_zero()} for k in keys}
    sample = {k: sample_of(k) if sample_of else 0 for k in keys}
    den = {}
    for k, row in rows.items():
        den[sample[k]] = lcm(den.get(sample[k], 1), *(v._d for v in row.values()))
    out = []
    for k, row in rows.items():
        s = sample[k]
        f = factor[s] if factor else 1
        out.append({j: (v._a * f * den[s] // v._d, v._b * f * den[s] // v._d)
                    for j, v in row.items()})
    return out


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
    ext = linalg.echelon(second_z, ncols, piv)
    whole = linalg.echelon(rows_z, ncols)
    # the earlier pivots are kept, and piv itself is left as it was
    assert piv == before
    assert all(ext[c] is r for c, r in piv.items())
    # an extension pivots on other rows than one echelon of all the rows,
    # but its pivot columns and its nullspace are the same
    assert sorted(ext) == sorted(whole)
    assert linalg.echelon_nullspace(ext, ncols) == \
        linalg.echelon_nullspace(whole, ncols)
    assert len(ext) == len(reference_eliminate(rows, ncols)[0])


@given(sparse_systems())
@settings(max_examples=80, deadline=None)
def test_echelon_matches_first_row_pivots(system):
    rows, ncols = system
    _assert_same_echelon_as_first_row(
        [linalg.gaussian_ints(r) for r in rows], ncols)


@given(sparse_systems())
@settings(max_examples=50, deadline=None)
def test_nullspace_annihilates_rows(system):
    rows, ncols = system
    basis = linalg.nullspace(rows, ncols)
    assert len(basis) == ncols - linalg.rank(rows, ncols)
    for vec in basis:
        for row in rows:
            assert _dot(row, vec).is_zero()


def _assert_reduced(piv, rows, ncols):
    """reduced_echelon of the Z[i] echelon piv of the Q(i) rows: pivot order,
    1 at the pivot, 0 at every other pivot column; and every nullspace
    vector read from it annihilates every row."""
    rref = linalg.reduced_echelon(piv)
    assert list(rref) == sorted(piv)
    for c, row in rref.items():
        assert row[c] == ONE
        assert not any(cc in row for cc in rref if cc != c)
    basis = linalg.echelon_nullspace(piv, ncols)
    assert len(basis) == ncols - len(piv)
    for vec in basis:
        for row in rows:
            assert _dot(row, vec).is_zero()


@given(sparse_systems())
@settings(max_examples=50, deadline=None)
def test_reduced_echelon_of_zi_rows(system):
    rows, ncols = system
    _assert_reduced(linalg.echelon(map(linalg.gaussian_ints, rows), ncols),
                    rows, ncols)


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
    rows = span_rows(columns, target)
    if linalg.rank(as_rows, len(columns)) < len(columns):
        with pytest.raises(ValueError):
            linalg.solve_in_span(rows, len(columns))
    else:
        assert linalg.solve_in_span(rows, len(columns)) == coeffs


def test_solve_in_span_inconsistent():
    # c * 1 == 0 at the first key, 0 == 1 at the second
    assert linalg.solve_in_span([{0: (1, 0)}, {1: (1, 0)}], 1) is None


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


def _solve_outcome(solve, *args):
    try:
        return solve(*args)
    except ValueError:
        return ValueError


@given(span_systems())
@settings(max_examples=100, deadline=None)
def test_solve_in_span_matches_full_elimination(system):
    columns, target = system
    assert _solve_outcome(linalg.solve_in_span, span_rows(columns, target),
                          len(columns)) == \
        _solve_outcome(reference_solve_in_span, columns, target)


@given(span_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_in_span_rows_over_sample_denominators(system, data):
    # rows in any order, each sample over its own denominator and factor,
    # as the lambda brute force builds them
    columns, target = system
    sample = data.draw(st.fixed_dictionaries(
        {k: st.integers(0, 2) for k in "abcdefgh"}), label="sample")
    factor = data.draw(st.lists(st.integers(-6, 6).filter(bool), min_size=3,
                                max_size=3), label="factor")
    rows = data.draw(st.permutations(span_rows(columns, target, sample.get,
                                               factor)), label="rows")
    assert _solve_outcome(linalg.solve_in_span, rows, len(columns)) == \
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
    assert linalg.solve_in_span(span_rows(columns, target), len(columns)) is None


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


@st.composite
def int_systems(draw):
    """Sparse primitive Z rows, some combinations of earlier ones, so that
    rank deficiency and cancellation are common."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            r1, r2 = rows[-1], rows[-2]
            row = {c: a * r1.get(c, 0) + b * r2.get(c, 0)
                   for c in sorted(set(r1) | set(r2))}
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), unique=True,
                                 max_size=ncols))
            row = {c: draw(st.integers(-30, 30)) for c in cols}
        row = {c: x for c, x in row.items() if x}
        rows.append(linalg._primitive_z(row) if row else row)
    return rows, ncols


def _as_pairs(rows):
    return [{c: (x, 0) for c, x in row.items()} for row in rows]


def _assert_same_as_pairs(piv, piv_pairs):
    """The Z echelon is the Z[i] one under x -> (x, 0), entry for entry."""
    assert list(piv) == list(piv_pairs)
    assert {c: _as_pairs([row])[0] for c, row in piv.items()} == piv_pairs
    assert all(type(x) is int for row in piv.values() for x in row.values())


@given(int_systems())
@settings(max_examples=100, deadline=None)
def test_z_echelon_is_zi_echelon_of_real_rows(system):
    rows, ncols = system
    _assert_same_as_pairs(linalg.echelon(rows, ncols),
                          linalg.echelon(_as_pairs(rows), ncols))


@given(int_systems(), int_systems())
@settings(max_examples=100, deadline=None)
def test_z_extension_is_zi_extension_of_real_rows(first, second):
    ncols = max(first[1], second[1])
    piv = linalg.echelon(first[0], ncols)
    piv_pairs = linalg.echelon(_as_pairs(first[0]), ncols)
    _assert_same_as_pairs(piv, piv_pairs)
    _assert_same_as_pairs(linalg.echelon(second[0], ncols, piv),
                          linalg.echelon(_as_pairs(second[0]), ncols,
                                         piv_pairs))


@given(int_systems())
@settings(max_examples=50, deadline=None)
def test_reduced_echelon_of_z_rows(system):
    rows, ncols = system
    piv = linalg.echelon(rows, ncols)
    _assert_reduced({c: _as_pairs([row])[0] for c, row in piv.items()},
                    [{c: GaussianRational(x) for c, x in row.items()}
                     for row in rows], ncols)



@st.composite
def interleaved_extensions(draw):
    """Sparse primitive rows, all in Z or all in Z[i]: base rows on the even
    columns, and extension rows on any column, some of them combinations
    of earlier rows.  The columns new to the extension fall between those
    of the base, as when sbolattice extends the echelon of the depth-d rows
    by the rows of level d."""
    zi = draw(st.booleans())
    ncols = draw(st.integers(2, 9))
    entry = st.integers(-20, 20)

    def rows(columns, count, earlier):
        out = []
        for _ in range(count):
            pool = earlier + out
            if len(pool) >= 2 and draw(st.booleans()):
                a, b = draw(entry), draw(entry)
                r1, r2 = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                zero = (0, 0) if zi else 0
                row = {}
                for c in sorted(set(r1) | set(r2)):
                    x, y = r1.get(c, zero), r2.get(c, zero)
                    row[c] = (a * x[0] + b * y[0], a * x[1] + b * y[1]) \
                        if zi else a * x + b * y
            else:
                cols = draw(st.lists(st.sampled_from(columns), unique=True,
                                     max_size=len(columns)))
                row = {c: (draw(entry), draw(entry)) if zi else draw(entry)
                       for c in cols}
            row = {c: x for c, x in row.items() if x not in (0, (0, 0))}
            if row:
                out.append(linalg._primitive(row) if zi
                           else linalg._primitive_z(row))
        return out

    base = rows(list(range(0, ncols, 2)), draw(st.integers(0, 6)), [])
    return base, rows(list(range(ncols)), draw(st.integers(1, 6)), base), ncols


@given(interleaved_extensions())
@settings(max_examples=150, deadline=None)
def test_extension_with_columns_between_the_base_columns(system):
    base, ext, ncols = system
    piv = linalg.echelon(base, ncols)
    got = linalg.echelon(ext, ncols, piv)
    whole = linalg.echelon(base + ext, ncols)
    assert all(c % 2 == 0 for row in piv.values() for c in row)
    assert all(got[c] is row for c, row in piv.items())
    assert sorted(got) == sorted(whole)

    def zi(piv):
        return {c: {cc: x if type(x) is tuple else (x, 0)
                    for cc, x in row.items()} for c, row in piv.items()}
    assert linalg.echelon_nullspace(zi(got), ncols) == \
        linalg.echelon_nullspace(zi(whole), ncols)

@pytest.mark.parametrize("rows,piv", [
    ([{0: 1}, {0: (1, 0)}], None),
    ([{0: (2, 1)}, {}, {1: 3}], None),
    ([{1: 1}], {0: {0: (1, 0)}}),
    ([{1: (0, 1)}], {0: {0: 2, 1: 1}}),
])
def test_echelon_refuses_mixed_kinds(rows, piv):
    with pytest.raises(ValueError):
        linalg.echelon(rows, 2, piv)


def _indexed_rows(system):
    """The system's Z[i] rows over column indices, as sbolattice orders the
    unknowns s_{i,j}, i <= depth, that its region leaves free."""
    cols, _ = lt._echelon([], system.depth, system.region)
    idx = {key: c for c, key in enumerate(cols)}
    return [{idx[key]: v for key, v in row.items()} for row in system.rows], \
        len(cols)


class TestShortestRowPivots:
    """The shortest-row pivot rule against the first-row rule it replaced:
    the same pivot columns and nullspaces on lattice systems, in fewer
    reductions."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_criterion_6_points(self, n):
        r, rh = Fraction(n, 2), Fraction(n - 1, 2)
        points = [(-(r + Fraction(1, 2) + a), -(rh + Fraction(1, 2) + b))
                  for a in range(-1, 5) for b in range(-1, 5)]
        points += [(0, 0), (Fraction(1, 3), Fraction(-2, 7))]
        for lam0, nu0 in points:
            for sign in (1, -1):
                _assert_same_echelon_as_first_row(*_indexed_rows(
                    lt.build_system(n, lam0, nu0, sign, 8)))

    @pytest.mark.parametrize("pair", ["FF", "FT", "TF", "TT"])
    def test_composition_region(self, pair):
        # the four systems of composition_multiplicity(4, 2, 1, 1, pair)
        src_f, dst_f = pair[0] == "F", pair[1] == "F"
        region = lambda k, l: (k <= 2 if src_f else k > 2) and \
            (l <= 1 if dst_f else l > 1)
        sign = -1 if (1 + src_f + (not dst_f)) % 2 else 1
        system = lt.build_system(4, Fraction(9, 2) if src_f else Fraction(-9, 2),
                                 -3 if dst_f else 3, sign, 8, region)
        _assert_same_echelon_as_first_row(*_indexed_rows(system))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_non_real_point(self, sign):
        lam0 = GaussianRational(Fraction(1, 3), 1)
        _assert_same_echelon_as_first_row(*_indexed_rows(
            lt.build_system(4, lam0, 0, sign, 8)))

    def test_reduction_count(self, monkeypatch):
        # the first-row rule took 17,392 reductions for this query; at its
        # real point they are Z reductions, and the Z[i] kernel is not used
        calls = []

        def counted(name):
            reduce = getattr(linalg, name)

            def wrapped(r, row, col):
                calls.append(name)
                return reduce(r, row, col)
            return wrapped

        for name in ("_reduce", "_reduce_z"):
            monkeypatch.setattr(linalg, name, counted(name))
        assert lt.multiplicity(4, "5/3", "9/7", depth=16)["total"] == 2
        assert 0 < len(calls) <= 6000
        assert set(calls) == {"_reduce_z"}
        assert lt.multiplicity(5, -3, "-5/2", depth=40) == {
            "dim_plus": 2, "dim_minus": 1, "total": 3, "stabilized": True,
            "on_lattice": True}
