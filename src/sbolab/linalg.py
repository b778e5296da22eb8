"""Exact sparse Gaussian elimination over the Gaussian rationals.

Rows are dicts column->GaussianRational, or column->(re, im) in Z[i]; no
floating point anywhere.
Elimination is fraction-free and done once, in `echelon`, on primitive
rows of Gaussian integers stored as (re, im) pairs of ints, or as ints in
Z when the caller's system is real (a lattice system at a real point, in
its real frame): a row is reduced by r <- p*r - f*pivot and divided by its
content.  The pivot of a column is the shortest row holding it
(Markowitz's rule, which limits fill), so a redundant row is reduced few
times before it vanishes; the columns are taken in order, so the pivot
columns and the reduced echelon form do not depend on which row is chosen.
`gaussian_ints` turns a Q(i) row into such a row; `eliminate`, `rank`
and `nullspace` take Q(i) rows and convert them, while a caller that
builds its rows in Z[i] or Z passes them to `echelon` directly.  A rank is the number of pivots; only a
caller that needs the pivot rows or a nullspace brings them back to Q(i),
normalized to 1 at the pivot.
"""

from math import gcd

from .paramfield import ZERO, ONE, _gr, _acc, _over_den


def _primitive(row):
    """Divide a Z[i] row {col: (re, im)} by the integer gcd of its parts."""
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return row
    return {c: (a // g, b // g) for c, (a, b) in row.items()}


def _ggcd(a, b, c, d):
    """A gcd of a + b*i and c + d*i in Z[i], by Euclid's algorithm."""
    while c or d:
        # q = (a + b i) / (c + d i) rounded to the nearest Gaussian integer
        nrm = c * c + d * d
        qr = (2 * (a * c + b * d) + nrm) // (2 * nrm)
        qi = (2 * (b * c - a * d) + nrm) // (2 * nrm)
        a, b, c, d = c, d, a - qr * c + qi * d, b - qr * d - qi * c
    return a, b


def _gdiv(x, y, a, b):
    """(x + y*i) / (a + b*i), exact in Z[i]."""
    nrm = a * a + b * b
    return (x * a + y * b) // nrm, (y * a - x * b) // nrm


def _gprimitive(row):
    """Divide a Z[i] row by the Gaussian gcd of its entries."""
    # start Euclid from the gcd of the norms, which the gcd divides
    a = b = 0
    for x, y in row.values():
        a = gcd(a, x * x + y * y)
        if a == 1:
            return row
    for x, y in row.values():
        a, b = _ggcd(x, y, a, b)
        if a * a + b * b == 1:
            return row
    return {c: _gdiv(x, y, a, b) for c, (x, y) in row.items()}


def gaussian_ints(row):
    """Scale a Q(i) row by the lcm of its denominators; primitive Z[i] row."""
    return _primitive(_over_den(row)[0])


def _to_rationals(row, col):
    """The Z[i] row divided by its entry at col, as Gaussian rationals."""
    a, b = row[col]
    nrm = a * a + b * b
    return {c: _gr(x * a + y * b, y * a - x * b, nrm)
            for c, (x, y) in row.items()}


def _reduce(r, row, col):
    """r <- p*r - f*row, which clears col, with p = row[col] and f = r[col]
    stripped of their common factor; the primitive result, or None if zero.
    Only when p or f has two nonzero parts (at a non-real point) are the
    common factor and the content taken in Z[i], not from integer gcds."""
    p_re, p_im = row[col]
    f_re, f_im = r[col]
    mixed = (p_re and p_im) or (f_re and f_im)
    if mixed:
        g_re, g_im = _ggcd(p_re, p_im, f_re, f_im)
        a, b = _gdiv(p_re, p_im, g_re, g_im)
        e, h = _gdiv(f_re, f_im, g_re, g_im)
    else:
        g = gcd(p_re, p_im, f_re, f_im)
        a, b, e, h = p_re // g, p_im // g, f_re // g, f_im // g
    out = {}
    for c, (x, y) in r.items():
        if c == col:
            continue
        u = a * x - b * y
        v = a * y + b * x
        w = row.get(c)
        if w is not None:
            u -= e * w[0] - h * w[1]
            v -= e * w[1] + h * w[0]
        if u or v:
            out[c] = (u, v)
    for c, (x, y) in row.items():
        if c != col and c not in r:
            out[c] = (h * y - e * x, -e * y - h * x)
    return (_gprimitive(out) if mixed else _primitive(out)) if out else None


def _primitive_z(row):
    """Divide a Z row {col: int} by the gcd of its entries."""
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    return {c: x // g for c, x in row.items()}


def _reduce_z(r, row, col):
    """`_reduce` on Z rows {col: int}: the same p*r - f*row, entry for entry
    that of the rows {col: (x, 0)}."""
    g = gcd(row[col], r[col])
    p, f = row[col] // g, r[col] // g
    out = {}
    for c, x in r.items():
        if c != col:
            x = p * x - f * row.get(c, 0)
            if x:
                out[c] = x
    for c, w in row.items():
        if c != col and c not in r:
            out[c] = -f * w
    return _primitive_z(out) if out else None


def echelon(rows, ncols, piv=None):
    """Fraction-free forward elimination of sparse Z[i] or Z rows.

    rows is an iterable of primitive Z[i] rows {col: (re, im)}, as made by
    `gaussian_ints`, or of primitive Z rows {col: int}, which are reduced in
    integers; empty rows are skipped, none is modified.  Rows of both kinds,
    or rows of another kind than piv's, raise ValueError.  Returns {pivot
    column: primitive row}.  The remaining rows wait in queues keyed by
    their leading column, so the queue of a column holds every row that
    still has an entry there.  Its pivot is the shortest row in the queue,
    the oldest on a tie (input rows in input order, then reduced rows in the
    order they were made); the rest are reduced against it and join the
    queue of their new leading column.  Given piv, the echelon of earlier
    rows, its row for a column stays that column's pivot and the new rows
    extend it, also where they hold columns that lie between those of the
    earlier rows; the pivot columns, the rank and `echelon_nullspace` are
    then those of the echelon of all rows.  piv itself is left as it was.
    """
    piv = dict(piv) if piv else {}
    kinds = {type(next(iter(r.values()))) for r in piv.values()}
    queue = {}
    for r in rows:
        if r:
            kinds.add(type(next(iter(r.values()))))
            queue.setdefault(min(r), []).append(r)
    if len(kinds) > 1:
        raise ValueError("echelon: Z and Z[i] rows mixed")
    reduce = _reduce_z if int in kinds else _reduce
    for col in range(ncols):
        if not queue:
            break
        work = queue.pop(col, None)
        if not work:
            continue
        row = piv.get(col)
        if row is None:
            row = piv[col] = work.pop(min(range(len(work)),
                                          key=lambda k: len(work[k])))
        for r in work:
            r = reduce(r, row, col)
            if r is not None:
                queue.setdefault(min(r), []).append(r)
    return piv


def eliminate(rows, ncols):
    """Forward-eliminate sparse rows; returns (pivot columns, pivot rows),
    each pivot row normalized to 1 at its pivot column."""
    piv = echelon((gaussian_ints(r) for r in rows), ncols)
    return list(piv), [_to_rationals(r, c) for c, r in piv.items()]


def rank(rows, ncols):
    return len(echelon((gaussian_ints(r) for r in rows), ncols))


def nullspace(rows, ncols):
    """Basis of the exact nullspace of the sparse row system.

    Returns a list of dicts column->GaussianRational, one per free column,
    each normalized so the free column has coefficient 1.
    """
    return echelon_nullspace(echelon((gaussian_ints(r) for r in rows), ncols),
                             ncols)


def echelon_nullspace(piv, ncols):
    """The nullspace basis of nullspace() from an echelon {col: Z[i] row}."""
    pivots = sorted(piv)
    prows = [_to_rationals(piv[c], c) for c in pivots]
    # back-substitute to reduced echelon form
    piv_of_col = {c: i for i, c in enumerate(pivots)}
    for i in range(len(prows) - 1, -1, -1):
        row = prows[i]
        for c in list(row.keys()):
            j = piv_of_col.get(c)
            if j is None or j <= i:
                continue
            f = -row.pop(c)
            _acc(row, ((cc, f * v) for cc, v in prows[j].items() if cc != c))
    free = [c for c in range(ncols) if c not in piv_of_col]
    basis = []
    for fc in free:
        vec = {fc: ONE}
        for i, pc in enumerate(pivots):
            v = prows[i].get(fc)
            if v is not None:
                vec[pc] = -v
        basis.append(vec)
    return basis


def solve_in_span(rows, m):
    """Solve sum_j c_j * column_j == target exactly, given as Z[i] rows.

    rows is an iterable of Z[i] rows {col: (re, im)}, one equation each:
    col j < m holds the coefficient of c_j and col m the target's entry,
    and a row may carry any nonzero integer factor.  Returns the list of
    the c_j as GaussianRational, or None if the system is inconsistent.
    Raises ValueError if the solution is not unique.

    The echelon grows one row at a time only until every unknown has a
    pivot; the remaining rows are then checked exactly in integers against
    the solution over a common denominator.  A system that never reaches
    full rank is decided by its full echelon.
    """
    rows = iter(rows)
    piv = {}
    while len(piv) < m:
        row = next(rows, None)
        if row is None:
            raise ValueError("solution not unique: rank %d < %d" % (len(piv), m))
        if row:
            piv = echelon([_primitive(row)], m + 1, piv)
            if m in piv:
                return None  # inconsistent
    # the pivots are the columns 0..m-1, so the nullspace is spanned by
    # (-c_0, ..., -c_{m-1}, 1)
    (vec,) = echelon_nullspace(piv, m + 1)
    sol = [-vec.get(c, ZERO) for c in range(m)]
    # the solution as Gaussian integers over one denominator d, and -d for
    # the target column
    nums, d = _over_den(dict(enumerate(sol)))
    nums[m] = (-d, 0)
    for row in rows:
        re = im = 0
        for c, (x, y) in row.items():
            a, b = nums[c]
            re += x * a - y * b
            im += x * b + y * a
        if re or im:
            return None  # inconsistent
    return sol
