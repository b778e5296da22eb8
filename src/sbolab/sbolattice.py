"""The K-type lattice recurrence system for intertwiner multiplicities.

Intertwining operators between the two principal series are encoded by
scalars s_{i,j} on the triangular lattice {0 <= j <= i}; three families of
exact linear relations couple neighboring points.  Solving the truncated
system over Q(sqrt(-1)) reproduces the multiplicity jump from 2 to 3 on the
special parameter set and the composition-factor multiplicity tables, via
vanishing patterns that select quotients and subrepresentations.
"""

from fractions import Fraction
from math import gcd

from .paramfield import GaussianRational, ONE, _gr, _over_den
from .cliffspin import DimensionMismatch
from . import linalg


class BadDepth(ValueError):
    pass


class BadLabel(ValueError):
    """A sector sign, lattice index or parity outside its range."""


def lattice_point(n, a, b):
    """The point (lam, nu) of lattice index (a, b):
    lam = -(rho + 1/2 + a) with rho = n/2, nu = -(rho' + 1/2 + b) with
    rho' = (n - 1)/2.  The special set is 0 <= b <= a."""
    return Fraction(-(n + 1 + 2 * a), 2), Fraction(-(n + 2 * b), 2)


# -- the sector systems ---------------------------------------------------------

class LatticeSystem:
    """Truncated linear system in the sector scalars s_{i,j}.

    rows are the constraints as primitive Z[i] rows {(i, j): (re, im)},
    built at the scaled point (D, D*lam0, D*nu0) of `_scaled_point`: row k
    times contents[k] / D is constraint k over Q(i).
    """

    __slots__ = ("n", "lam0", "nu0", "sign", "depth", "region", "point",
                 "rows", "contents", "_constraints")

    def __init__(self, n, lam0, nu0, sign, depth, point, rows, contents,
                 region=None):
        self.n, self.lam0, self.nu0, self.sign, self.depth = \
            n, lam0, nu0, sign, depth
        self.point, self.rows, self.contents, self.region = \
            point, rows, contents, region
        self._constraints = None

    @property
    def constraints(self):
        """The constraint rows {(i, j): GaussianRational}, built when first
        read: the sector identities evaluated at (lam0, nu0)."""
        if self._constraints is None:
            d = self.point[0]
            self._constraints = [
                {key: _gr(x * g, y * g, d) for key, (x, y) in row.items()}
                for row, g in zip(self.rows, self.contents)]
        return self._constraints


class SolutionSpace:
    """Nullities of a truncated system at depths d and d + 1; the nullspace
    basis at depth d, that of the reduced echelon form in level order, is
    built from the j-major echelon over the depth-(d + 1) triangle when
    first read.  An echelon of Z rows in the unknowns t_{i,j} = i^-k s_{i,j}
    of `_real_frame` is first brought back to s: x at (i, j) becomes
    x * i^-k."""

    __slots__ = ("dim", "dim_next", "stabilized", "_piv", "_cols", "_depth",
                 "_frame", "_basis")

    def __init__(self, dim, dim_next, piv, cols, depth, frame=None):
        self.dim = dim
        self.dim_next = dim_next
        self.stabilized = dim == dim_next
        self._piv = piv
        self._cols = cols
        self._depth = depth
        self._frame = frame
        self._basis = None

    @property
    def basis(self):
        if self._basis is None:
            cols, k, piv = self._cols, self._frame, self._piv
            if k is not None:
                piv = {c: {cc: (0, -x) if k(*cols[cc]) else (x, 0)
                           for cc, x in row.items()} for c, row in piv.items()}
            # the level-(d + 1) unknowns hold no entry of a depth-d row, so
            # each is free and its nullspace vector is its unit vector
            vecs = [{cols[c]: v for c, v in vec.items()} for vec in
                    linalg.echelon_nullspace(piv, len(cols))]
            self._basis = _level_form([vec for vec in vecs
                                       if max(vec)[0] <= self._depth])
        return self._basis


def _level_form(vecs):
    """The basis of the span of vecs {(i, j): GaussianRational} that is 1 at
    one free unknown and 0 at the others, sorted by free unknown, the free
    unknowns being the last independent coordinates in level order: the
    reduced echelon form of vecs with the coordinates numbered from the
    largest (i, j) down.  For a nullspace these complement the first
    independent columns of the rows, the pivots in level order, so this is
    the level-order nullspace basis."""
    keys = sorted({k for vec in vecs for k in vec}, reverse=True)
    idx = {k: c for c, k in enumerate(keys)}
    rows = ({idx[k]: x for k, x in vec.items()} for vec in vecs)
    rref = linalg.reduced_echelon(
        linalg.echelon(map(linalg.gaussian_ints, rows), len(keys)))
    return [{keys[c]: ONE, **{keys[cc]: row[cc]
                              for cc in sorted(row, reverse=True) if cc != c}}
            for c, row in reversed(rref.items())]


def _scaled_point(lam0, nu0):
    """D = 2 lcm(den lam0, den nu0) and D*lam0, D*nu0 as Z[i] pairs."""
    parts, den = _over_den({"lam": lam0, "nu": nu0})
    (lr, li), (nr, ni) = parts.values()
    return 2 * den, (2 * lr, 2 * li), (2 * nr, 2 * ni)


def _level_rows(n, point, sigma, i, region):
    """The sector identities at (i, j), 0 <= j <= i, at the scaled point
    (D, D*lam0, D*nu0), as (row, content) pairs: each identity times D has
    Gaussian-integer entries (an integer times an affine form in lam0, nu0,
    possibly times i) and is divided by its integer content.  Neighbors
    outside the triangle are never formed; entries outside region (pinned
    to zero) are dropped before they are computed, zero entries after, and
    so are rows left empty."""
    d, (lr, li), (nr, ni) = point
    h = d // 2
    one, lam = (1, 0), (lr, li)
    a, b = n + 2 * i - 1, n + 2 * i + 1
    up = (lr + h * (n + 1) + d * i, li)  # D * (lam0 + rho + 1/2 + i)
    dn = (lr - h * (n - 1) - d * i, li)  # D * (lam0 - rho + 1/2 - i)
    # the free points of levels i - 1..i + 1; row (i, j) reads columns j - 1..j + 1
    keep = None if region is None else {
        (k, l) for k in (i - 1, i, i + 1) for l in range(k + 1) if region(k, l)}
    cols = None if keep is None else {l for _, l in keep}
    out = []
    for j in range(i + 1):
        if cols is not None and cols.isdisjoint((j - 1, j, j + 1)):
            continue
        sgn = sigma if (i - j) % 2 == 0 else -sigma
        m = n + 2 * j - 1
        # the units on the (i, j +- 1) and the (i +- 1, j) neighbors
        mid, side = ((0, sgn), (0, 1)) if n % 2 == 0 else (one, (sgn, 0))
        # family 1: couples (i, j) to degree j+1 neighbors
        f1 = [((i, j), a * b, one, (nr + h * n + d * j, ni)),
              ((i + 1, j + 1), -a * m, one, up)]
        if j + 1 <= i:
            f1.append(((i, j + 1), 2 * m, mid, lam))
        if j + 1 <= i - 1:
            f1.append(((i - 1, j + 1), b * m, one, dn))
        # family 2: horizontal neighbors
        c = sgn * (n + 2 * i) * m
        f2 = [((i, j), 1, one, (a * b * nr - c * lr, a * b * ni - c * li)),
              ((i + 1, j), (i - j + 1) * a, side, up)]
        if i - 1 >= j:
            f2.append(((i - 1, j), -b * (n + i + j - 1), side, dn))
        rows = [f1, f2]
        # family 3: couples (i, j) to degree j-1 neighbors
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
                if keep is None or key in keep:
                    x, y = k * (u * x - v * y), k * (u * y + v * x)
                    if x or y:
                        g = gcd(g, x, y)
                        ents.append((key, x, y))
            if ents:
                out.append(({key: (x // g, y // g) for key, x, y in ents}, g))
    return out


def build_system(n, lam0, nu0, sign, depth, region=None):
    """Instantiate all three identity families inside the depth-truncated
    triangle at an exact parameter point, as primitive Z[i] rows.

    A constraint is kept only when every lattice point it references lies in
    the triangle; region (a predicate) restricts the free unknowns, points
    outside it are pinned to zero.  The Q(i) rows are built only when
    `constraints` is read.
    """
    if not isinstance(n, int) or n < 2:
        raise DimensionMismatch("need an integer n >= 2")
    if not isinstance(depth, int) or depth < 2:
        raise BadDepth("depth must be an integer >= 2")
    if sign not in (1, -1, "+", "-", "plus", "minus"):
        raise BadLabel("sign must be 1, -1, '+', '-', 'plus' or 'minus'")
    lam0 = GaussianRational.coerce(lam0)
    nu0 = GaussianRational.coerce(nu0)
    sigma = 1 if sign in (1, "+", "plus") else -1
    point = _scaled_point(lam0, nu0)
    pairs = [p for i in range(depth)
             for p in _level_rows(n, point, sigma, i, region)]
    return LatticeSystem(n, lam0, nu0, sigma, depth, point,
                         [p[0] for p in pairs], [p[1] for p in pairs], region)


def _real_frame(system):
    """At a real point, k(i, j) of the unknowns t_{i,j} = i^-k s_{i,j} in
    which every row is real up to a unit +-i: (i + j) mod 2 at even n, where
    the (i, j +- 1) and (i +- 1, j) neighbors carry i, and 0 at odd n.  The
    entry e at (i, j) becomes the int re + im of e * i^k.  None at a
    non-real point."""
    if system.point[1][1] or system.point[2][1]:
        return None
    even = system.n % 2 == 0
    return lambda i, j: (i + j) % 2 if even else 0


def _echelon(rows, depth, region, piv=None, frame=None):
    """The unknowns s_{i,j}, i <= depth, free in region, sorted by (j, i),
    and the echelon of the rows over them.  A row at (i, j) reads only the
    neighbors (i +- 1, j +- 1), so this order keeps the unknowns of a j-line
    together and the elimination reduces fewer rows than in level order.
    Given the frame of `_real_frame`, the rows are eliminated over Z in the
    unknowns t_{i,j}, otherwise over Z[i]."""
    cols = [(i, j) for j in range(depth + 1) for i in range(j, depth + 1)
            if region is None or region(i, j)]
    idx = {key: c for c, key in enumerate(cols)}
    if frame is None:
        rows = ({idx[key]: v for key, v in row.items()} for row in rows)
    else:
        odd = {key for key in cols if frame(*key)}
        rows = ({idx[key]: x - y if key in odd else x + y
                 for key, (x, y) in row.items()} for row in rows)
    return cols, linalg.echelon(rows, len(cols), piv)


def solve_dimension(system):
    """Exact nullity of the truncated system, with a stabilization flag.  The
    depth-d rows, eliminated over the depth-(d + 1) triangle (they hold no
    level-(d + 1) unknown), give the nullity at depth d; their echelon,
    extended by the rows of level d, gives it at d + 1 without solving that
    system again."""
    d, region, frame = system.depth, system.region, _real_frame(system)
    cols, piv = _echelon(system.rows, d + 1, region, None, frame)
    top = [row for row, _ in
           _level_rows(system.n, system.point, system.sign, d, region)]
    _, piv1 = _echelon(top, d + 1, region, piv, frame)
    ncols = sum(1 for i, _ in cols if i <= d)
    return SolutionSpace(ncols - len(piv), len(cols) - len(piv1), piv, cols,
                         d, frame)


def on_special_set(n, lam0, nu0):
    """True when (lam0, nu0) sits on the multiplicity-3 parameter set; any
    exact scalar is accepted, and a point off the real line is not on it."""
    lam0, nu0 = GaussianRational.coerce(lam0), GaussianRational.coerce(nu0)
    if lam0.im or nu0.im:
        return False
    lam, nu = lattice_point(n, 0, 0)
    a, b = lam - lam0.re, nu - nu0.re
    return a.denominator == 1 and b.denominator == 1 and 0 <= b <= a


def multiplicity(n, lam0, nu0, depth=12):
    """Per-sector and total solution dimensions at one parameter point."""
    out = {}
    total = 0
    stab = True
    for sign, key in ((1, "dim_plus"), (-1, "dim_minus")):
        sol = solve_dimension(build_system(n, lam0, nu0, sign, depth))
        out[key] = sol.dim
        total += sol.dim
        stab = stab and sol.stabilized
    out["total"] = total
    out["stabilized"] = stab
    out["on_lattice"] = on_special_set(n, lam0, nu0)
    return out


# -- composition factor multiplicities ------------------------------------------

_PAIRS = ("FF", "FT", "TF", "TT")


def composition_multiplicity(n, i, j, parity, pair, depth=12, stabilize=True):
    """Multiplicity of maps between irreducible constituents at reducibility.

    pair is 'FF', 'FT', 'TF' or 'TT' (source factor F(i) or T(i), target
    F'(j) or T'(j)); parity is delta+epsilon mod 2.  The factor is realized
    as a quotient of the full module at the sign of the induction parameter
    where it is a quotient, the target as a subrepresentation, and the
    lattice system is solved with the matching support pattern: F(i) sits
    at -lam and T'(j) at -nu of `lattice_point` (n, i, j).  The entry is the
    nullity of the depth-d rows over the unknowns of the depth-d triangle.
    stabilize has no effect: those rows hold no level-(d + 1) unknown, so
    numbering the depth-(d + 1) triangle, as `solve_dimension` does, gives
    the same nullity.
    """
    if type(n) is not int or n < 2:  # type, not isinstance: no bools
        raise DimensionMismatch("need an integer n >= 2")
    if any(type(x) is not int for x in (i, j, parity)) or min(i, j) < 0 \
            or parity not in (0, 1):
        raise BadLabel("need integers i, j >= 0 and parity 0 or 1")
    if type(depth) is not int or depth <= i + j + 2:
        raise BadDepth("depth must exceed i + j + 2")
    if pair not in _PAIRS:
        raise ValueError("pair must be one of %r" % (_PAIRS,))
    lam, nu = lattice_point(n, i, j)
    src_F = pair[0] == "F"
    dst_F = pair[1] == "F"
    lam0 = -lam if src_F else lam
    nu0 = nu if dst_F else -nu
    # realizing F as a quotient and T' as a subrepresentation flips one
    # parity each; the sector carries the net flip
    p = (parity + (1 if src_F else 0) + (0 if dst_F else 1)) % 2
    sign = 1 if p == 0 else -1
    region = lambda k, l: (k <= i) == src_F and (l <= j) == dst_F
    system = build_system(n, lam0, nu0, sign, depth, region)
    cols, piv = _echelon(system.rows, depth, region, None, _real_frame(system))
    return len(cols) - len(piv)


def composition_table(n, imax, jmax, depth=12):
    """All four multiplicities for i <= imax, j <= jmax and both parities."""
    rows = []
    for i in range(imax + 1):
        for j in range(jmax + 1):
            for parity in (0, 1):
                entry = {"n": n, "i": i, "j": j, "parity": parity}
                for pair in _PAIRS:
                    entry[pair] = composition_multiplicity(n, i, j, parity,
                                                           pair, depth)
                rows.append(entry)
    return rows


def expected_composition(i, j, parity):
    """The two multiplicity tables: {pair: dim} at (i, j, delta+epsilon)."""
    if 0 <= j <= i and (i + j) % 2 == parity % 2:
        return {"FF": 1, "FT": 0, "TF": 0, "TT": 1}
    return {"FF": 0, "FT": 0, "TF": 1, "TT": 0}
