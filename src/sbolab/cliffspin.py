"""Clifford algebras Cl(p,q), Pin elements, and fundamental spin modules.

Conventions follow the quadratic form Q(x) = -x_1^2 - ... - x_p^2 + x_{p+1}^2
+ ... + x_{p+q}^2, so the default Cl(n) = Cl(n,0) has e_i^2 = -1.  The spin
module S_n is the exterior algebra on w_a = (e_{2a-1} + sqrt(-1) e_{2a})/2,
with basis indexed by bitmasks over {1..m}.
"""

from functools import lru_cache

from .paramfield import GaussianRational, ZERO, ONE, I, _times_i_power, _acc
from . import linalg


class DimensionMismatch(ValueError):
    pass


class NotInPin(ValueError):
    pass


class IndependenceFailure(ValueError):
    pass


class CliffordElt:
    """Element of Cl(p,q) on the signed-subset basis e_S (S a bitmask)."""

    __slots__ = ("n", "p", "coeffs")

    def __init__(self, n, coeffs=None, p=None):
        self.n = n
        self.p = n if p is None else p
        self.coeffs = _acc({}, ((m, GaussianRational.coerce(v))
                                for m, v in (coeffs or {}).items()))

    @staticmethod
    def scalar(n, v, p=None):
        return CliffordElt(n, {0: v}, p)

    @staticmethod
    def basis(n, indices, p=None):
        """e_{i1} e_{i2} ... for strictly increasing 1-based indices."""
        mask = 0
        for i in indices:
            mask |= 1 << (i - 1)
        return CliffordElt(n, {mask: ONE}, p)

    @staticmethod
    def from_vector(coords, p=None):
        n = len(coords)
        return CliffordElt(n, {1 << i: GaussianRational.coerce(c)
                               for i, c in enumerate(coords)}, p)

    def _check(self, other):
        if self.n != other.n or self.p != other.p:
            raise DimensionMismatch("Clifford algebras differ")

    def __add__(self, other):
        self._check(other)
        return CliffordElt(self.n, _acc(dict(self.coeffs), other.coeffs.items()), self.p)

    def __sub__(self, other):
        return self + other.scale(GaussianRational(-1))

    def scale(self, v):
        v = GaussianRational.coerce(v)
        return CliffordElt(self.n, {m: c * v for m, c in self.coeffs.items()}, self.p)

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(other)
        self._check(other)
        n, p = self.n, self.p
        return CliffordElt(n, _acc({}, ((m, a * b * sgn)
                                        for s, a in self.coeffs.items()
                                        for t, b in other.coeffs.items()
                                        for sgn, m in [_blade_mul(n, p, s, t)])), p)

    __rmul__ = scale

    def alpha(self):
        """Canonical automorphism: -1 on odd-grade blades."""
        return CliffordElt(self.n, {m: (-v if bin(m).count("1") & 1 else v)
                                    for m, v in self.coeffs.items()}, self.p)

    def reverse(self):
        """Anti-automorphism reversing products of generators."""
        out = {}
        for m, v in self.coeffs.items():
            k = bin(m).count("1")
            out[m] = -v if (k * (k - 1) // 2) & 1 else v
        return CliffordElt(self.n, out, self.p)

    def scalar_part(self):
        return self.coeffs.get(0, ZERO)

    def is_zero(self):
        return not self.coeffs

    def vector_part(self):
        """(coordinates, pure): pure when every blade is a vector."""
        coords = [self.coeffs.get(1 << i, ZERO) for i in range(self.n)]
        return coords, all(bin(m).count("1") == 1 for m in self.coeffs)

    def versor_inverse(self):
        """Inverse of a product of unit vectors, via the reversal."""
        r = self.reverse()
        s = self * r
        sc = s.scalar_part()
        if len(s.coeffs) > (1 if not sc.is_zero() else 0) or sc.is_zero():
            raise NotInPin("element is not a versor (g * rev(g) not a scalar)")
        return r.scale(sc.inverse())

    def __eq__(self, other):
        return (isinstance(other, CliffordElt) and self.n == other.n
                and self.p == other.p and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            idx = [str(i + 1) for i in range(self.n) if m & (1 << i)]
            parts.append("%r*e%s" % (self.coeffs[m], "_".join(idx) if idx else "0"))
        return " + ".join(parts)


def _blade_mul(n, p, s, t):
    """(sign, mask) with e_S e_T = sign * e_mask in Cl(p, n - p)."""
    sign = 1
    # merge T's generators into S in ascending order, counting swaps
    for i in range(n):
        bit = 1 << i
        if t & bit:
            if bin(s >> (i + 1)).count("1") & 1:
                sign = -sign
            if s & bit:
                # e_i^2 = -1 for i < p else +1
                if i < p:
                    sign = -sign
                s &= ~bit
            else:
                s |= bit
    return sign, s


def pin_element(vectors, p=None):
    """Product of vectors in Cl(p,q); vectors must have Q(v) = +-1."""
    if not vectors:
        raise DimensionMismatch("pin_element needs at least one vector")
    n = len(vectors[0])
    g = CliffordElt.scalar(n, ONE, p)
    for v in vectors:
        ve = CliffordElt.from_vector(v, p)
        q = (ve * ve).scalar_part()
        if not (q == ONE or q == GaussianRational(-1)):
            raise NotInPin("vector with Q(v) != +-1")
        g = g * ve
    return g


def pin_cover_action(g, y):
    """Apply the covering map q(g): y -> alpha(g) y g^{-1} to a vector y."""
    ye = CliffordElt.from_vector(y, g.p)
    if ye.n != g.n:
        raise DimensionMismatch("vector dimension != algebra dimension")
    res = g.alpha() * ye * g.versor_inverse()
    coords, pure = res.vector_part()
    if not pure:
        raise NotInPin("twisted conjugation did not preserve vectors")
    return coords


# -- spin modules -------------------------------------------------------------

def spin_dim(n):
    return 1 << (n // 2)


class Spinor:
    """Element of S_n = Lambda(w_1..w_m); coeffs keyed by bitmask subsets."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs=None):
        self.m = m
        self.coeffs = _acc({}, ((mask, GaussianRational.coerce(v))
                                for mask, v in (coeffs or {}).items()))

    @staticmethod
    def basis(m, mask):
        return Spinor(m, {mask: ONE})

    def __add__(self, other):
        if self.m != other.m:
            raise DimensionMismatch("spinor spaces differ")
        return _spinor(self.m, _acc(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other):
        return self + other.scale(GaussianRational(-1))

    def scale(self, v):
        v = GaussianRational.coerce(v)
        if v.is_zero():
            return Spinor(self.m)
        return _spinor(self.m, {mask: c * v for mask, c in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Spinor) and self.m == other.m
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs):
            idx = [str(a + 1) for a in range(self.m) if mask & (1 << a)]
            parts.append("%r*w%s" % (self.coeffs[mask], "".join(idx) if idx else "0"))
        return " + ".join(parts)


def _spinor(m, coeffs):
    """Spinor from a mask -> nonzero GaussianRational dict, taken as it is."""
    s = object.__new__(Spinor)
    s.m, s.coeffs = m, coeffs
    return s


@lru_cache(maxsize=None, typed=True)
def _zeta_table(n, variant, i):
    """zeta_n(e_i) as a signed permutation: entry `mask` is (image, k) with
    zeta_n(e_i) w_mask = i^k w_image.

    With m = n // 2, e_{2a-1} = w_a + w'_a and e_{2a} = -i w_a + i w'_a,
    where w_a wedges from the left and w'_a contracts; for odd n,
    e_n = i * gamma.  Variant '-' is the alpha-twist, -zeta(e_i)."""
    if i < 1 or i > n:
        raise DimensionMismatch("generator index out of range")
    if variant not in ("+", "-"):
        raise ValueError("spin module variant must be '+' or '-', got %r" % (variant,))
    table = []
    for mask in range(1 << (n // 2)):
        if n % 2 and i == n:
            image, k = mask, 1 + 2 * (bin(mask).count("1") & 1)
        else:
            a = (i + 1) // 2
            bit = 1 << (a - 1)
            below = bin(mask & (bit - 1)).count("1") & 1
            image = mask ^ bit
            if mask & bit:  # w'_a removes w_a from position below + 1
                k = 2 * (1 - below) + (0 if i % 2 else 1)
            else:           # w_a moves to the front past `below` factors
                k = 2 * below + (0 if i % 2 else 3)
        if variant == "-":
            k += 2
        table.append((image, k % 4))
    return tuple(table)


@lru_cache(maxsize=None, typed=True)
def _blade_action(n, mask):
    """zeta_n(e_S) for the blade e_S = e_{s_1} ... e_{s_k}, s_1 < ... < s_k,
    as a signed permutation like `_zeta_table`: entry w is (image, k) with
    zeta_n(e_S) w_w = i^k w_image."""
    gens = [i for i in range(n, 0, -1) if mask >> (i - 1) & 1]
    out = []
    for w in range(1 << (n // 2)):
        k = 0
        for i in gens:  # the rightmost factor acts first
            w, d = _zeta_table(n, "+", i)[w]
            k += d
        out.append((w, k % 4))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def _blade_lmul(n, i):
    """Left multiplication by e_i on the blades that span End(S_n): entry S
    is (image, k) with zeta_n(e_i e_S) = i^k zeta_n(e_image).

    The blades run over e_1..e_n for even n, where Cl(n) (x) C = End(S_n),
    and over e_1..e_{n-1} for odd n, where e_n acts as i^k e_1 ... e_{n-1}
    with k read off the zeta tables."""
    nb = n - n % 2
    left, k0 = 1 << (i - 1), 0
    if i > nb:
        left = (1 << nb) - 1
        k0 = _zeta_table(n, "+", n)[0][1] - _blade_action(n, left)[0][1]
    out = []
    for s in range(1 << nb):
        sign, image = _blade_mul(nb, nb, left, s)
        out.append((image, (k0 + 1 - sign) % 4))
    return tuple(out)


def zeta_gen_apply(n, variant, i, s):
    """Action of zeta_n(e_i) on a spinor (variant '+' or '-', the latter only
    meaningful for odd n: zeta^- = zeta o alpha, i.e. -zeta(e_i) on vectors)."""
    m = n // 2
    if s.m != m:
        raise DimensionMismatch("spinor has wrong half-dimension for n=%d" % n)
    table = _zeta_table(n, variant, i)
    out = {}
    for mask, v in s.coeffs.items():
        image, k = table[mask]
        out[image] = _times_i_power(k, v)
    return _spinor(m, out)


def zeta_action(n, variant, v, s):
    """zeta_n(v) s for a coefficient vector v of length n."""
    if len(v) != n:
        raise DimensionMismatch("vector length != n")
    out = Spinor(s.m)
    for i, c in enumerate(v, start=1):
        c = GaussianRational.coerce(c)
        if c.is_zero():
            continue
        out = out + zeta_gen_apply(n, variant, i, s).scale(c)
    return out


def gamma(s):
    """Grading involution: (-1)^degree on the exterior algebra."""
    return _spinor(s.m, {mask: (-v if bin(mask).count("1") & 1 else v)
                         for mask, v in s.coeffs.items()})


class SpinMap:
    """Linear map between spin modules; sparse exact matrix."""

    __slots__ = ("src_dim", "dst_dim", "entries")

    def __init__(self, src_dim, dst_dim, entries=None):
        self.src_dim = src_dim
        self.dst_dim = dst_dim
        self.entries = _acc({}, ((k, GaussianRational.coerce(v))
                                 for k, v in (entries or {}).items()))

    @staticmethod
    def identity(dim):
        return SpinMap(dim, dim, {(i, i): ONE for i in range(dim)})

    def apply_spinor(self, s):
        x = s.coeffs
        return _spinor(self.dst_dim.bit_length() - 1,
                       _acc({}, ((r, v * x[c]) for (r, c), v in self.entries.items()
                                 if c in x)))

    def compose(self, other):
        """self o other."""
        if other.dst_dim != self.src_dim:
            raise DimensionMismatch("composition shapes differ")
        return SpinMap(other.src_dim, self.dst_dim, _matmul(self.entries, other.entries))

    def __add__(self, other):
        if (self.src_dim, self.dst_dim) != (other.src_dim, other.dst_dim):
            raise DimensionMismatch("shapes differ")
        return SpinMap(self.src_dim, self.dst_dim,
                       _acc(dict(self.entries), other.entries.items()))

    def __sub__(self, other):
        return self + other.scale(GaussianRational(-1))

    def scale(self, v):
        v = GaussianRational.coerce(v)
        return SpinMap(self.src_dim, self.dst_dim,
                       {k: c * v for k, c in self.entries.items()})

    def rank(self):
        rows = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return linalg.rank(list(rows.values()), self.src_dim)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SpinMap)
                and (self.src_dim, self.dst_dim) == (other.src_dim, other.dst_dim)
                and self.entries == other.entries)

    def __repr__(self):
        return "SpinMap(%d->%d, %d entries)" % (self.src_dim, self.dst_dim,
                                                len(self.entries))


def _matmul(a, b):
    """Product of sparse matrices {(row, col): entry}; the entries may be
    Gaussian rationals or ParamScalars, mixed in either factor."""
    rows_b = {}
    for (r, c), y in b.items():
        rows_b.setdefault(r, []).append((c, y))
    return _acc({}, (((r, cc), x * y) for (r, c), x in a.items()
                     for cc, y in rows_b.get(c, ())))


@lru_cache(maxsize=None, typed=True)
def zeta_matrix(n, variant, i):
    """Matrix of zeta_n(e_i) on the mask-ordered basis of S_n, read from the
    signed permutation `_zeta_table`: i^k at (image, mask)."""
    dim = spin_dim(n)
    return SpinMap(dim, dim, {(image, mask): _times_i_power(k, ONE) for mask, (image, k)
                              in enumerate(_zeta_table(n, variant, i))})


@lru_cache(maxsize=None, typed=True)
def gamma_matrix(m):
    dim = 1 << m
    return SpinMap(dim, dim,
                   {(i, i): GaussianRational(-1 if bin(i).count("1") & 1 else 1)
                    for i in range(dim)})


@lru_cache(maxsize=None, typed=True)
def fund_branching(n):
    """The two fundamental-spin branching maps S_n -> S_{n+1}.

    n even: the isomorphisms zeta_n ~ zeta_{n+1}^{+/-}| (identity and gamma).
    n odd: the embeddings zeta_n^{+/-} into zeta_{n+1}| with images
    {w -+ sqrt(-1) w ^ w_{m+1}}.
    """
    m = n // 2
    dim = 1 << m
    if n % 2 == 0:
        return SpinMap.identity(dim), gamma_matrix(m)
    big = 1 << (m + 1)
    top = 1 << m
    plus = {}
    minus = {}
    for mask in range(dim):
        sgn = GaussianRational(-1 if bin(mask).count("1") & 1 else 1)
        plus[(mask, mask)] = ONE
        plus[(mask | top, mask)] = -I
        # the minus variant carries the gamma twist: w -> gamma(w) + i gamma(w)^w_{m+1}
        minus[(mask, mask)] = sgn
        minus[(mask | top, mask)] = I * sgn
    return SpinMap(dim, big, plus), SpinMap(dim, big, minus)


@lru_cache(maxsize=None, typed=True)
def spin_projection_P(n):
    """Nonzero P: S_n -> S_{n-1} intertwining [zeta_n (x) det]| with zeta_{n-1}.

    For n odd P = gamma (an isomorphism); for n even P kills the summand on
    which Pin(n-1) acts by zeta_{n-1} itself and inverts the branching
    embedding on the complementary summand, so P o iota_minus = id.
    """
    if type(n) is not int or n < 2:  # type, not isinstance: no bools
        raise DimensionMismatch("need an integer n >= 2, got n=%r" % (n,))
    if n % 2:
        return gamma_matrix(n // 2)
    m = n // 2
    dim = 1 << m
    small = 1 << (m - 1)
    top = 1 << (m - 1)
    # invert iota_minus on its image: project onto im(iota_minus) with
    # (id - zeta_n(e_n) o gamma)/2, strip the w_m part, and undo the gamma
    # twist carried by the minus embedding
    zg = zeta_matrix(n, "+", n).compose(gamma_matrix(m))
    proj = (SpinMap.identity(dim) - zg).scale(GaussianRational("1/2"))
    return SpinMap(dim, small, {(r, c): -v if bin(r).count("1") & 1 else v
                                for (r, c), v in proj.entries.items() if not r & top})


def check_proj_independence(n):
    """Exact rank certificate that {P o zeta_n(e_i)} are linearly independent."""
    if type(n) is not int or n % 2 or n < 2:
        raise DimensionMismatch("independence check is for an even integer n >= 2")
    P = spin_projection_P(n)
    rows = []
    for i in range(1, n + 1):
        comp = P.compose(zeta_matrix(n, "+", i))
        row = {}
        for (r, c), v in comp.entries.items():
            row[r * comp.src_dim + c] = v
        rows.append(row)
    dim = spin_dim(n) * spin_dim(n - 1)
    rk = linalg.rank(rows, dim)
    report = {"n": n, "rank": rk, "expected": n, "ok": rk == n}
    if rk < n:
        # witness: a nontrivial dependency among the maps
        keys = sorted({k for r in rows for k in r})
        coeff_rows = [{i: rows[i][key] for i in range(n) if key in rows[i]}
                      for key in keys]
        ker = linalg.nullspace(coeff_rows, n)
        report["witness"] = [[repr(v.get(i, ZERO)) for i in range(n)] for v in ker]
        raise IndependenceFailure(repr(report))
    return report
