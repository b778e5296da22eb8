"""Symbolic calculus of equivariant distribution kernels on R^n.

A kernel expression is a normalized sum of three kinds of terms:

  Smooth   c(lam,nu) * x'^mono * sgn(x_n)^par |x_n|^xn (|x'|^2+x_n^2)^r
  Boundary c(lam,nu) * x'^mono * |x'|^xp delta^(m)(x_n)
  Point    c(lam,nu) * d^alpha delta(x)

Exponents are affine in (lam, nu) (`paramfield.AffineExp`).  A coefficient
is a sparse dict, with no zero entry, of exact rational functions with formal
Gamma tokens: {blade: scalar} on the blades of Cl(n) (x) C = End(S_n)
(`cliffspin._blade_lmul`; blade 0 for a scalar kernel), or {(row, col):
scalar} for a projected kernel, whose rows lie in S_{n-1}.  Normal forms expand radial factors against delta
layers by the finite jet pairing, absorb x_n powers into the sign/exponent
data, and pull |x'|^2-divisible prefactors into the radial exponents, so
equality of kernels is decidable by structural comparison.
"""

from itertools import combinations
from math import factorial

from .paramfield import (AffineExp, GaussianRational, ParamScalar, rat, pochhammer,
                         PS_ONE, _ps_times_i_power, _ps_times_int, _acc)
from .cliffspin import (zeta_matrix, spin_projection_P, spin_dim, _blade_action,
                        _blade_lmul, _matmul)


class BadParams(ValueError):
    pass


class UnknownIdentity(KeyError):
    pass


class SymmetryFailure(AssertionError):
    pass


_AFF0 = AffineExp()
# the rational constants of the families and identities, parsed once
_H, _Q1, _Q3 = rat("1/2"), rat("1/4"), rat("3/4")


def _bump(t, pos, d):
    """The tuple t with d added at position pos."""
    return t[:pos] + (t[pos] + d,) + t[pos + 1:]


# -- coefficient values ----------------------------------------------------------

def _put(terms, key, val, k=1):
    """Add k * val (k a nonzero int) to terms[key] entry by entry; an entry
    whose sum is zero is dropped, and so is a key left with no entry."""
    acc = _acc(dict(terms.get(key, ())),
               val.items() if k == 1 else ((b, _ps_times_int(x, k)) for b, x in val.items()))
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


def _zeta_lmul(n, gen, v):
    """zeta_n(e_gen) v for a blade dict v: a remap of blades times powers of i."""
    table = _blade_lmul(n, gen)
    return {table[b][0]: _ps_times_i_power(table[b][1], x) for b, x in v.items()}


def blade_matrix(n, v):
    """The dense End(S_n) matrix {(row, col): x} of a blade dict v."""
    return _acc({}, (((row, col), _ps_times_i_power(k, x)) for b, x in v.items()
                     for col, (row, k) in enumerate(_blade_action(n, b))))


def _matrix_blades(n, m):
    """The blade dict of a dense End(S_n) matrix m.  The blades are
    trace-orthogonal, so the coefficient of e_S is tr(zeta_n(e_S)^-1 m)/dim;
    zeta_n(e_S) has i^k at (row, col), its inverse i^-k at (col, row)."""
    inv = ParamScalar(1, spin_dim(n))
    return _acc({}, ((b, _ps_times_i_power(-k % 4, ParamScalar.coerce(m[row, col])) * inv)
                     for b in range(1 << (n - n % 2))
                     for col, (row, k) in enumerate(_blade_action(n, b))
                     if (row, col) in m))


def _raw_value(n, v):
    """A coefficient given to the constructor, as a blade dict: a scalar x is
    x e_0 and a dense matrix {(row, col): x} is expanded on the blades."""
    if not isinstance(v, dict):
        return {0: ParamScalar.coerce(v)}
    if isinstance(next(iter(v), 0), tuple):
        return _matrix_blades(n, v)
    return {b: ParamScalar.coerce(x) for b, x in v.items()}


# -- the kernel expression ----------------------------------------------------

class KernelExpr:
    """Normalized formal sum of Smooth/Boundary/Point kernel terms.

    row_n is n - 1 for a projected kernel (rows in S_{n-1}), else n.  Raw
    terms may also carry a scalar or a dense End(S_n) matrix as value."""

    __slots__ = ("n", "shape", "terms", "meta", "row_n")

    def __init__(self, n, shape=None, terms=None, meta=None, normalized=False,
                 row_n=None):
        self.n = n
        self.shape = shape
        self.row_n = n if row_n is None else row_n
        if shape and self.row_n == n and tuple(shape) != (spin_dim(n),) * 2:
            raise BadParams("a spinor kernel on R^%d has shape (%d, %d)"
                            % ((n,) + (spin_dim(n),) * 2))
        self.meta = dict(meta or {})
        t = terms or {}
        if not normalized:
            if self.row_n == n:
                t = {k: _raw_value(n, v) for k, v in t.items()}
            t = _normalize(n, t)
        self.terms = t

    def is_zero(self):
        return not self.terms

    def copy_with(self, terms, normalized=False, meta=None):
        return KernelExpr(self.n, self.shape, terms,
                          meta if meta is not None else self.meta, normalized,
                          self.row_n)

    def __add__(self, other):
        if (self.n, self.shape, self.row_n) != (other.n, other.shape, other.row_n):
            raise BadParams("incompatible kernel expressions")
        t = dict(self.terms)
        for k, v in other.terms.items():
            _put(t, k, v)
        return self.copy_with(t, normalized=True)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = ParamScalar.coerce(c)
        if c.is_zero():
            return self.copy_with({}, normalized=True)
        return self.copy_with({k: {b: x * c for b, x in v.items()}
                               for k, v in self.terms.items()}, normalized=True)

    def _subs(self, method, *args):
        """Apply the affine substitution `method` (a method name shared by
        AffineExp and ParamScalar) to every exponent and coefficient.
        Coefficient values repeat across terms and blades, so each distinct
        one is substituted once; entries that become zero are dropped."""
        done = {}

        def sub(x):
            return getattr(x, method)(*args)

        def coeff(x):
            y = done.get(x)
            if y is None:
                y = done[x] = sub(x)
            return y
        out = {}
        for k, v in self.terms.items():
            if k[0] != "P":
                k = (k[0], k[1], sub(k[2]), sub(k[3]), k[4])
            _put(out, k, {b: coeff(x) for b, x in v.items()})
        # substitution keeps both normal-form conditions (see _normalize)
        return self.copy_with(out, normalized=True)

    def subs_lam(self, e, f):
        """Substitute lam := e*nu + f everywhere (constraint-line restriction)."""
        return self._subs("subs_lam", e, f)

    def shift_params(self, dl, dv):
        """Substitute (lam, nu) := (lam + dl, nu + dv); builds K_{lam+dl, nu+dv}."""
        return self._subs("shift", dl, dv)

    def __eq__(self, other):
        return (isinstance(other, KernelExpr)
                and (self.n, self.shape, self.row_n) == (other.n, other.shape, other.row_n)
                and self.terms == other.terms)

    def __repr__(self):
        return "KernelExpr(n=%d, shape=%r, %d terms)" % (self.n, self.shape,
                                                         len(self.terms))


# -- normalization ------------------------------------------------------------

def _divide_r2(poly, nx):
    """Division of {mono: value} by x_1^2+...+x_nx^2: returns (quotient, rem)."""
    work = dict(poly)
    q = {}
    rem = {}
    while work:
        mono = max(work)  # lex order
        val = work.pop(mono)
        if mono[0] >= 2:
            qm = _bump(mono, 0, -2)
            _put(q, qm, val)
            # subtract val * x^qm * (x_1^2 + ... + x_nx^2); the x_1^2 piece
            # is the popped leading term itself
            for i in range(1, nx):
                _put(work, _bump(qm, i, 2), val, -1)
        else:
            _put(rem, mono, val)
    return q, rem


def _normalize(n, raw):
    """Bring raw terms to normal form (see the module docstring): x_1-exponent
    at most 1 in every non-point x' monomial (what _divide_r2 leaves), radial
    exponent _AFF0 in every Boundary term.  Terms meeting both come back as given."""
    nx = n - 1
    terms = {}

    # pass 1: expand radial boundary factors against the delta layers
    for key, val in raw.items():
        if key[0] != "B" or key[3] == _AFF0:
            _put(terms, key, val)
            continue
        _, m, xp, r, mono = key
        # (|x'|^2 + x_n^2)^r delta^(m): only the x_n-jet up to order m pairs
        for t in range(m // 2 + 1):
            # x_n^{2t} delta^(m) = m!/(m-2t)! delta^(m-2t)
            # binomial(r, t) = (r - t + 1)_t / t!
            c = pochhammer((r - (t - 1)).as_scalar(), t) * ParamScalar(
                factorial(m) // factorial(m - 2 * t), factorial(t))
            newxp = xp + (r + r - 2 * t)
            _put(terms, ("B", m - 2 * t, newxp, _AFF0, mono),
                 {b: x * c for b, x in val.items()})

    # pass 2: pull |x'|^2-divisible prefactors into exponents.  A group is
    # one term shape (key without its x' monomial); each sweep rewrites all
    # groups from the same snapshot into a fresh dict, so what one group
    # adds to another is summed, not overwritten
    changed = True
    while changed:
        changed = False
        groups = {}
        out = {}
        for key, val in terms.items():
            if key[0] == "P":
                out[key] = val
            else:
                groups.setdefault(key[:4], {})[key[4]] = val
        for gk, poly in groups.items():
            q = {}
            if any(sum(mono) >= 2 for mono in poly):
                q, poly = _divide_r2(poly, nx)
                changed = changed or bool(q)
            for mono, val in poly.items():
                _put(out, gk + (mono,), val)
            kind, a, b, r = gk
            for mono, val in q.items():
                if kind == "S":
                    # |x'|^2 = (|x'|^2 + x_n^2) - x_n^2
                    _put(out, ("S", a, b, r + 1, mono), val)
                    _put(out, ("S", a, b + 2, r, mono), val, -1)
                else:
                    _put(out, ("B", a, b + 2, _AFF0, mono), val)
        terms = out
    return terms


# -- multiplication operators --------------------------------------------------

def _shift_meta(meta, dl, dv):
    sl, sv = meta.get("shift", (0, 0))
    return dict(meta, shift=(sl + dl, sv + dv))


def _x_move(n, key, i):
    """The coordinate of 0-based index i times the term key, as (key, int
    factor), or 0: d^alpha delta loses a derivative (factor -alpha_i), x_n
    takes delta^(m) to -m delta^(m-1), another x_i raises an exponent."""
    if key[0] == "P":
        a = key[1][i]
        return a and (("P", _bump(key[1], i, -1)), -a)
    kind, a, b, r, mono = key
    if i < n - 1:
        return key[:4] + (_bump(mono, i, 1),), 1
    if kind == "S":
        return ("S", 1 - a, b + 1, r, mono), 1
    return a and (("B", a - 1, b, r, mono), -a)


def mult_xn(K):
    """Multiply by the last coordinate; delta layers lose one derivative.
    The x' monomials and radial exponents stay as they are, so a normal
    form maps to a normal form."""
    out = {}
    for key, val in K.terms.items():
        move = _x_move(K.n, key, K.n - 1)
        if move:
            _put(out, move[0], val, move[1])
    return K.copy_with(out, normalized=True, meta=_shift_meta(K.meta, 1, 0))


def mult_zeta(K):
    """Left-multiply by zeta(x) = sum_i x_i e_i; scalar kernels become End-valued.

    One pass: each x_i moves a term (_x_move) and e_i remaps its blades.  Only
    the terms whose x_1 exponent rises to 2 leave the normal form, and only
    they are normalized (normalization is linear and commutes with the remap)."""
    n = K.n
    if K.row_n != n:
        raise BadParams("kernel is not left-multipliable by zeta_n(x)")
    dim = spin_dim(n)
    out, high = {}, {}
    for key, val in K.terms.items():
        for i in range(n):
            move = _x_move(n, key, i)
            if move:
                k, c = move
                _put(high if i == 0 and k[0] != "P" and k[4][0] == 2 else out, k,
                     _zeta_lmul(n, i + 1, val), c)
    for k, v in _normalize(n, high).items():
        _put(out, k, v)
    return KernelExpr(n, (dim, dim), out,
                      _shift_meta(K.meta, _H, -_H), normalized=True)


def mult_norm2(K):
    """Multiply by |x|^2 = |x'|^2 + x_n^2; normal forms map to normal forms,
    as in mult_xn."""
    out = {}
    for key, val in K.terms.items():
        kind = key[0]
        if kind == "S":
            _, par, xn, r, mono = key
            _put(out, ("S", par, xn, r + 1, mono), val)
        elif kind == "B":
            _, m, xp, r, mono = key
            _put(out, ("B", m, xp + 2, r, mono), val)
            if m >= 2:
                _put(out, ("B", m - 2, xp, r, mono), val, m * (m - 1))
        else:
            alpha = key[1]
            for i, ai in enumerate(alpha):
                if ai >= 2:
                    _put(out, ("P", _bump(alpha, i, -2)), val, ai * (ai - 1))
    return K.copy_with(out, normalized=True)


def project(K):
    """Compose with the spin projection S_n -> S_{n-1} on the left."""
    if not K.shape or K.row_n != K.n:
        raise BadParams("project needs a spinor-valued kernel with rows in S_n")
    P = spin_projection_P(K.n).entries
    out = {}
    for key, val in K.terms.items():
        _put(out, key, _matmul(P, blade_matrix(K.n, val)))
    return KernelExpr(K.n, (spin_dim(K.n - 1), K.shape[1]), out, K.meta,
                      row_n=K.n - 1)


def as_matrix(K):
    """Tensor a scalar kernel with the identity on S_n: its values are blade
    0 already, so only the shape changes."""
    if K.shape:
        raise BadParams("kernel is already matrix-valued")
    return KernelExpr(K.n, (spin_dim(K.n),) * 2, K.terms, K.meta, normalized=True)


def support(K):
    """'full', 'hyperplane', 'origin' or 'empty' from the normal form."""
    kinds = {key[0] for key in K.terms}
    if "S" in kinds:
        return "full"
    if "B" in kinds:
        return "hyperplane"
    if "P" in kinds:
        return "origin"
    return "empty"


# -- the explicit kernel families ----------------------------------------------

def _laplacian_monomials(n, j):
    """(multi-index, multinomial weight) pairs for (sum_{a<n} d_a^2)^j, in
    lexicographic order: each choice of n - 2 bars among j + n - 2 places
    splits j into the n - 1 halved exponents, with no recursion."""
    out = []
    for bars in combinations(range(j + n - 2), n - 2):
        parts = [y - x - 1 for x, y in zip((-1,) + bars, bars + (j + n - 2,))]
        w = factorial(j)
        for t in parts:
            w //= factorial(t)
        out.append((tuple(2 * t for t in parts) + (0,), w))
    return out


def _add_point(terms, n, coeff, j, dn, dprime=None, gen=None):
    """Add coeff * Delta'^j d_n^dn (d_dprime) delta to terms, tensored with
    zeta(e_gen) when gen is given."""
    for alpha, w in _laplacian_monomials(n, j):
        alpha = _bump(alpha, n - 1, dn)
        if dprime is not None:
            alpha = _bump(alpha, dprime - 1, 1)
        c = {0: _ps_times_int(coeff, w)}
        _put(terms, ("P", alpha), c if gen is None else _zeta_lmul(n, gen, c))


def _zeta_layer(n, m, r, c):
    """Raw terms of zeta(x') c r^. delta^(m) - m e_n c r^. delta^(m-1), the
    common shape of the spinor B families and residue forms."""
    mono0 = (0,) * (n - 1)
    terms = {("B", m, _AFF0, r, _bump(mono0, a - 1, 1)): _zeta_lmul(n, a, {0: c})
             for a in range(1, n)}
    if m >= 1:
        terms[("B", m - 1, _AFF0, r, mono0)] = _zeta_lmul(n, n, {0: _ps_times_int(c, -m)})
    return terms


def _need_index(kind, name, v):
    if v is None or v < 0:
        raise BadParams("%s families need %s >= 0" % (kind, name))


def _smooth_family(tag, n, **_):
    """A+, A- (raw smooth kernels) and At+, At- (normalized)."""
    plus = tag.endswith("+")
    c = PS_ONE
    if tag.startswith("At"):
        c4 = _Q1 if plus else _Q3
        c = (ParamScalar.gamma_factor(_H, _H, c4, -1)
             * ParamScalar.gamma_factor(_H, -_H, c4, -1))
    # sgn(x_n)^par |x_n|^{lam+nu-1/2} (|x'|^2 + x_n^2)^{-nu-(n-1)/2}
    key = ("S", 0 if plus else 1, AffineExp(1, 1, -_H),
           AffineExp(0, -1, -rat(n - 1) / 2), (0,) * (n - 1))
    return KernelExpr(n, None, {key: c}, {"family": tag})


def _b_family(tag, n, k=None, form="expanded", **_):
    _need_index("B", "k", k)
    plus = tag == "Bt+"
    tok = ParamScalar.gamma_factor(_H, -_H, _Q1 if plus else _Q3, -1)
    m = 2 * k if plus else 2 * k + 1
    meta = {"family": tag, "k": k,
            "constraint": ("sum", -_H - 2 * k if plus else -3 * _H - 2 * k)}
    mono0 = (0,) * (n - 1)
    rho_h = rat(n - 1) / 2
    if form == "radial":
        return KernelExpr(n, None, {("B", m, _AFF0, AffineExp(0, -1, -rho_h), mono0): tok},
                          meta)
    nu_rho = AffineExp(0, 1, rho_h).as_scalar()
    terms = {("B", m - 2 * t, AffineExp(0, -2, 1 - n - 2 * t), _AFF0, mono0):
             tok * pochhammer(nu_rho, t) * ParamScalar(
                 (-1) ** t * factorial(m), factorial(t) * factorial(m - 2 * t))
             for t in range(k + 1)}
    return KernelExpr(n, None, terms, meta)


def _c_family(tag, n, l=None, **_):
    _need_index("C", "l", l)
    plus = tag == "Ct+"
    nu_l = AffineExp(0, 1, -l).as_scalar()
    terms = {}
    for j2 in range(l + 1):
        p = 2 * l - 2 * j2
        dn = p if plus else p + 1
        c = pochhammer(nu_l, l - j2) * ParamScalar(2 ** p, factorial(j2) * factorial(dn))
        _add_point(terms, n, c, j2, dn)
    meta = {"family": tag, "l": l,
            "constraint": ("diff", -_H - 2 * l if plus else -3 * _H - 2 * l)}
    return KernelExpr(n, None, terms, meta)


# delta order m = n + i + j + offset and sign (-1)^(m//2 + flip) of the
# residue forms, from 2k = n+i+j-1 (Att+, sAtt+), n+i+j-2 (Att-), n+i+j (sAtt-)
_RESIDUE = {"Att+": (-1, 0), "Att-": (-1, 1), "sAtt+": (0, 1), "sAtt-": (0, 0)}


def _residue_family(tag, n, i=None, j=None, **_):
    """Att+, Att- and their spinor analogues sAtt+, sAtt- at odd n."""
    if n % 2 == 0 or i is None or j is None:
        raise BadParams("residue forms need odd n and indices i, j")
    plus = tag.endswith("+")
    if i < j or (i - j) % 2 != (0 if plus else 1):
        raise BadParams(tag + (" needs i - j in 2N" if plus else " needs i - j odd"))
    offset, flip = _RESIDUE[tag]
    m = n + i + j + offset
    c = ParamScalar((-1) ** (m // 2 + flip) * factorial(m // 2), factorial(m))
    r = AffineExp.const(j)
    meta = {"family": tag, "i": i, "j": j}
    if tag[0] == "s":
        return KernelExpr(n, (spin_dim(n),) * 2, _zeta_layer(n, m, r, c), meta)
    return KernelExpr(n, None, {("B", m, _AFF0, r, (0,) * (n - 1)): c}, meta)


def _spinor_a_family(tag, n, **_):
    if tag == "sAt+":
        out = mult_zeta(make_family("At-", n).shift_params(-_H, _H))
    else:
        base = make_family("At+", n).shift_params(-_H, _H)
        out = mult_zeta(base).scale(AffineExp(_H, -_H, -_Q1).as_scalar().inverse())
    out.meta.clear()
    out.meta.update({"family": tag})
    return out


def _spinor_b_family(tag, n, k=None, **_):
    _need_index("B", "k", k)
    plus = tag == "sBt+"
    tok = ParamScalar.gamma_factor(_H, -_H, _Q1 if plus else _Q3, -1)
    m = 2 * k + 1 if plus else 2 * k
    meta = {"family": tag, "k": k,
            "constraint": ("sum", -3 * _H - 2 * k if plus else -_H - 2 * k)}
    # zeta(x') r^{-nu-n/2} delta^(m) - m e_n r^{-nu-n/2} delta^(m-1)
    return KernelExpr(n, (spin_dim(n),) * 2,
                      _zeta_layer(n, m, AffineExp(0, -1, -rat(n) / 2), tok), meta)


def _spinor_c_family(tag, n, l=None, **_):
    _need_index("C", "l", l)
    plus = tag == "sCt+"
    nu_start = AffineExp(0, 1, _H - l if plus else -l - _H).as_scalar()
    q = 0 if plus else 1
    terms = {}
    for j2 in range(l + 1):
        # sum_a Delta^j d_n^p D'_a delta (x) zeta(e_a), p = 2l-2j-1 (+1 for sCt-)
        p = 2 * l - 2 * j2 - 1 + q
        if p >= 0:
            c = pochhammer(nu_start, l - j2 - 1 + q) * ParamScalar(
                2 ** p, factorial(j2) * factorial(p))
            for a in range(1, n):
                _add_point(terms, n, c, j2, p, dprime=a, gen=a)
        # Delta^j d_n^p D_n delta = e_n Delta^j d_n^{p+1} delta
        c = pochhammer(nu_start, l - j2 + q) * ParamScalar(
            2 ** (p + 1), factorial(j2) * factorial(p + 1))
        _add_point(terms, n, c, j2, p + 1, gen=n)
    meta = {"family": tag, "l": l,
            "constraint": ("diff", -_H - 2 * l if plus else -3 * _H - 2 * l)}
    return KernelExpr(n, (spin_dim(n),) * 2, terms, meta)


_FAMILIES = {tag + sign: build
             for tag, build in (("A", _smooth_family), ("At", _smooth_family),
                                ("Bt", _b_family), ("Ct", _c_family),
                                ("Att", _residue_family), ("sAt", _spinor_a_family),
                                ("sBt", _spinor_b_family), ("sCt", _spinor_c_family),
                                ("sAtt", _residue_family))
             for sign in "+-"}


def _check_dim(n):
    if n < 2:
        raise BadParams("kernels on R^n need n >= 2, got n=%r" % (n,))


def make_family(tag, n, k=None, l=None, i=None, j=None, form="expanded"):
    """Construct one of the explicit kernel families as a KernelExpr.

    Scalar tags: 'A+', 'A-' (raw smooth kernels), 'At+', 'At-' (normalized),
    'Bt+', 'Bt-' (delta layers, index k), 'Ct+', 'Ct-' (point kernels, index
    l), 'Att+', 'Att-' (residue forms at lattice points, n odd, indices i, j).
    Spinor tags: prefix 's' for the matrix-valued analogues.  form 'radial'
    selects the undifferentiated radial display where one exists.
    """
    build = _FAMILIES.get(tag)
    if build is None:
        raise BadParams("unknown family tag %r" % (tag,))
    _check_dim(n)
    return build(tag, n, k=k, l=l, i=i, j=j, form=form)


# -- identity suite -------------------------------------------------------------

def _on_line(K, constraint):
    """Restrict symbolic (lam, nu) to the affine constraint line."""
    kind, const = constraint
    if kind == "sum":      # lam + nu = const
        return K.subs_lam(-1, const)
    if kind == "diff":     # lam - nu = const
        return K.subs_lam(1, const)
    raise BadParams("unknown constraint %r" % (kind,))


# tag -> (index, line, lhs, rhs).  The index names the parameters the
# identity is stated at: 'k' or 'l' (>= 0), 'ij_odd' or 'ij_even' (n odd,
# i - j of that parity), 'kj' (k and the sign of j, which picks Bt+ or Bt-),
# or None.  lhs and rhs build the two sides from (n, *index).  A line
# (kind, c) restricts both sides to lam + nu (kind 'sum') or lam - nu
# (kind 'diff') = c - 2 * index.
_IDENTITIES = {
    # x_n Bt+(k+1)|_{lam-1} = 2(k+1)(nu+k+1) Bt-(k) on lam+nu = -3/2-2k
    "b_translation": (
        "k", ("sum", -3 * _H),
        lambda n, k: mult_xn(make_family("Bt+", n, k=k + 1).shift_params(-1, 0)),
        lambda n, k: make_family("Bt-", n, k=k).scale(
            AffineExp(0, 2 * (k + 1), 2 * (k + 1) * (k + 1)).as_scalar())),
    # x_n Ct+(l+1)|_{lam-1} = -4(nu-l-1) Ct-(l) on lam-nu = -3/2-2l
    "c_translation": (
        "l", ("diff", -3 * _H),
        lambda n, l: mult_xn(make_family("Ct+", n, l=l + 1).shift_params(-1, 0)),
        lambda n, l: make_family("Ct-", n, l=l).scale(
            AffineExp(0, -4, 4 * (l + 1)).as_scalar())),
    # x_n Ct+(l) = -2(lam+nu+1/2) Ct-(l-1)|_{lam+1} on lam-nu = -1/2-2l
    "juhl_up": (
        "l", ("diff", -_H),
        lambda n, l: mult_xn(make_family("Ct+", n, l=l)),
        lambda n, l: make_family("Ct-", n, l=l - 1).shift_params(1, 0).scale(
            AffineExp(-2, -2, -1).as_scalar()) if l else KernelExpr(n)),
    # x_n Ct-(l) = -Ct+(l)|_{lam+1} on lam-nu = -3/2-2l
    "juhl_down": (
        "l", ("diff", -3 * _H),
        lambda n, l: mult_xn(make_family("Ct-", n, l=l)),
        lambda n, l: make_family("Ct+", n, l=l).shift_params(1, 0).scale(-1)),
    # the radial display of Bt+-(k) equals its expanded form
    "b_double_display": (
        "kj", None,
        lambda n, k, sign: make_family("Bt" + sign, n, k=k, form="radial"),
        lambda n, k, sign: make_family("Bt" + sign, n, k=k, form="expanded")),
    # zeta(x) Bt+(k)|_{lam-1/2, nu+1/2} = (lam-nu-1/2)/2 sBt-(k), lam+nu = -1/2-2k
    "spinor_b_minus": (
        "k", ("sum", -_H),
        lambda n, k: mult_zeta(make_family("Bt+", n, k=k).shift_params(-_H, _H)),
        lambda n, k: make_family("sBt-", n, k=k).scale(
            AffineExp(_H, -_H, -_H / 2).as_scalar())),
    # zeta(x) Bt-(k)|_{lam-1/2, nu+1/2} = sBt+(k), lam+nu = -3/2-2k
    "spinor_b_plus": (
        "k", ("sum", -3 * _H),
        lambda n, k: mult_zeta(make_family("Bt-", n, k=k).shift_params(-_H, _H)),
        lambda n, k: make_family("sBt+", n, k=k)),
    # zeta(x) Ct+(l+1)|_{lam-1/2, nu+1/2} = -2 sCt-(l), lam-nu = -3/2-2l
    "spinor_c_minus": (
        "l", ("diff", -3 * _H),
        lambda n, l: mult_zeta(make_family("Ct+", n, l=l + 1).shift_params(-_H, _H)),
        lambda n, l: make_family("sCt-", n, l=l).scale(-2)),
    # zeta(x) Ct-(l)|_{lam-1/2, nu+1/2} = -sCt+(l), lam-nu = -1/2-2l
    "spinor_c_plus": (
        "l", ("diff", -_H),
        lambda n, l: mult_zeta(make_family("Ct-", n, l=l).shift_params(-_H, _H)),
        lambda n, l: make_family("sCt+", n, l=l).scale(-1)),
    # zeta(x) sAt- = -At+|_{lam+1/2, nu-1/2} (x) id, generic parameters
    "spinor_a_closure_minus": (
        None, None,
        lambda n: mult_zeta(make_family("sAt-", n)),
        lambda n: as_matrix(make_family("At+", n).shift_params(_H, -_H)).scale(-1)),
    # zeta(x) sAt+ = -(lam-nu+1/2)/2 At-|_{lam+1/2, nu-1/2} (x) id
    "spinor_a_closure_plus": (
        None, None,
        lambda n: mult_zeta(make_family("sAt+", n)),
        lambda n: as_matrix(make_family("At-", n).shift_params(_H, -_H)).scale(
            AffineExp(-_H, _H, -_H / 2).as_scalar())),
    # x_n Att+(i+1, j) = -(k+1) Att-(i, j), 2k = n+i+j-2  (n odd, i-j odd)
    "residue_step": (
        "ij_odd", None,
        lambda n, i, j: mult_xn(make_family("Att+", n, i=i + 1, j=j)),
        lambda n, i, j: make_family("Att-", n, i=i, j=j).scale(-((n + i + j - 2) // 2 + 1))),
    # zeta(x) Att+(i+1, j) = sAtt-(i, j)  (n odd, i-j odd)
    "residue_step_spinor_minus": (
        "ij_odd", None,
        lambda n, i, j: mult_zeta(make_family("Att+", n, i=i + 1, j=j)),
        lambda n, i, j: make_family("sAtt-", n, i=i, j=j)),
    # zeta(x) Att-(i+1, j) = sAtt+(i, j)  (n odd, i-j even)
    "residue_step_spinor_plus": (
        "ij_even", None,
        lambda n, i, j: mult_zeta(make_family("Att-", n, i=i + 1, j=j)),
        lambda n, i, j: make_family("sAtt+", n, i=i, j=j)),
}

# classifications of the kernels of x_n and zeta(x) on the explicit families
_VANISHING = ("xn_kernel", "zeta_kernel")

IDENTITY_TAGS = tuple(_IDENTITIES) + _VANISHING


def _identity_index(name, n, k, l, i, j):
    """The index tuple an identity is stated at; BadParams outside its domain."""
    if name is None:
        return ()
    if name[0] == "i":
        if n % 2 == 0 or i is None or j is None:
            raise BadParams("needs odd n and i, j")
        return i, j
    x = k if name[0] == "k" else l
    if x is None or x < 0:
        raise BadParams("needs %s >= 0" % name[0])
    if name == "kj":
        return x, "+" if j is None or j >= 0 else "-"
    return (x,)


def _identity_sides(tag, n, k=None, l=None, i=None, j=None):
    """Both sides of a catalogued identity, restricted to its constraint line."""
    entry = _IDENTITIES.get(tag)
    if entry is None:
        raise UnknownIdentity(tag)
    _check_dim(n)
    name, line, lhs, rhs = entry
    index = _identity_index(name, n, k, l, i, j)
    lhs = lhs(n, *index)
    rhs = rhs(n, *index)
    if line is not None:
        line = (line[0], line[1] - 2 * index[0])
        lhs = _on_line(lhs, line)
        rhs = _on_line(rhs, line)
    return lhs, rhs


def check_identity(tag, n, k=None, l=None, i=None, j=None):
    """Verify one catalogued kernel identity with symbolic parameters.

    Both sides are built as KernelExpr, restricted to the identity's
    constraint line, and compared in normal form.  The report carries the
    difference on failure.
    """
    if tag in _VANISHING:
        _check_dim(n)
        if (k is not None and k < 0) or (l is not None and l < 0):
            raise BadParams("%s needs k, l >= 0" % tag)
        return _vanishing_report(tag, n, k, l)
    lhs, rhs = _identity_sides(tag, n, k, l, i, j)
    # equal normal forms are equal kernels; a failing report gets the difference
    report = {"identity": tag, "n": n,
              "params": {p: q for p, q in (("k", k), ("l", l), ("i", i), ("j", j))
                         if q is not None},
              "ok": lhs == rhs}
    if not report["ok"]:
        report["diff"] = to_json_dict(lhs - rhs)
    return report


def identity_cases(n, kmax, lmax):
    """(tag, index keywords) of every catalogued check up to kmax and lmax.

    In report order: the k identities for each k (an identity indexed by k
    and the sign of j at j >= 0, then at j = -1), the l identities for each
    l, those without index, the vanishing reports, then at odd n the residue
    steps at each 0 <= j < i <= kmax whose i - j has the step's parity.
    """
    def named(first):
        # the tags whose index name starts with first ("" for no index)
        return [tag for tag, (name, *_) in _IDENTITIES.items()
                if (name or "")[:1] == first]
    cases = [(tag, kw) for k in range(kmax + 1) for tag in named("k")
             for kw in ([{"k": k}, {"k": k, "j": -1}]
                        if _IDENTITIES[tag][0] == "kj" else [{"k": k}])]
    cases += [(tag, {"l": l}) for l in range(lmax + 1) for tag in named("l")]
    cases += [(tag, {}) for tag in named("")]
    cases += [(tag, {"k": kmax, "l": lmax}) for tag in _VANISHING]
    if n % 2:
        cases += [(tag, {"i": i, "j": j})
                  for i in range(1, kmax + 1) for j in range(i)
                  for tag in named("i")
                  if _IDENTITIES[tag][0] == ("ij_odd" if (i - j) % 2 else "ij_even")]
    return cases


def _vanishing_report(tag, n, kmax, lmax):
    """Kernel-of-multiplication classification on the explicit families."""
    if tag == "xn_kernel":
        op, expect_zero = mult_xn, {("Bt+", 0), ("Ct+", 0)}
    else:
        op, expect_zero = mult_zeta, {("Ct+", 0)}
    kmax = 2 if kmax is None else kmax
    lmax = 2 if lmax is None else lmax
    ok = True
    detail = {}
    for fam, idx_name, top in (("Bt+", "k", kmax), ("Bt-", "k", kmax),
                               ("Ct+", "l", lmax), ("Ct-", "l", lmax)):
        for idx in range(top + 1):
            K = make_family(fam, n, **{idx_name: idx})
            is_zero = op(_on_line(K, K.meta["constraint"])).is_zero()
            want_zero = (fam, idx) in expect_zero
            detail["%s[%d]" % (fam, idx)] = {"zero": is_zero, "expected_zero": want_zero}
            ok = ok and (is_zero == want_zero)
    return {"identity": tag, "n": n, "ok": ok, "detail": detail}


# -- symmetry and homogeneity checks --------------------------------------------

def _term_degree(n, key):
    """Total homogeneity degree of one term as an AffineExp."""
    if key[0] == "S":
        _, par, xn, r, mono = key
        return xn + (r + r) + sum(mono)
    if key[0] == "B":
        _, m, xp, r, mono = key
        return xp + (sum(mono) - 1 - m)
    return AffineExp.const(-n - sum(key[1]))


def _term_parity(key):
    if key[0] == "P":
        return sum(key[1]) % 2
    return (key[1] + sum(key[4])) % 2


def _rotation_apply(K, a, b):
    """Infinitesimal rotation in the (x_a, x_b) plane, a < b <= n-1.

    Returns the equivariance defect: vector-field part plus the spin twists;
    zero exactly when the kernel is invariant.
    """
    out = {}
    # -V(K) with V = x_a d_b - x_b d_a acting on the x-dependence
    for key, val in K.terms.items():
        if key[0] != "P":
            mono = key[4]
            for (src, dst) in ((b, a), (a, b)):
                e = mono[src - 1]
                if e:
                    nm = _bump(_bump(mono, src - 1, -1), dst - 1, 1)
                    sgn = 1 if src == b else -1
                    _put(out, key[:4] + (nm,), val, -sgn * e)
        else:
            alpha = key[1]
            # V(d^alpha delta) = -alpha_a d^{alpha+e_b-e_a} + alpha_b d^{alpha+e_a-e_b}
            for (src, dst, sgn) in ((a, b, 1), (b, a, -1)):
                e = alpha[src - 1]
                if e:
                    na = _bump(_bump(alpha, src - 1, -1), dst - 1, 1)
                    _put(out, ("P", na), val, sgn * e)
    defect = K.copy_with(out)
    if K.shape:
        # spin twists: X_row o K - K o X_col with X = zeta(e_a e_b)/2, on
        # dense matrices; copy_with takes them back to blades for rows in S_n
        Xrow, Xcol = (zeta_matrix(m, "+", a).compose(zeta_matrix(m, "+", b))
                      .scale(GaussianRational("1/2")).entries
                      for m in (K.row_n, K.n))
        tw = {}
        for key, val in K.terms.items():
            if K.row_n == K.n:
                val = blade_matrix(K.n, val)
            _put(tw, key, _matmul(Xrow, val))
            _put(tw, key, _matmul(val, Xcol), -1)
        defect = defect + K.copy_with(tw)
    return defect


def symmetry_checks(K, parity):
    """Homogeneity, x -> -x parity, and infinitesimal rotation invariance.

    parity is 0 or 1; raises SymmetryFailure naming the failing term or
    generator, and returns a report with the common homogeneity degree.
    """
    degree = None
    for key in K.terms:
        d = _term_degree(K.n, key)
        if degree is None:
            degree = d
        elif d != degree:
            raise SymmetryFailure("inhomogeneous terms: %r vs %r at %r"
                                  % (degree, d, key))
        if _term_parity(key) != parity % 2:
            raise SymmetryFailure("term %r has parity %d, expected %d"
                                  % (key, _term_parity(key), parity % 2))
    for a in range(1, K.n):
        for b in range(a + 1, K.n):
            defect = _rotation_apply(K, a, b)
            if not defect.is_zero():
                raise SymmetryFailure("rotation (%d,%d) defect: %r"
                                      % (a, b, to_json_dict(defect)))
    return {"homogeneity": None if degree is None else repr(degree),
            "parity": parity % 2, "rotations": "ok"}


# -- serialization ---------------------------------------------------------------

def _scalar_json(s):
    def poly(p):
        return {"%d,%d" % mono: [str(c.re), str(c.im)]
                for mono, c in sorted(p.terms.items())}
    return {"num": poly(s.num), "den": poly(s.den),
            "gammas": [_aff_json(arg) + [e] for arg, e in s.gammas]}


def _value_json(K, v):
    if not K.shape:
        return {"scalar": _scalar_json(v[0])}
    if K.row_n == K.n:
        v = blade_matrix(K.n, v)
    return {"matrix": {"%d,%d" % k: _scalar_json(x) for k, x in sorted(v.items())}}


def _aff_json(a):
    return [str(a.a), str(a.b), str(a.c)]


def _meta_str(v):
    if isinstance(v, tuple):
        return "(" + ", ".join(_meta_str(x) for x in v) + ")"
    return str(v)


def to_json_dict(K):
    """Documented JSON form of a kernel expression (deterministic ordering)."""
    terms = []
    for key in sorted(K.terms, key=_term_sort_key):
        val = K.terms[key]
        if key[0] == "S":
            t = {"variant": "smooth", "parity": key[1], "xn_exp": _aff_json(key[2]),
                 "r_exp": _aff_json(key[3]), "prefactor": list(key[4])}
        elif key[0] == "B":
            t = {"variant": "boundary", "delta_order": key[1],
                 "xp_exp": _aff_json(key[2]), "prefactor": list(key[4])}
        else:
            t = {"variant": "point", "multi": list(key[1])}
        t["coeff"] = _value_json(K, val)
        terms.append(t)
    return {"n": K.n, "shape": list(K.shape) if K.shape else None,
            "terms": terms, "meta": {k: _meta_str(v) for k, v in sorted(K.meta.items())}}


def _term_sort_key(key):
    if key[0] == "P":
        return (2, key[1])
    return (0 if key[0] == "S" else 1, key[1], key[2].sort_key(), key[3].sort_key(),
            key[4])
