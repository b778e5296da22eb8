"""Symbolic calculus of equivariant distribution kernels on R^n.

A kernel expression is a normalized sum of three kinds of terms:

  Smooth   c(lam,nu) * x'^mono * sgn(x_n)^par |x_n|^xn (|x'|^2+x_n^2)^r
  Boundary c(lam,nu) * x'^mono * |x'|^xp delta^(m)(x_n)
  Point    c(lam,nu) * d^alpha delta(x)

with matrix-valued coefficients for spinor kernels.  Exponents are affine in
(lam, nu); coefficients live in the exact rational-function field with formal
Gamma tokens.  Normal forms expand radial factors against delta layers by the
finite jet pairing, absorb x_n powers into the sign/exponent data, and pull
|x'|^2-divisible prefactors into the radial exponents, so equality of kernels
is decidable by structural comparison.
"""

from .paramfield import (GaussianRational, ParamScalar, ParamPoly, rat, PS_ONE,
                         _ps_times_i_power)
from .cliffspin import zeta_matrix, spin_projection_P, spin_dim, _zeta_table


class BadParams(ValueError):
    pass


class UnknownIdentity(KeyError):
    pass


class SymmetryFailure(AssertionError):
    pass


class AffineExp:
    """a*lam + b*nu + c with exact rational coefficients."""

    __slots__ = ("a", "b", "c", "_hash")

    def __init__(self, a=0, b=0, c=0):
        a, b, c = rat(a), rat(b), rat(c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        # exponents are dict keys: hash the three Fractions once, not per lookup
        object.__setattr__(self, "_hash", hash((a, b, c)))

    def __setattr__(self, *a):
        raise AttributeError("AffineExp is immutable")

    @staticmethod
    def const(c):
        return AffineExp(0, 0, c)

    def __add__(self, other):
        if not isinstance(other, AffineExp):
            other = AffineExp.const(other)
        return AffineExp(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        if not isinstance(other, AffineExp):
            other = AffineExp.const(other)
        return AffineExp(self.a - other.a, self.b - other.b, self.c - other.c)

    def __eq__(self, other):
        return (isinstance(other, AffineExp)
                and (self.a, self.b, self.c) == (other.a, other.b, other.c))

    def __hash__(self):
        return self._hash

    def is_const(self):
        return self.a == 0 and self.b == 0

    def subs_lam(self, e, f):
        return AffineExp(0, self.b + self.a * rat(e), self.c + self.a * rat(f))

    def shift(self, dl, dv):
        return AffineExp(self.a, self.b, self.c + self.a * rat(dl) + self.b * rat(dv))

    def as_scalar(self):
        return ParamScalar(ParamPoly.affine(self.a, self.b, self.c))

    def sort_key(self):
        return (str(self.a), str(self.b), str(self.c))

    def __repr__(self):
        return "(%s*lam+%s*nu+%s)" % (self.a, self.b, self.c)


_AFF0 = AffineExp()


def _fact(k):
    f = 1
    for t in range(2, k + 1):
        f *= t
    return f


def _binom_affine(b, t):
    """binomial(b, t) for an affine exponent b: b(b-1)...(b-t+1)/t!."""
    out = PS_ONE
    for s in range(t):
        out = out * ((b - s).as_scalar())
    return out * ParamScalar.from_fraction(1, _fact(t))


def _bump(t, pos, d):
    """The tuple t with d added at position pos."""
    return t[:pos] + (t[pos] + d,) + t[pos + 1:]


# -- matrix-or-scalar coefficient helpers -------------------------------------

def _v_is_matrix(v):
    return isinstance(v, dict)


def _v_add(a, b):
    if a is None:
        return b
    if _v_is_matrix(a):
        out = dict(a)
        for k, x in b.items():
            s = out.get(k)
            s = x if s is None else s + x
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out
    return a + b


def _v_scale(v, c):
    if _v_is_matrix(v):
        return {k: x * c for k, x in v.items()}
    return v * c


def _v_iszero(v):
    if _v_is_matrix(v):
        return all(x.is_zero() for x in v.values())
    return v.is_zero()


def _put(terms, key, val):
    """Add val to terms[key]; a key whose sum is zero is dropped."""
    if _v_iszero(val):
        return
    s = _v_add(terms.get(key), val)
    if _v_iszero(s):
        terms.pop(key, None)
    else:
        terms[key] = s


def _matmul(a, b):
    """Product of sparse matrices {(row, col): entry}; zero entries dropped."""
    rows_b = {}
    for (r, c), y in b.items():
        rows_b.setdefault(r, []).append((c, y))
    out = {}
    for (r, c), x in a.items():
        x = ParamScalar.coerce(x)
        for cc, y in rows_b.get(c, ()):
            term = x * y
            acc = out.get((r, cc))
            out[(r, cc)] = term if acc is None else acc + term
    return {k: x for k, x in out.items() if not x.is_zero()}


def _zeta_lmul(n, gen, v):
    """zeta_n(e_gen) v, with a scalar v read as v * id.

    zeta_n(e_gen) is a signed permutation of the mask basis, so the entry
    (r, c) of v moves to (image of r, c) times a power of i."""
    table = _zeta_table(n, "+", gen)
    if not _v_is_matrix(v):
        return {(image, r): _ps_times_i_power(k, v)
                for r, (image, k) in enumerate(table)}
    out = {}
    for (r, c), x in v.items():
        # a substitution can leave zero entries; the product drops them
        if not x.is_zero():
            image, k = table[r]
            out[(image, c)] = _ps_times_i_power(k, x)
    return out


# -- the kernel expression ----------------------------------------------------

class KernelExpr:
    """Normalized formal sum of Smooth/Boundary/Point kernel terms."""

    __slots__ = ("n", "shape", "terms", "meta")

    def __init__(self, n, shape=None, terms=None, meta=None, normalized=False):
        self.n = n
        self.shape = shape
        self.meta = dict(meta or {})
        t = terms or {}
        if not normalized:
            t = _normalize(n, t)
        self.terms = t

    def is_zero(self):
        return not self.terms

    def copy_with(self, terms, normalized=False, meta=None):
        return KernelExpr(self.n, self.shape, terms,
                          meta if meta is not None else self.meta, normalized)

    def __add__(self, other):
        if (self.n, self.shape) != (other.n, other.shape):
            raise BadParams("incompatible kernel expressions")
        t = dict(self.terms)
        for k, v in other.terms.items():
            _put(t, k, v)
        return self.copy_with(t, normalized=True)

    def __sub__(self, other):
        return self + other.scale(ParamScalar.coerce(-1))

    def scale(self, c):
        c = ParamScalar.coerce(c)
        if c.is_zero():
            return self.copy_with({}, normalized=True)
        return self.copy_with({k: _v_scale(v, c) for k, v in self.terms.items()},
                              normalized=True)

    def _subs(self, method, *args):
        """Apply the affine substitution `method` (a method name shared by
        AffineExp and ParamScalar) to every exponent and coefficient.
        Coefficient values repeat across terms and matrix entries, so each
        distinct one is substituted once."""
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
            _put(out, k, {rc: coeff(x) for rc, x in v.items()}
                 if _v_is_matrix(v) else coeff(v))
        return self.copy_with(out)

    def subs_lam(self, e, f):
        """Substitute lam := e*nu + f everywhere (constraint-line restriction)."""
        return self._subs("subs_lam", e, f)

    def shift_params(self, dl, dv):
        """Substitute (lam, nu) := (lam + dl, nu + dv); builds K_{lam+dl, nu+dv}."""
        return self._subs("shift", dl, dv)

    def __eq__(self, other):
        return (isinstance(other, KernelExpr)
                and (self.n, self.shape) == (other.n, other.shape)
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
            neg = _v_scale(val, ParamScalar.coerce(-1))
            for i in range(1, nx):
                _put(work, _bump(qm, i, 2), neg)
        else:
            _put(rem, mono, val)
    return q, rem


def _normalize(n, raw):
    """Bring raw terms to normal form; see the module docstring."""
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
            c = _binom_affine(r, t) * ParamScalar.coerce(_fact(m) // _fact(m - 2 * t))
            newxp = xp + AffineExp(2 * r.a, 2 * r.b, 2 * (r.c - t))
            _put(terms, ("B", m - 2 * t, newxp, _AFF0, mono), _v_scale(val, c))

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
                    _put(out, ("S", a, b + 2, r, mono),
                         _v_scale(val, ParamScalar.coerce(-1)))
                else:
                    _put(out, ("B", a, b + 2, _AFF0, mono), val)
        terms = out
    return terms


# -- multiplication operators --------------------------------------------------

def _shift_meta(meta, dl, dv):
    sl, sv = meta.get("shift", (0, 0))
    return dict(meta, shift=(sl + dl, sv + dv))


def mult_xn(K):
    """Multiply by the last coordinate; delta layers lose one derivative."""
    out = {}
    for key, val in K.terms.items():
        kind = key[0]
        if kind == "S":
            _, par, xn, r, mono = key
            _put(out, ("S", 1 - par, xn + 1, r, mono), val)
        elif kind == "B":
            _, m, xp, r, mono = key
            if m > 0:
                _put(out, ("B", m - 1, xp, r, mono),
                     _v_scale(val, ParamScalar.coerce(-m)))
        else:
            an = key[1][-1]
            if an > 0:
                _put(out, ("P", _bump(key[1], K.n - 1, -1)),
                     _v_scale(val, ParamScalar.coerce(-an)))
    return KernelExpr(K.n, K.shape, out, _shift_meta(K.meta, 1, 0),
                      normalized=False)


def _mult_xi(K, i):
    """Multiply by the coordinate x_i for i < n (acts on the x'-dependence)."""
    out = {}
    for key, val in K.terms.items():
        if key[0] != "P":
            _put(out, key[:4] + (_bump(key[4], i - 1, 1),), val)
        else:
            ai = key[1][i - 1]
            if ai > 0:
                _put(out, ("P", _bump(key[1], i - 1, -1)),
                     _v_scale(val, ParamScalar.coerce(-ai)))
    return KernelExpr(K.n, K.shape, out, K.meta, normalized=False)


def mult_zeta(K):
    """Left-multiply by zeta(x) = sum_i x_i e_i; scalar kernels become End-valued."""
    n = K.n
    dim = spin_dim(n)
    src = K.shape[1] if K.shape else dim
    if K.shape and K.shape[0] != dim:
        raise BadParams("kernel is not left-multipliable by zeta_n(x)")
    out = {}
    for i in range(1, n + 1):
        xi = mult_xn(K) if i == n else _mult_xi(K, i)
        for key, val in xi.terms.items():
            _put(out, key, _zeta_lmul(n, i, val))
    return KernelExpr(n, (dim, src), out,
                      _shift_meta(K.meta, rat("1/2"), -rat("1/2")),
                      normalized=False)


def mult_norm2(K):
    """Multiply by |x|^2 = |x'|^2 + x_n^2."""
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
                _put(out, ("B", m - 2, xp, r, mono),
                     _v_scale(val, ParamScalar.coerce(m * (m - 1))))
        else:
            alpha = key[1]
            for i in range(K.n):
                ai = alpha[i]
                if ai >= 2:
                    _put(out, ("P", _bump(alpha, i, -2)),
                         _v_scale(val, ParamScalar.coerce(ai * (ai - 1))))
    return KernelExpr(K.n, K.shape, out, K.meta, normalized=False)


def project(K):
    """Compose with the spin projection S_n -> S_{n-1} on the left."""
    if not K.shape:
        raise BadParams("project needs a spinor-valued kernel")
    P = spin_projection_P(K.n)
    out = {}
    for key, val in K.terms.items():
        _put(out, key, _matmul(P.entries, val))
    return KernelExpr(K.n, (spin_dim(K.n - 1), K.shape[1]), out, K.meta,
                      normalized=False)


def as_matrix(K, dim=None):
    """Tensor a scalar kernel with the identity on the spin module."""
    if K.shape:
        raise BadParams("kernel is already matrix-valued")
    dim = spin_dim(K.n) if dim is None else dim
    out = {}
    for key, val in K.terms.items():
        out[key] = {(i, i): val for i in range(dim)}
    return KernelExpr(K.n, (dim, dim), out, K.meta, normalized=True)


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

def _gamma_inv(a, b, c):
    return ParamScalar.gamma_factor(a, b, c, -1)


def _poch_nu(start, k):
    """(nu + start)_k as a ParamScalar for rational start."""
    out = PS_ONE
    for t in range(k):
        out = out * ParamScalar(ParamPoly.affine(0, 1, rat(start) + t))
    return out


def _laplacian_monomials(n, j):
    """(multi-index, multinomial weight) pairs for (sum_{a<n} d_a^2)^j."""
    nx = n - 1
    out = []

    def rec(pos, remaining, alpha, weight):
        if pos == nx - 1:
            a = alpha + [remaining]
            w = weight // _fact(remaining)
            out.append((tuple(a) + (0,), w))
            return
        for t in range(remaining + 1):
            rec(pos + 1, remaining - t, alpha + [t], weight // _fact(t))

    rec(0, j, [], _fact(j))
    return [(tuple(2 * a for a in alpha[:-1]) + (0,), w) for alpha, w in out]


def _add_point(terms, n, coeff, j, dn, dprime=None, gen=None):
    """Add coeff * Delta'^j d_n^dn (d_dprime) delta to terms, tensored with
    zeta(e_gen) when gen is given."""
    for alpha, w in _laplacian_monomials(n, j):
        alpha = _bump(alpha, n - 1, dn)
        if dprime is not None:
            alpha = _bump(alpha, dprime - 1, 1)
        c = coeff * ParamScalar.coerce(w)
        _put(terms, ("P", alpha), c if gen is None else _zeta_lmul(n, gen, c))


def _zeta_layer(n, m, r, c):
    """Raw terms of zeta(x') c r^. delta^(m) - m e_n c r^. delta^(m-1), the
    common shape of the spinor B families and residue forms."""
    mono0 = (0,) * (n - 1)
    terms = {("B", m, _AFF0, r, _bump(mono0, a - 1, 1)): _zeta_lmul(n, a, c)
             for a in range(1, n)}
    if m >= 1:
        terms[("B", m - 1, _AFF0, r, mono0)] = _zeta_lmul(
            n, n, c * ParamScalar.coerce(-m))
    return terms


def _need_index(kind, name, v):
    if v is None or v < 0:
        raise BadParams("%s families need %s >= 0" % (kind, name))


def _smooth_family(tag, n, **_):
    """A+, A- (raw smooth kernels) and At+, At- (normalized)."""
    plus = tag.endswith("+")
    c = PS_ONE
    if tag.startswith("At"):
        c4 = "1/4" if plus else "3/4"
        c = _gamma_inv("1/2", "1/2", c4) * _gamma_inv("1/2", "-1/2", c4)
    # sgn(x_n)^par |x_n|^{lam+nu-1/2} (|x'|^2 + x_n^2)^{-nu-(n-1)/2}
    key = ("S", 0 if plus else 1, AffineExp(1, 1, "-1/2"),
           AffineExp(0, -1, -rat(n - 1) / 2), (0,) * (n - 1))
    return KernelExpr(n, None, {key: c}, {"family": tag})


def _b_family(tag, n, k=None, form="expanded", **_):
    _need_index("B", "k", k)
    plus = tag == "Bt+"
    tok = _gamma_inv("1/2", "-1/2", "1/4" if plus else "3/4")
    m = 2 * k if plus else 2 * k + 1
    meta = {"family": tag, "k": k,
            "constraint": ("sum", -rat("1/2") - 2 * k if plus else -rat("3/2") - 2 * k)}
    mono0 = (0,) * (n - 1)
    rho_h = rat(n - 1) / 2
    if form == "radial":
        return KernelExpr(n, None, {("B", m, _AFF0, AffineExp(0, -1, -rho_h), mono0): tok},
                          meta)
    terms = {("B", m - 2 * t, AffineExp(0, -2, 1 - n - 2 * t), _AFF0, mono0):
             tok * _poch_nu(rho_h, t) * ParamScalar.from_fraction(
                 (-1) ** t * _fact(m), _fact(t) * _fact(m - 2 * t))
             for t in range(k + 1)}
    return KernelExpr(n, None, terms, meta)


def _c_family(tag, n, l=None, **_):
    _need_index("C", "l", l)
    plus = tag == "Ct+"
    terms = {}
    for j2 in range(l + 1):
        p = 2 * l - 2 * j2
        dn = p if plus else p + 1
        c = _poch_nu(-l, l - j2) * ParamScalar.from_fraction(2 ** p, _fact(j2) * _fact(dn))
        _add_point(terms, n, c, j2, dn)
    meta = {"family": tag, "l": l,
            "constraint": ("diff", -rat("1/2") - 2 * l if plus else -rat("3/2") - 2 * l)}
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
    c = ParamScalar.from_fraction((-1) ** (m // 2 + flip) * _fact(m // 2), _fact(m))
    r = AffineExp.const(j)
    meta = {"family": tag, "i": i, "j": j}
    if tag[0] == "s":
        return KernelExpr(n, (spin_dim(n),) * 2, _zeta_layer(n, m, r, c), meta)
    return KernelExpr(n, None, {("B", m, _AFF0, r, (0,) * (n - 1)): c}, meta)


def _spinor_a_family(tag, n, **_):
    half = rat("1/2")
    if tag == "sAt+":
        out = mult_zeta(make_family("At-", n).shift_params(-half, half))
    else:
        base = make_family("At+", n).shift_params(-half, half)
        out = mult_zeta(base).scale(
            ParamScalar(ParamPoly.affine("1/2", "-1/2", "-1/4")).inverse())
    out.meta.clear()
    out.meta.update({"family": tag})
    return out


def _spinor_b_family(tag, n, k=None, **_):
    _need_index("B", "k", k)
    plus = tag == "sBt+"
    tok = _gamma_inv("1/2", "-1/2", "1/4" if plus else "3/4")
    m = 2 * k + 1 if plus else 2 * k
    meta = {"family": tag, "k": k,
            "constraint": ("sum", -rat("3/2") - 2 * k if plus else -rat("1/2") - 2 * k)}
    # zeta(x') r^{-nu-n/2} delta^(m) - m e_n r^{-nu-n/2} delta^(m-1)
    return KernelExpr(n, (spin_dim(n),) * 2,
                      _zeta_layer(n, m, AffineExp(0, -1, -rat(n) / 2), tok), meta)


def _spinor_c_family(tag, n, l=None, **_):
    _need_index("C", "l", l)
    plus = tag == "sCt+"
    start = rat("1/2") - l if plus else -l - rat("1/2")
    q = 0 if plus else 1
    terms = {}
    for j2 in range(l + 1):
        # sum_a Delta^j d_n^p D'_a delta (x) zeta(e_a), p = 2l-2j-1 (+1 for sCt-)
        p = 2 * l - 2 * j2 - 1 + q
        if p >= 0:
            c = _poch_nu(start, l - j2 - 1 + q) * ParamScalar.from_fraction(
                2 ** p, _fact(j2) * _fact(p))
            for a in range(1, n):
                _add_point(terms, n, c, j2, p, dprime=a, gen=a)
        # Delta^j d_n^p D_n delta = e_n Delta^j d_n^{p+1} delta
        c = _poch_nu(start, l - j2 + q) * ParamScalar.from_fraction(
            2 ** (p + 1), _fact(j2) * _fact(p + 1))
        _add_point(terms, n, c, j2, p + 1, gen=n)
    meta = {"family": tag, "l": l,
            "constraint": ("diff", -rat("1/2") - 2 * l if plus else -rat("3/2") - 2 * l)}
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


def _zero_kernel(n):
    return KernelExpr(n, None, {}, {}, normalized=True)


def _aff_scalar(a, b, c):
    return ParamScalar(ParamPoly.affine(a, b, c))


_H = rat("1/2")

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
            _aff_scalar(0, 2 * (k + 1), 2 * (k + 1) * (k + 1)))),
    # x_n Ct+(l+1)|_{lam-1} = -4(nu-l-1) Ct-(l) on lam-nu = -3/2-2l
    "c_translation": (
        "l", ("diff", -3 * _H),
        lambda n, l: mult_xn(make_family("Ct+", n, l=l + 1).shift_params(-1, 0)),
        lambda n, l: make_family("Ct-", n, l=l).scale(_aff_scalar(0, -4, 4 * (l + 1)))),
    # x_n Ct+(l) = -2(lam+nu+1/2) Ct-(l-1)|_{lam+1} on lam-nu = -1/2-2l
    "juhl_up": (
        "l", ("diff", -_H),
        lambda n, l: mult_xn(make_family("Ct+", n, l=l)),
        lambda n, l: make_family("Ct-", n, l=l - 1).shift_params(1, 0).scale(
            _aff_scalar(-2, -2, -1)) if l else _zero_kernel(n)),
    # x_n Ct-(l) = -Ct+(l)|_{lam+1} on lam-nu = -3/2-2l
    "juhl_down": (
        "l", ("diff", -3 * _H),
        lambda n, l: mult_xn(make_family("Ct-", n, l=l)),
        lambda n, l: make_family("Ct+", n, l=l).shift_params(1, 0).scale(
            ParamScalar.coerce(-1))),
    # the radial display of Bt+-(k) equals its expanded form
    "b_double_display": (
        "kj", None,
        lambda n, k, sign: make_family("Bt" + sign, n, k=k, form="radial"),
        lambda n, k, sign: make_family("Bt" + sign, n, k=k, form="expanded")),
    # zeta(x) Bt+(k)|_{lam-1/2, nu+1/2} = (lam-nu-1/2)/2 sBt-(k), lam+nu = -1/2-2k
    "spinor_b_minus": (
        "k", ("sum", -_H),
        lambda n, k: mult_zeta(make_family("Bt+", n, k=k).shift_params(-_H, _H)),
        lambda n, k: make_family("sBt-", n, k=k).scale(_aff_scalar(_H, -_H, -_H / 2))),
    # zeta(x) Bt-(k)|_{lam-1/2, nu+1/2} = sBt+(k), lam+nu = -3/2-2k
    "spinor_b_plus": (
        "k", ("sum", -3 * _H),
        lambda n, k: mult_zeta(make_family("Bt-", n, k=k).shift_params(-_H, _H)),
        lambda n, k: make_family("sBt+", n, k=k)),
    # zeta(x) Ct+(l+1)|_{lam-1/2, nu+1/2} = -2 sCt-(l), lam-nu = -3/2-2l
    "spinor_c_minus": (
        "l", ("diff", -3 * _H),
        lambda n, l: mult_zeta(make_family("Ct+", n, l=l + 1).shift_params(-_H, _H)),
        lambda n, l: make_family("sCt-", n, l=l).scale(ParamScalar.coerce(-2))),
    # zeta(x) Ct-(l)|_{lam-1/2, nu+1/2} = -sCt+(l), lam-nu = -1/2-2l
    "spinor_c_plus": (
        "l", ("diff", -_H),
        lambda n, l: mult_zeta(make_family("Ct-", n, l=l).shift_params(-_H, _H)),
        lambda n, l: make_family("sCt+", n, l=l).scale(ParamScalar.coerce(-1))),
    # zeta(x) sAt- = -At+|_{lam+1/2, nu-1/2} (x) id, generic parameters
    "spinor_a_closure_minus": (
        None, None,
        lambda n: mult_zeta(make_family("sAt-", n)),
        lambda n: as_matrix(make_family("At+", n).shift_params(_H, -_H)).scale(
            ParamScalar.coerce(-1))),
    # zeta(x) sAt+ = -(lam-nu+1/2)/2 At-|_{lam+1/2, nu-1/2} (x) id
    "spinor_a_closure_plus": (
        None, None,
        lambda n: mult_zeta(make_family("sAt+", n)),
        lambda n: as_matrix(make_family("At-", n).shift_params(_H, -_H)).scale(
            _aff_scalar(-_H, _H, -_H / 2))),
    # x_n Att+(i+1, j) = -(k+1) Att-(i, j), 2k = n+i+j-2  (n odd, i-j odd)
    "residue_step": (
        "ij_odd", None,
        lambda n, i, j: mult_xn(make_family("Att+", n, i=i + 1, j=j)),
        lambda n, i, j: make_family("Att-", n, i=i, j=j).scale(
            ParamScalar.coerce(-((n + i + j - 2) // 2 + 1)))),
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
        return _vanishing_report(tag, n, k, l)
    lhs, rhs = _identity_sides(tag, n, k, l, i, j)
    diff = lhs - rhs
    report = {"identity": tag, "n": n,
              "params": {p: q for p, q in (("k", k), ("l", l), ("i", i), ("j", j))
                         if q is not None},
              "ok": diff.is_zero()}
    if not diff.is_zero():
        report["diff"] = to_json_dict(diff)
    return report


def identity_cases(n, kmax, lmax):
    """(tag, index keywords) of every catalogued check up to kmax and lmax.

    In report order: the k identities for each k, the l identities for each
    l, those without index, the vanishing reports, then at odd n the residue
    steps at each 0 <= j < i <= kmax whose i - j has the step's parity.
    """
    def named(first):
        # the tags whose index name starts with first ("" for no index)
        return [tag for tag, (name, *_) in _IDENTITIES.items()
                if (name or "")[:1] == first]
    cases = [(tag, {"k": k}) for k in range(kmax + 1) for tag in named("k")]
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
                    _put(out, key[:4] + (nm,), _v_scale(val, ParamScalar.coerce(-sgn * e)))
        else:
            alpha = key[1]
            # V(d^alpha delta) = -alpha_a d^{alpha+e_b-e_a} + alpha_b d^{alpha+e_a-e_b}
            for (src, dst, sgn) in ((a, b, 1), (b, a, -1)):
                e = alpha[src - 1]
                if e:
                    na = _bump(_bump(alpha, src - 1, -1), dst - 1, 1)
                    _put(out, ("P", na), _v_scale(val, ParamScalar.coerce(sgn * e)))
    defect = KernelExpr(K.n, K.shape, out, K.meta, normalized=False)
    if K.shape:
        # spin twists: X_row o K - K o X_col with X = zeta(e_a e_b)/2
        dst = K.shape[0]
        row_n = K.n - 1 if dst == spin_dim(K.n - 1) and dst != spin_dim(K.n) else K.n
        Xrow = zeta_matrix(row_n, "+", a).compose(zeta_matrix(row_n, "+", b)) \
            .scale(GaussianRational("1/2"))
        Xcol = zeta_matrix(K.n, "+", a).compose(zeta_matrix(K.n, "+", b)) \
            .scale(GaussianRational("1/2"))
        tw = {}
        for key, val in K.terms.items():
            _put(tw, key, _v_add(_matmul(Xrow.entries, val),
                                 _v_scale(_matmul(val, Xcol.entries),
                                          ParamScalar.coerce(-1))))
        defect = defect + KernelExpr(K.n, K.shape, tw, K.meta, normalized=False)
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
            "gammas": [[str(a), str(b), str(c), e] for (a, b, c), e in s.gammas]}


def _value_json(v):
    if _v_is_matrix(v):
        return {"matrix": {"%d,%d" % k: _scalar_json(x)
                           for k, x in sorted(v.items())}}
    return {"scalar": _scalar_json(v)}


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
        t["coeff"] = _value_json(val)
        terms.append(t)
    return {"n": K.n, "shape": list(K.shape) if K.shape else None,
            "terms": terms, "meta": {k: _meta_str(v) for k, v in sorted(K.meta.items())}}


def _term_sort_key(key):
    if key[0] == "P":
        return (2, key[1])
    return (0 if key[0] == "S" else 1, key[1], key[2].sort_key(), key[3].sort_key(),
            key[4])
