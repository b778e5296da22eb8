"""Seeded inputs and output checks for the three benchmark workloads.

`ROUNDS[name](seed)` returns one round: a list of `Check`s, each a label
and a function that runs the program and returns True when its output is
right.  The expected values are written out here from the paper's
statements; nothing is read back from a stored copy of the program's
output or from `sbolattice.expected_composition`.

The seed draws the free parameters of each check (lattice points, sectors,
signs, basis elements, generators) and the order of the round.  It does not
draw the sizes: the depths, dimensions and indices of a round are fixed, so
that the cost of a round, and with it every end-to-end metric, does not
depend on the seed.
"""

import io
import json
import random
from fractions import Fraction as F

from sbolab import cli, kernelcalc as kc, monogenics as mg, sbolattice as lt


class Check:
    __slots__ = ("kind", "label", "run")

    def __init__(self, kind, label, run):
        self.kind = kind
        self.label = label
        self.run = run


# -- lattice ---------------------------------------------------------------

LATTICE_DEPTH = 12
DEEP_DEPTH = 16
COMPOSITION_DEPTH = 12
GENERIC_DENOMINATORS = (3, 5, 7)
PAIRS = ("FF", "FT", "TF", "TT")


def lattice_point(n, a, b):
    """(lam, nu) = (-(n/2 + 1/2 + a), -((n-1)/2 + 1/2 + b))."""
    return -(F(n, 2) + F(1, 2) + a), -(F(n - 1, 2) + F(1, 2) + b)


def expected_multiplicity(n, lam, nu):
    """The paper's count: 3 on the special set, with the sector matching the
    parity of i - j carrying 2, and 2 everywhere else."""
    a = -(lam + F(n, 2) + F(1, 2))
    b = -(nu + F(n - 1, 2) + F(1, 2))
    if a.denominator == 1 and b.denominator == 1 and 0 <= b <= a:
        big, small = (("dim_plus", "dim_minus") if (a - b) % 2 == 0
                      else ("dim_minus", "dim_plus"))
        return {"total": 3, "on_lattice": True, big: 2, small: 1}
    return {"total": 2, "on_lattice": False}


# The two composition-factor tables of the paper, entry for entry: maps
# between the constituents F(i), T(i) and F'(j), T'(j) at the reducibility
# point, by whether (i, j) is in the triangle with i + j = delta + epsilon
# mod 2 (table 1) or not (table 2).
COMPOSITION_TABLE_1 = {"FF": 1, "FT": 0, "TF": 0, "TT": 1}
COMPOSITION_TABLE_2 = {"FF": 0, "FT": 0, "TF": 1, "TT": 0}


def expected_composition(i, j, parity):
    in_table_1 = 0 <= j <= i and (i + j - parity) % 2 == 0
    return COMPOSITION_TABLE_1 if in_table_1 else COMPOSITION_TABLE_2


def multiplicity_check(n, lam, nu, depth, sector):
    argv = ["multiplicity", "--n", str(n), "--lam=%s" % lam, "--nu=%s" % nu,
            "--depth", str(depth)]
    if sector != "both":
        argv += ["--sector", sector]
    want = expected_multiplicity(n, lam, nu)

    def run():
        out = io.StringIO()
        if cli.main(argv, out=out) != 0:
            return False
        got = json.loads(out.getvalue())
        shown = {k for k in ("dim_plus", "dim_minus") if k in got}
        if shown != ({"dim_plus", "dim_minus"} if sector == "both"
                     else {"dim_" + sector}):
            return False
        return (got["total"] == want["total"] and got["stabilized"] is True
                and got["on_lattice"] == want["on_lattice"]
                and all(got[k] == want[k] for k in shown if k in want))
    return Check("multiplicity", "n=%d lam=%s nu=%s depth=%d sector=%s"
                 % (n, lam, nu, depth, sector), run)


def composition_check(entries, table=expected_composition):
    """All four pairs at each (n, i, j, parity) of entries."""
    def run():
        return all(lt.composition_multiplicity(n, i, j, parity, pair,
                                               depth=COMPOSITION_DEPTH,
                                               stabilize=False)
                   == table(i, j, parity)[pair]
                   for n, i, j, parity in entries for pair in PAIRS)
    return Check("composition", "depth=%d entries=%s"
                 % (COMPOSITION_DEPTH, entries), run)


def _generic_rational(rng):
    den = rng.choice(GENERIC_DENOMINATORS)
    num = rng.choice([p for p in range(-2 * den + 1, 2 * den) if p % den])
    return F(num, den)


def lattice_round(seed):
    """A special point for n = 4 and for n = 5 and an off-set half-integer
    point at depth 12, a generic rational point at depth 16, and the four
    composition entries at one (n, i, j, parity); two of the queries ask
    for one sector only.  Each check but the depth-16 query costs about
    four depth-12 system builds."""
    rng = random.Random(seed)
    special = [(a, b) for a in range(4) for b in range(a + 1)]
    off = [(a, b) for a in range(-1, 5) for b in range(-1, 5)
           if not 0 <= b <= a]
    checks = [
        multiplicity_check(4, *lattice_point(4, *rng.choice(special)),
                           LATTICE_DEPTH, rng.choice(("plus", "minus"))),
        multiplicity_check(5, *lattice_point(5, *rng.choice(special)),
                           LATTICE_DEPTH, "both"),
        multiplicity_check(4, *lattice_point(4, *rng.choice(off)),
                           LATTICE_DEPTH, rng.choice(("plus", "minus"))),
        multiplicity_check(4, _generic_rational(rng), _generic_rational(rng),
                           DEEP_DEPTH, "both"),
        composition_check([(rng.choice((4, 5)), rng.randrange(5),
                            rng.randrange(5), rng.randrange(2))]),
    ]
    rng.shuffle(checks)
    return checks


# -- kernels ---------------------------------------------------------------

# tag -> (family whose Clifford relation is checked with it, index name,
# index shift): the family on the left side of the identity
KERNEL_TAGS = {
    "b_translation": ("Bt+", "k", 1),
    "b_double_display": (None, "k", 0),
    "spinor_b_minus": ("Bt+", "k", 0),
    "spinor_b_plus": ("Bt-", "k", 0),
    "c_translation": ("Ct+", "l", 1),
    "juhl_up": ("Ct+", "l", 0),
    "juhl_down": ("Ct-", "l", 0),
    "spinor_c_minus": ("Ct+", "l", 1),
    "spinor_c_plus": ("Ct-", "l", 0),
}
# every tag runs at index 1 for each n; spinor_c_minus also runs at l = 2
# for n = 6, the largest dense End(S_6) case that fits a round
KERNEL_NS = (3, 4, 5, 6)
KERNEL_CELLS = ([(tag, n, 1) for n in KERNEL_NS for tag in KERNEL_TAGS]
                + [("spinor_c_minus", 6, 2)])


def clifford_relation_holds(K, factor=-1):
    """zeta(x)^2 K == factor * |x|^2 K; the paper's relation has factor -1."""
    lhs = kc.mult_zeta(kc.mult_zeta(K))
    rhs = kc.as_matrix(kc.mult_norm2(K)).scale(factor)
    return (lhs - rhs).is_zero()


def kernel_check(tag, n, family, fam_kw, factor=-1, **kw):
    def run():
        if not kc.check_identity(tag, n, **kw)["ok"]:
            return False
        return clifford_relation_holds(kc.make_family(family, n, **fam_kw),
                                       factor)
    return Check("identity", "%s n=%d %s + clifford %s %s"
                 % (tag, n, kw, family, fam_kw), run)


def kernels_round(seed):
    """The identities of KERNEL_CELLS, the two A-closures per n and three
    residue steps per odd n, each with the Clifford relation of its
    left-hand family."""
    rng = random.Random(seed)
    checks = []
    for tag, n, v in KERNEL_CELLS:
        family, idx, shift = KERNEL_TAGS[tag]
        kw = {idx: v}
        if family is None:
            # the double display is stated for either sign
            family = rng.choice(("Bt+", "Bt-"))
            kw["j"] = 1 if family == "Bt+" else -1
        checks.append(kernel_check(tag, n, family, {idx: v + shift}, **kw))
    for n in KERNEL_NS:
        for tag, family in (("spinor_a_closure_minus", "At+"),
                            ("spinor_a_closure_plus", "At-")):
            checks.append(kernel_check(tag, n, family, {}))
        if n % 2:
            # residue steps at i - j odd (scalar and spinor) and even
            i = rng.choice((2, 3))
            j = i - 1
            checks.append(kernel_check("residue_step", n, "Att+",
                                       {"i": i + 1, "j": j}, i=i, j=j))
            checks.append(kernel_check("residue_step_spinor_minus", n, "Att+",
                                       {"i": i + 1, "j": j}, i=i, j=j))
            j = i - 2
            checks.append(kernel_check("residue_step_spinor_plus", n, "Att-",
                                       {"i": i + 1, "j": j}, i=i, j=j))
    rng.shuffle(checks)
    return checks


# -- lambda ----------------------------------------------------------------

# spanning-set sizes as in the acceptance suite: the full basis for n <= 4, a
# fixed prefix for the larger modules (multiplicity one pins the constant)
MAX_BASIS = {3: None, 4: None, 5: 6, 6: 4}
# (i, j, move of beta) per n, i <= 3; the seed draws the sign of the signed
# label.  The targets are chosen to cost about the same (0.2-0.5 s here),
# so that the median check sits among many checks of like cost
LAMBDA_TARGETS = {
    3: ((2, 1, 1), (2, 1, 0), (2, 2, 1), (3, 1, -1), (3, 2, -1)),
    4: ((1, 1, 1), (2, 0, 1), (2, 0, 0), (3, 0, 0), (3, 0, -1)),
    5: ((1, 0, 1), (1, 1, 1), (2, 0, 0), (2, 0, -1), (2, 2, 0)),
    6: ((1, 1, 1), (2, 1, 0), (2, 1, -1), (2, 2, 1), (2, 0, -1)),
}
# (n, j, i) of the branching checks; the seed draws the basis elements and
# the generators
BRANCHING = ((3, 1, 4), (3, 3, 4), (4, 2, 4), (4, 3, 4), (5, 1, 3), (5, 2, 3))


def target_labels(n, i, j, move, sign):
    """(alpha, alphap, beta, [adjacent betap]) for one target K-type."""
    if n % 2 == 0:
        alpha, alphap = (i, sign), j
        beta = (i + move, sign) if move else (i, -sign)
        betaps = [j + 1, j, j - 1]
    else:
        alpha, alphap = i, (j, sign)
        beta = i + move
        betaps = [(j + 1, sign), (j, -sign), (j - 1, sign)]
    return alpha, alphap, beta, betaps


def lambda_check(n, alpha, alphap, beta, betaps, factor=1):
    """Brute force equals the closed form for every adjacent betap."""
    def run():
        compared = 0
        for betap in betaps:
            try:
                table = mg.lambda_constant(n, alpha, alphap, beta, betap)
            except mg.NotAdjacent:
                continue
            try:
                bf = mg.lambda_constant_bruteforce(n, alpha, alphap, beta, betap,
                                                   max_basis=MAX_BASIS[n])
            except mg.ZeroMap:
                continue
            compared += 1
            if bf != table * factor:
                return False
        return compared > 0
    return Check("lambda", "n=%d alpha=%s alphap=%s beta=%s"
                 % (n, alpha, alphap, beta), run)


def branching_check(n, j, i, picks, gens):
    """Embeddings of the picked basis elements are monogenic and equivariant."""
    def run():
        basis = mg.monogenic_basis(n, j)
        for p in picks:
            phi = basis[p % len(basis)]
            emb = mg.branch_embed(n, j, i, phi)
            if not mg.dirac(emb).is_zero():
                return False
            for g in gens:
                lhs = mg.branch_embed(n, j, i, mg.apply_group_element(phi, g))
                if lhs != mg.apply_group_element(emb, g):
                    return False
        return True
    return Check("branching", "n=%d j=%d i=%d picks=%s gens=%s"
                 % (n, j, i, picks, gens), run)


def lambda_round(seed):
    """The targets of LAMBDA_TARGETS and the branching checks of BRANCHING."""
    rng = random.Random(seed)
    checks = []
    for n, targets in LAMBDA_TARGETS.items():
        for i, j, move in targets:
            labels = target_labels(n, i, j, move, rng.choice((1, -1)))
            checks.append(lambda_check(n, *labels))
    for n, j, i in BRANCHING:
        picks = [rng.randrange(1 << 16) for _ in range(3)]
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        checks.append(branching_check(n, j, i, picks,
                                      [(rng.randrange(1, n + 1),), (a, b)]))
    rng.shuffle(checks)
    return checks


ROUNDS = {"lattice": lattice_round, "kernels": kernels_round,
          "lambda": lambda_round}
