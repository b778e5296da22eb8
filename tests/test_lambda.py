from unittest import mock

import pytest

from sbolab import monogenics as mg
from sbolab.paramfield import GaussianRational, ParamScalar, PS_I
from sbolab.monogenics import (lambda_constant, lambda_constant_bruteforce,
                               NotAdjacent, ZeroMap, MultiplicityViolation,
                               DimensionMismatch)

from test_linalg import reference_solve_in_span


def frac(a, b=1):
    return ParamScalar(a, b)


def adjacent_quadruples(n, i, j, sa):
    if n % 2 == 0:
        alpha, alphap = (i, sa), j
        betas = [(i + 1, sa), (i, -sa), (i - 1, sa)]
        betaps = [j + 1, j, j - 1]
    else:
        alpha, alphap = i, (j, sa)
        betas = [i + 1, i, i - 1]
        betaps = [(j + 1, sa), (j, -sa), (j - 1, sa)]
    return [(alpha, alphap, b, bp) for b in betas for bp in betaps]


class TestClosedForm:
    def test_even_diagonal_up(self):
        # ((i,+), j) -> ((i+1,+), j+1): (n+2j-1)/(n+2i+1)
        assert lambda_constant(4, (1, 1), 0, (2, 1), 1) == frac(3, 7)

    def test_even_sign_flip(self):
        # ((i,+), j) -> ((i,-), j): (n+2i)(n+2j-1)/((n+2i-1)(n+2i+1))
        assert lambda_constant(4, (0, 1), 0, (0, -1), 0) == frac(4, 5)

    def test_even_down_left(self):
        # ((i,+), j) -> ((i-1,+), j-1)
        assert lambda_constant(4, (2, 1), 1, (1, 1), 0) == \
            frac((4 + 2 + 1 - 2) * (4 + 2 + 1 - 1), (4 + 4 - 1) * (4 + 2 - 3))

    def test_even_imaginary_entry(self):
        # ((i,+), j) -> ((i+1,+), j): -(i-j+1)/(n+2i+1) sqrt(-1)
        assert lambda_constant(4, (1, 1), 0, (2, 1), 0) == \
            frac(-2, 7) * PS_I

    def test_odd_entries_are_real(self):
        v = lambda_constant(3, 1, (0, 1), 2, (0, -1))
        assert not v.num.terms or all(c.im == 0 for c in v.num.terms.values())

    def test_not_adjacent(self):
        with pytest.raises(NotAdjacent):
            lambda_constant(4, (1, 1), 0, (3, 1), 1)
        with pytest.raises(NotAdjacent):
            lambda_constant(4, (1, 1), 2, (2, 1), 1)  # containment fails
        with pytest.raises(NotAdjacent):
            lambda_constant(3, (1, 1), 0, (2, 1), 1)  # wrong label shape


# labels and dimensions outside the domain; each comment gives what
# lambda_constant, then lambda_constant_bruteforce, returned before labels
# were checked at the entry
@pytest.mark.parametrize("args,exc", [
    ((4, (1, 2), 1, (1, -2), 1), NotAdjacent),  # 6/7, MultiplicityViolation
    ((3, 1, (0, 5), 2, (1, 5)), NotAdjacent),  # 1/3, 1/3
    ((4, (True, 1), 0, (2, 1), 1), NotAdjacent),  # 3/7, 3/7
    ((4, (1.0, 1), 0, (2, 1), 1), NotAdjacent),  # TypeError, 3/7
    ((3, (1, 0), (0, 1), 2, (1, 1)), NotAdjacent),  # 1/3, 1/3
    ((4, (1, 1, 0), 0, (2, 1), 1), NotAdjacent),  # 3/7, 3/7
    ((4.0, (1, 1), 0, (2, 1), 1), DimensionMismatch),  # TypeError, 3/7
])
@pytest.mark.parametrize("solve", [lambda_constant, lambda_constant_bruteforce])
def test_label_domain(solve, args, exc):
    with pytest.raises(exc):
        solve(*args)


def reference_lambda_constant(n, alpha, alphap, beta, betap):
    """lambda_constant as one branch per move pair, each with its own phase."""
    i, si, j, sj, mv, mvp = mg._validate_pair(n, alpha, alphap, beta, betap)
    s = si if n % 2 == 0 else sj
    key = (mv, mvp)
    if key == (1, 1):
        val = ParamScalar(n + 2 * j - 1, n + 2 * i + 1)
    elif key == (0, 1):
        val = ParamScalar(2 * (n + 2 * j - 1) * s,
                          (n + 2 * i - 1) * (n + 2 * i + 1))
        val = val * PS_I if n % 2 == 0 else -val
    elif key == (-1, 1):
        val = ParamScalar(-(n + 2 * j - 1), n + 2 * i - 1)
    elif key == (1, 0):
        val = ParamScalar((i - j + 1) * s, n + 2 * i + 1)
        val = -val * PS_I if n % 2 == 0 else val
    elif key == (0, 0):
        val = ParamScalar((n + 2 * i) * (n + 2 * j - 1),
                          (n + 2 * i - 1) * (n + 2 * i + 1))
    elif key == (-1, 0):
        val = ParamScalar((n + i + j - 1) * s, n + 2 * i - 1)
        val = val * PS_I if n % 2 == 0 else -val
    elif key == (1, -1):
        val = ParamScalar(-(i - j + 1) * (i - j + 2),
                          (n + 2 * i + 1) * (n + 2 * j - 3))
    elif key == (0, -1):
        val = ParamScalar(2 * (i - j + 1) * (n + i + j - 1) * s,
                          (n + 2 * i - 1) * (n + 2 * i + 1) * (n + 2 * j - 3))
        val = val * PS_I if n % 2 == 0 else -val
    else:
        assert key == (-1, -1), key
        val = ParamScalar((n + i + j - 2) * (n + i + j - 1),
                          (n + 2 * i - 1) * (n + 2 * j - 3))
    return val


@pytest.mark.parametrize("n", range(2, 9))
def test_table_matches_reference(n):
    moves = set()
    for i in range(7):
        for j in range(i + 1):
            for sa in (1, -1):
                for quad in adjacent_quadruples(n, i, j, sa):
                    try:
                        want = reference_lambda_constant(n, *quad)
                    except NotAdjacent:
                        with pytest.raises(NotAdjacent):
                            lambda_constant(n, *quad)
                        continue
                    assert lambda_constant(n, *quad) == want, quad
                    moves.add((mg._adjacent_move(quad[0], quad[2])[0],
                               mg._adjacent_move(quad[1], quad[3])[0]))
    assert moves == set(mg._LAMBDA_TABLE)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n,imax", [(3, 2), (4, 2)])
    def test_full_spanning_set(self, n, imax):
        for i in range(imax + 1):
            for j in range(i + 1):
                for sa in (1, -1):
                    for quad in adjacent_quadruples(n, i, j, sa):
                        try:
                            table = lambda_constant(n, *quad)
                        except NotAdjacent:
                            continue
                        bf = lambda_constant_bruteforce(n, *quad)
                        assert bf == table, quad

    @pytest.mark.parametrize("n,mb", [(5, 4), (6, 3)])
    def test_reduced_spanning_set(self, n, mb):
        for i in range(2):
            for j in range(i + 1):
                for quad in adjacent_quadruples(n, i, j, 1):
                    try:
                        table = lambda_constant(n, *quad)
                    except NotAdjacent:
                        continue
                    bf = lambda_constant_bruteforce(n, *quad, max_basis=mb)
                    assert bf == table, quad

    @pytest.mark.parametrize("mb", [0, -1, -5, True, 2.5])
    def test_max_basis_below_one(self, mb):
        # -1 used to drop the last basis element, 0 to leave no basis, True
        # to be taken as 1 and 2.5 to end in a TypeError
        with pytest.raises(ValueError, match="max_basis"):
            lambda_constant_bruteforce(4, (1, 1), 1, (1, -1), 1, max_basis=mb)
        assert lambda_constant_bruteforce(4, (1, 1), 1, (1, -1), 1, max_basis=1) == \
            lambda_constant(4, (1, 1), 1, (1, -1), 1)

    def test_proportionality_is_certified(self):
        # the solve sees every sampled basis element and direction at once;
        # a wrong table value can never sneak through as "proportional"
        v = lambda_constant_bruteforce(4, (1, 1), 1, (1, -1), 1)
        assert v == lambda_constant(4, (1, 1), 1, (1, -1), 1)
        assert v != frac(1, 2)


# -- the block that builds every split component, the oracle for the one
# -- that builds only the components its solve reads ----------------------

def reference_omega_components(phi, k, kind):
    """All three E'(beta')-components of x_k on a sphere K-type element."""
    plus, zero, minus = mg.mult_coordinate_split(phi)[k - 1]
    if kind == "plain":
        return {1: ("plain", plus), 0: ("xz", zero.scale(GaussianRational(-1))),
                -1: ("plain", minus)}
    if kind == "xz":
        return {1: ("xz", plus), 0: ("plain", zero), -1: ("xz", minus)}
    if kind == "mixed":
        return {1: ("mixed", plus), 0: ("mixed", zero.gamma_twist().scale(GaussianRational(-1))),
                -1: ("mixed", minus)}
    raise ValueError(kind)


def reference_bruteforce_block(n, alpha, alphap, beta, max_basis):
    """monogenics._bruteforce_block with every split component built and the
    system solved by full elimination; {move: value}."""
    i, si = mg._split_label(alpha)
    j, sj = mg._split_label(alphap)
    even = n % 2 == 0
    basis = mg.monogenic_basis(n, j)
    if max_basis is not None:
        basis = basis[:max_basis]
    if not basis:
        raise ZeroMap("empty source K-type")
    sib_target = mg._split_label(beta)[1]
    ib_target = mg._split_label(beta)[0]
    lhs_move = mg._adjacent_move(alpha, beta)[0]

    def embed_candidate(jp, ipb, kind, rep):
        """S_{beta,beta'} applied to an omega'-component rep."""
        if rep.is_zero() or jp > ipb:
            return None
        if even:
            # target sign decides whether the x-factor (and gamma twist) is used
            if sib_target == 1:
                return ("plain", mg.branch_embed(n, jp, ipb, rep))
            return ("xz", mg.branch_embed(n, jp, ipb, rep.gamma_twist()))
        if kind == "plain":
            return ("mixed", mg.branch_embed(n, jp, ipb, rep))
        return ("mixed", mg.branch_embed(n, jp, ipb, rep).gamma_twist())

    target = {}
    cand_moves = [mvq for mvq in (1, 0, -1) if 0 <= j + mvq <= ib_target]
    col_vecs = {mvq: {} for mvq in cand_moves}
    sample_idx = 0
    for phi in basis:
        if even:
            # alpha = (i,+): Psi = I(phi); (i,-): Psi = I(gamma phi), xz kind
            if si == 1:
                Psi, lhs_kind = mg.branch_embed(n, j, i, phi), "plain"
            else:
                Psi, lhs_kind = mg.branch_embed(n, j, i, phi.gamma_twist()), "xz"
            omega_kind = "mixed"
        else:
            if sj == 1:
                Psi, lhs_kind = mg.branch_embed(n, j, i, phi), "mixed"
                omega_kind = "plain"
            else:
                Psi, lhs_kind = mg.branch_embed(n, j, i, phi).gamma_twist(), "mixed"
                omega_kind = "xz"
        for k in range(1, n + 1):
            lhs_kind_b, lhs_rep = reference_omega_components(Psi, k, lhs_kind)[lhs_move]
            src_comps = reference_omega_components(phi, k, omega_kind)
            for mvq in cand_moves:
                comp_kind, rep = src_comps[mvq]
                cand = embed_candidate(j + mvq, ib_target, comp_kind, rep)
                if cand is not None:
                    ck, cpoly = cand
                    if ck != lhs_kind_b:
                        raise MultiplicityViolation(
                            "component kinds disagree: %s vs %s" % (ck, lhs_kind_b))
                    for mono, s in cpoly.coeffs.items():
                        for mask, v in s.coeffs.items():
                            col_vecs[mvq][(sample_idx, (mono, mask))] = v
            for mono, s in lhs_rep.coeffs.items():
                for mask, v in s.coeffs.items():
                    target[(sample_idx, (mono, mask))] = v
            sample_idx += 1

    live = [mvq for mvq in cand_moves if col_vecs[mvq]]
    if not live:
        raise ZeroMap("comparison map vanishes on the spanning set")
    try:
        sol = reference_solve_in_span([col_vecs[mvq] for mvq in live], target)
    except ValueError as exc:
        raise ZeroMap(str(exc))
    if sol is None:
        raise MultiplicityViolation(
            "sides are not proportional for %r -> %r" % ((alpha, alphap), beta))
    return {mvq: sol[t] for t, mvq in enumerate(live)}


def criterion_3_blocks(n, imax, max_basis):
    """The (n, alpha, alphap, beta, max_basis) blocks criterion 3 solves for
    i <= imax: those with at least one adjacent betap."""
    blocks = []
    for i in range(imax + 1):
        for j in range(i + 1):
            for sa in (1, -1):
                for alpha, alphap, beta, betap in adjacent_quadruples(n, i, j, sa):
                    try:
                        mg._validate_pair(n, alpha, alphap, beta, betap)
                    except NotAdjacent:
                        continue
                    block = (n, alpha, alphap, beta, max_basis)
                    if block not in blocks:
                        blocks.append(block)
    return blocks


def _block_outcome(solve, block):
    try:
        return solve(*block)
    except (ZeroMap, MultiplicityViolation) as exc:
        return type(exc)


def test_block_matches_full_split_oracle():
    blocks = (criterion_3_blocks(3, 2, None) + criterion_3_blocks(4, 2, None)
              + criterion_3_blocks(5, 1, 6) + criterion_3_blocks(6, 1, 4)
              + criterion_3_blocks(2, 2, None) + criterion_3_blocks(7, 1, 4))
    assert len(blocks) == 150
    for block in blocks:
        # __wrapped__: past the cache, so this block is solved here
        got = _block_outcome(mg._bruteforce_block.__wrapped__, block)
        assert got == _block_outcome(reference_bruteforce_block, block), block


def test_split_checks_its_input_once_per_call():
    # one split per basis element for the left side and one for the
    # candidates, each computing the Dirac image of its input once
    calls = {"split": 0, "dirac": 0}
    depth = []
    split, dirac = mg.mult_coordinate_split, mg.dirac

    def counted_split(*args):
        calls["split"] += 1
        depth.append(None)
        try:
            return split(*args)
        finally:
            depth.pop()

    def counted_dirac(phi):
        calls["dirac"] += bool(depth)
        return dirac(phi)

    block = (4, (1, 1), 1, (1, -1), None)
    with mock.patch.object(mg, "mult_coordinate_split", counted_split), \
            mock.patch.object(mg, "dirac", counted_dirac):
        got = mg._bruteforce_block.__wrapped__(*block)
    assert calls["split"] == 2 * len(mg.monogenic_basis(4, 1))
    assert calls["dirac"] == calls["split"]
    assert got == mg._bruteforce_block(*block)


@pytest.mark.parametrize("n", [5, 6])
def test_criterion_3_on_full_bases(n):
    # criterion 3 samples a reduced spanning set at n = 5, 6; on the full
    # basis every one of its constants is matched too, and no map vanishes
    compared = 0
    for i in range(4):
        for j in range(i + 1):
            for sa in (1, -1):
                for quad in adjacent_quadruples(n, i, j, sa):
                    try:
                        table = lambda_constant(n, *quad)
                    except NotAdjacent:
                        continue
                    bf = lambda_constant_bruteforce(n, *quad, max_basis=None)
                    assert bf == table, quad
                    compared += 1
    assert compared == 126
