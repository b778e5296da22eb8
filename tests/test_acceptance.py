"""Acceptance suite: every criterion is exact (zero tolerance) and prints one
pass/fail line.  Run with pytest -s to see the lines and timings."""

import random
import time

import pytest

from sbolab.paramfield import GaussianRational, ZERO, ONE, rat
from sbolab.cliffspin import (Spinor, zeta_action, zeta_gen_apply, gamma,
                              spin_dim)
from sbolab import monogenics as mg
from sbolab import kernelcalc as kc
from sbolab import sbolattice as lt


def _line(num, name, ok, t0):
    status = "PASS" if ok else "FAIL"
    print("criterion %d (%s): %s  [%.1fs]" % (num, name, status,
                                              time.perf_counter() - t0))
    assert ok, "criterion %d failed" % num


def test_criterion_1_gegenbauer():
    t0 = time.perf_counter()
    report = mg.verify_gegenbauer_identities(10)
    ok = all(all(per.values()) for per in report.values())
    _line(1, "Gegenbauer identities and ODE to degree 10", ok, t0)


def test_criterion_2_monogenic_branching():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        for j in range(5):
            basis = mg.monogenic_basis(n, j)
            for i in range(j, 5):
                for phi in basis:
                    if not mg.dirac(mg.branch_embed(n, j, i, phi)).is_zero():
                        ok = False
                for phi in basis[:2]:
                    for gens in ((1,), (1, 2)):
                        lhs = mg.branch_embed(n, j, i,
                                              mg.apply_group_element(phi, gens))
                        rhs = mg.apply_group_element(
                            mg.branch_embed(n, j, i, phi), gens)
                        if lhs != rhs:
                            ok = False
    _line(2, "branching embeddings monogenic and equivariant", ok, t0)


def test_criterion_3_lambda_constants():
    t0 = time.perf_counter()
    # full spanning basis for n <= 4; deterministic reduced spanning set for
    # the larger modules (multiplicity-one pins the constant either way)
    max_basis = {3: None, 4: None, 5: 6, 6: 4}
    ok = True
    for n in (3, 4, 5, 6):
        for i in range(4):
            for j in range(i + 1):
                for sa in (1, -1):
                    if n % 2 == 0:
                        alpha, alphap = (i, sa), j
                        moves = [((i + d, sa) if d else (i, -sa), bp)
                                 for d in (1, 0, -1) for bp in (j + 1, j, j - 1)]
                    else:
                        alpha, alphap = i, (j, sa)
                        moves = [(i + d if d else i,
                                  (bp, sa) if bp != j else (j, -sa))
                                 for d in (1, 0, -1) for bp in (j + 1, j, j - 1)]
                    for beta, betap in moves:
                        try:
                            table = mg.lambda_constant(n, alpha, alphap,
                                                       beta, betap)
                        except mg.NotAdjacent:
                            continue
                        try:
                            bf = mg.lambda_constant_bruteforce(
                                n, alpha, alphap, beta, betap,
                                max_basis=max_basis[n])
                        except mg.ZeroMap:
                            continue
                        if bf != table:
                            ok = False
    _line(3, "closed-form = brute-force lattice constants", ok, t0)


def test_criterion_4_kernel_identity_catalogue():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4, 5, 6):
        for k in range(6):
            for tag in ("b_translation", "b_double_display", "spinor_b_minus",
                        "spinor_b_plus"):
                ok = ok and kc.check_identity(tag, n, k=k)["ok"]
        for l in range(6):
            for tag in ("c_translation", "juhl_up", "juhl_down",
                        "spinor_c_minus", "spinor_c_plus"):
                ok = ok and kc.check_identity(tag, n, l=l)["ok"]
        ok = ok and kc.check_identity("spinor_a_closure_minus", n)["ok"]
        ok = ok and kc.check_identity("spinor_a_closure_plus", n)["ok"]
        ok = ok and kc.check_identity("xn_kernel", n, k=3, l=3)["ok"]
        ok = ok and kc.check_identity("zeta_kernel", n, k=3, l=3)["ok"]
        if n % 2:
            for i in range(1, 5):
                for j in range(i):
                    if (i - j) % 2:
                        ok = ok and kc.check_identity("residue_step", n,
                                                      i=i, j=j)["ok"]
                        ok = ok and kc.check_identity(
                            "residue_step_spinor_minus", n, i=i, j=j)["ok"]
                    else:
                        ok = ok and kc.check_identity(
                            "residue_step_spinor_plus", n, i=i, j=j)["ok"]
    _line(4, "kernel identity catalogue, k,l <= 5, n in 2..6", ok, t0)


def test_criterion_5_spinor_projection_support():
    t0 = time.perf_counter()
    ok = True
    # the zeta-translation identities themselves
    for n in (3, 4, 5, 6):
        for k in range(5):
            ok = ok and kc.check_identity("spinor_b_minus", n, k=k)["ok"]
            ok = ok and kc.check_identity("spinor_b_plus", n, k=k)["ok"]
        for l in range(5):
            ok = ok and kc.check_identity("spinor_c_minus", n, l=l)["ok"]
            ok = ok and kc.check_identity("spinor_c_plus", n, l=l)["ok"]
    # projected families keep their support for even n
    for n in (4, 6):
        fams = [("sAt+", {}), ("sAt-", {})]
        fams += [("sBt+", {"k": k}) for k in range(5)]
        fams += [("sBt-", {"k": k}) for k in range(5)]
        fams += [("sCt+", {"l": l}) for l in range(5)]
        fams += [("sCt-", {"l": l}) for l in range(5)]
        for tag, kw in fams:
            K = kc.make_family(tag, n, **kw)
            if kc.support(kc.project(K)) != kc.support(K):
                ok = False
    _line(5, "spinor translation identities and projection support", ok, t0)


def test_criterion_6_multiplicity_grid():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5):
        r = rat(n) / 2
        rh = rat(n - 1) / 2
        for a in range(-1, 5):
            for b in range(-1, 5):
                lam0 = -(r + rat("1/2") + a)
                nu0 = -(rh + rat("1/2") + b)
                res = lt.multiplicity(n, lam0, nu0, depth=12)
                want = 3 if (0 <= b <= a) else 2
                if res["total"] != want or not res["stabilized"]:
                    ok = False
                if 0 <= b <= a:
                    # the sector matching the lattice-point parity carries 2
                    big = "dim_plus" if (a - b) % 2 == 0 else "dim_minus"
                    if res[big] != 2:
                        ok = False
        # off half-integer grid points stay at 2
        for lam0, nu0 in ((0, 0), ("1/3", "-2/7")):
            if lt.multiplicity(n, lam0, nu0, depth=12)["total"] != 2:
                ok = False
    _line(6, "multiplicity 3 on the special set, 2 off it (n=4,5, depth 12)",
          ok, t0)


def test_criterion_7_composition_tables():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5):
        for i in range(5):
            for j in range(5):
                for parity in (0, 1):
                    want = lt.expected_composition(i, j, parity)
                    for pair in ("FF", "FT", "TF", "TT"):
                        got = lt.composition_multiplicity(
                            n, i, j, parity, pair, depth=12, stabilize=False)
                        if got != want[pair]:
                            ok = False
    _line(7, "composition-factor tables entry-for-entry (n=4,5, i,j <= 4)",
          ok, t0)


def test_criterion_8_structural_invariants():
    t0 = time.perf_counter()
    rng = random.Random(20240811)
    ok = True
    # zeta(v)^2 = -|v|^2 id on random rational vectors
    for n in (2, 3, 4, 5):
        m = n // 2
        for _ in range(10):
            v = [GaussianRational(rng.randint(-9, 9), 0) for _ in range(n)]
            norm = sum((c * c for c in v), ZERO)
            s = Spinor(m, {rng.randrange(1 << m): GaussianRational(
                rng.randint(-5, 5))})
            if zeta_action(n, "+", v, zeta_action(n, "+", v, s)) != \
                    s.scale(-norm):
                ok = False
    # gamma anticommutation with the wedge-contraction generators
    for n in (2, 3, 4, 5, 6):
        m = n // 2
        for i in range(1, 2 * m + 1):
            for mask in range(1 << m):
                s = Spinor.basis(m, mask)
                if not (gamma(zeta_gen_apply(n, "+", i, s)) +
                        zeta_gen_apply(n, "+", i, gamma(s))).is_zero():
                    ok = False
    # homogeneity-degree coherence of every kernel family
    for n in (3, 4):
        fams = [("A+", {}, 0), ("A-", {}, 1), ("At+", {}, 0), ("At-", {}, 1),
                ("Bt+", {"k": 2}, 0), ("Bt-", {"k": 2}, 1),
                ("Ct+", {"l": 2}, 0), ("Ct-", {"l": 2}, 1),
                ("sAt+", {}, 0), ("sAt-", {}, 1),
                ("sBt+", {"k": 1}, 0), ("sBt-", {"k": 1}, 1),
                ("sCt+", {"l": 1}, 0), ("sCt-", {"l": 1}, 1)]
        for tag, kw, par in fams:
            try:
                kc.symmetry_checks(kc.make_family(tag, n, **kw), par)
            except kc.SymmetryFailure:
                ok = False
    # Fischer reconstruction on random polynomials, n <= 4, deg <= 5
    for n in (2, 3, 4):
        m = n // 2
        for deg in range(6):
            coeffs = {}
            for mono in mg.monomials(n, deg):
                coeffs[mono] = Spinor(m, {rng.randrange(1 << m):
                                          GaussianRational(rng.randint(-3, 3))})
            phi = mg.SpinorPolynomial(n, n, "+", coeffs)
            comps = mg.fischer_split(phi)
            rec = phi._zero_like()
            for jj, psi in comps:
                if not mg.dirac(psi).is_zero():
                    ok = False
                t = psi
                for _ in range(jj):
                    t = t.zeta_x()
                rec = rec + t
            if rec != phi:
                ok = False
    _line(8, "structural invariants (Clifford, gamma, homogeneity, Fischer)",
          ok, t0)
