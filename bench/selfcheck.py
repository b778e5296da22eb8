"""Fast self-check of the benchmark's checks (about half a minute).

    python3 bench/selfcheck.py

1. Oracles computed apart from the program: the lattice nullspace dimension
   at small depths against the rank sympy computes over Q(i) on the same
   rows, every
   returned basis vector against every constraint row in plain `Fraction`
   arithmetic, and the size of `monogenic_basis(n, i)` against
   2^(n//2) * C(i + n - 2, n - 2).
2. Negative controls: a doubled right side in the Clifford relation, a
   wrong composition-table entry and a mismatched closed-form constant must
   each make a round report a failed check, while the same checks with the
   right expectations pass.

Exits 0 when everything holds.  sympy is used here only, never by the
benchmark runs.
"""

import sys
from fractions import Fraction as F
from math import comb

import worker  # sets the import path to the checkout's src/
import workloads as wl
from sbolab import monogenics as mg, sbolattice as lt


def _parts(v):
    return F(v.re.numerator, v.re.denominator), F(v.im.numerator, v.im.denominator)


def _annihilates(row, vec):
    re = im = F(0)
    for key, c in row.items():
        if key in vec:
            a, b = _parts(c)
            x, y = _parts(vec[key])
            re += a * x - b * y
            im += a * y + b * x
    return re == 0 and im == 0


def lattice_oracle():
    import sympy
    from sympy.polys.matrices import DomainMatrix

    def entry(v):
        return sympy.QQ_I(sympy.Rational(v.re.numerator, v.re.denominator),
                          sympy.Rational(v.im.numerator, v.im.denominator))

    bad = []
    points = [(4, *wl.lattice_point(4, 1, 1)), (5, *wl.lattice_point(5, 2, 0)),
              (4, *wl.lattice_point(4, -1, 2)), (5, F(1, 3), F(-2, 7))]
    for n, lam, nu in points:
        for sign in (1, -1):
            for depth in (4, 6):
                system = lt.build_system(n, lam, nu, sign, depth)
                cols = [(i, j) for i in range(depth + 1) for j in range(i + 1)]
                rows = [[entry(row[c]) if c in row else sympy.QQ_I.zero
                         for c in cols] for row in system.constraints]
                rank = DomainMatrix(rows, (len(rows), len(cols)),
                                    sympy.QQ_I).rank()
                nullity = len(cols) - rank
                sol = lt.solve_dimension(system)
                where = "n=%d lam=%s nu=%s sign=%d depth=%d" % (n, lam, nu, sign, depth)
                if sol.dim != nullity or len(sol.basis) != nullity:
                    bad.append("%s: dim %d, sympy nullity %d" % (where, sol.dim, nullity))
                if not all(_annihilates(row, vec) for vec in sol.basis
                           for row in system.constraints):
                    bad.append("%s: a basis vector misses a row" % where)
    return bad


def monogenic_oracle():
    bad = []
    for n in (2, 3, 4, 5):
        for i in range(4):
            want = 2 ** (n // 2) * comb(i + n - 2, n - 2)
            got = len(mg.monogenic_basis(n, i))
            if got != want:
                bad.append("monogenic_basis(%d, %d): %d != %d" % (n, i, got, want))
    return bad


def _wrong_table(i, j, parity):
    right = wl.expected_composition(i, j, parity)
    return {pair: 1 - v if pair == "FF" else v for pair, v in right.items()}


def negative_controls():
    alpha, alphap, beta, betaps = wl.target_labels(3, 1, 1, 1, 1)
    pairs = [
        ("clifford relation",
         wl.kernel_check("juhl_down", 3, "Ct-", {"l": 1}, l=1),
         wl.kernel_check("juhl_down", 3, "Ct-", {"l": 1}, factor=-2, l=1)),
        ("composition entry",
         wl.composition_check([(4, 1, 0, 1)]),
         wl.composition_check([(4, 1, 0, 1)], table=_wrong_table)),
        ("closed-form constant",
         wl.lambda_check(3, alpha, alphap, beta, betaps),
         wl.lambda_check(3, alpha, alphap, beta, betaps, factor=2)),
    ]
    bad = []
    for name, right, wrong in pairs:
        if worker.run_rounds([right], [], None, None)["failed"] != 0:
            bad.append("%s: the right expectation fails" % name)
        if worker.run_rounds([wrong], [], None, None)["failed"] != 1:
            bad.append("%s: the wrong expectation is not reported" % name)
    return bad


def main():
    bad = []
    for name, fn in (("lattice vs sympy rank", lattice_oracle),
                     ("monogenic basis size", monogenic_oracle),
                     ("negative controls", negative_controls)):
        found = fn()
        print("%-24s %s" % (name, "ok" if not found else "FAILED"))
        for line in found:
            print("  " + line)
        bad += found
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
