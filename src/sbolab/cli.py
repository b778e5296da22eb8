"""Command-line verification harness with machine-readable reports.

Subcommands: verify (run a named suite, one JSON report per line), and
multiplicity / table / kernel for the lattice solver and kernel normal
forms.  Exit codes: 0 all passed, 1 any failure, 2 usage error, 141
(128 + SIGPIPE) when the reader closed the output pipe early.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from .paramfield import rat
from . import cliffspin, monogenics, kernelcalc, sbolattice


def _report(check, params, status, witness=None, t0=None):
    rep = {"check": check, "params": params, "status": status,
           "runtime_ms": int((time.perf_counter() - t0) * 1000)
           if t0 is not None else 0}
    if witness is not None:
        rep["witness"] = witness
    return rep


def _emit(rep, out):
    out.write(json.dumps(rep, sort_keys=True) + "\n")


def _suite_gegenbauer(args):
    t0 = time.perf_counter()
    try:
        monogenics.verify_gegenbauer_identities(args.max_deg)
        yield _report("gegenbauer", {"max_deg": args.max_deg}, "pass", t0=t0)
    except monogenics.IdentityFailure as exc:
        yield _report("gegenbauer", {"max_deg": args.max_deg}, "fail",
                      witness=str(exc), t0=t0)


def _suite_branching(args):
    for n in range(2, args.n + 1):
        for j in range(args.imax + 1):
            basis = monogenics.monogenic_basis(n, j)
            for i in range(j, args.imax + 1):
                t0 = time.perf_counter()
                params = {"n": n, "j": j, "i": i}
                bad = None
                for phi in basis:
                    emb = monogenics.branch_embed(n, j, i, phi)
                    if not monogenics.dirac(emb).is_zero():
                        bad = "dirac(I phi) != 0"
                        break
                for gens in ((1,), (1, 2)):
                    for phi in basis[:2]:
                        lhs = monogenics.branch_embed(
                            n, j, i, monogenics.apply_group_element(phi, gens))
                        rhs = monogenics.apply_group_element(
                            monogenics.branch_embed(n, j, i, phi), gens)
                        if lhs != rhs:
                            bad = "equivariance fails for generators %r" % (gens,)
                yield _report("branching", params,
                              "fail" if bad else "pass", witness=bad, t0=t0)


def _suite_lambda(args):
    n = args.n
    for i in range(args.imax + 1):
        for j in range(i + 1):
            for sa in (1, -1):
                if n % 2 == 0:
                    alpha, alphap = (i, sa), j
                    betas = [(i + 1, sa), (i, -sa), (i - 1, sa)]
                    betaps = [j + 1, j, j - 1]
                else:
                    alpha, alphap = i, (j, sa)
                    betas = [i + 1, i, i - 1]
                    betaps = [(j + 1, sa), (j, -sa), (j - 1, sa)]
                for beta in betas:
                    for betap in betaps:
                        t0 = time.perf_counter()
                        params = {"n": n, "alpha": str(alpha), "alphap": str(alphap),
                                  "beta": str(beta), "betap": str(betap)}
                        try:
                            table = monogenics.lambda_constant(n, alpha, alphap,
                                                               beta, betap)
                        except monogenics.NotAdjacent:
                            continue
                        try:
                            bf = monogenics.lambda_constant_bruteforce(
                                n, alpha, alphap, beta, betap,
                                max_basis=args.max_basis)
                        except monogenics.ZeroMap:
                            yield _report("lambda", params, "indeterminate", t0=t0)
                            continue
                        except monogenics.MultiplicityViolation as exc:
                            yield _report("lambda", params, "fail",
                                          witness=str(exc), t0=t0)
                            continue
                        ok = bf == table
                        yield _report("lambda", params, "pass" if ok else "fail",
                                      witness=None if ok else
                                      {"bruteforce": repr(bf), "table": repr(table)},
                                      t0=t0)


def _suite_kernels(args):
    n = args.n
    for tag, kw in kernelcalc.identity_cases(n, args.kmax, args.lmax):
        t0 = time.perf_counter()
        rep = kernelcalc.check_identity(tag, n, **kw)
        yield _report("kernel:" + tag, dict(kw, n=n),
                      "pass" if rep["ok"] else "fail",
                      witness=None if rep["ok"] else rep.get("diff"), t0=t0)


def _suite_projection(args):
    n = args.n
    t0 = time.perf_counter()
    if n % 2 == 0:
        rep = cliffspin.check_proj_independence(n)
        yield _report("projection:independence", {"n": n},
                      "pass" if rep["ok"] else "fail", t0=t0)
    fams = [("sAt+", {}), ("sAt-", {})]
    for k in range(args.kmax + 1):
        fams += [("sBt+", {"k": k}), ("sBt-", {"k": k})]
    for l in range(args.lmax + 1):
        fams += [("sCt+", {"l": l}), ("sCt-", {"l": l})]
    for tag, kw in fams:
        t0 = time.perf_counter()
        K = kernelcalc.make_family(tag, n, **kw)
        before = kernelcalc.support(K)
        after = kernelcalc.support(kernelcalc.project(K))
        yield _report("projection:support", dict(kw, n=n, family=tag),
                      "pass" if after == before else "fail",
                      witness=None if after == before else
                      {"before": before, "after": after}, t0=t0)


_SUITES = {"gegenbauer": _suite_gegenbauer, "branching": _suite_branching,
           "lambda": _suite_lambda, "kernels": _suite_kernels,
           "projection": _suite_projection}


def _verify_usage_error(args):
    """Why the suite's arguments are out of its domain, or None.

    Checked before any report is written; a domain error the library raises
    later is a fault, not a usage error, and ends in a traceback.
    """
    if args.suite == "gegenbauer":
        if args.max_deg < 2:
            return "max_deg must be >= 2, got %d" % args.max_deg
    elif args.n < 2:
        return "n must be >= 2, got %d" % args.n
    for name in ("imax", "kmax", "lmax"):
        if getattr(args, name) < 0:
            return "%s must be >= 0, got %d" % (name, getattr(args, name))
    if args.max_basis is not None and args.max_basis < 1:
        return "max_basis must be >= 1, got %d" % args.max_basis
    return None


def cmd_verify(args, out):
    bad = _verify_usage_error(args)
    if bad:
        sys.stderr.write("bad %s parameters: %s\n" % (args.suite, bad))
        return 2
    failed = 0
    for rep in _SUITES[args.suite](args):
        _emit(rep, out)
        if rep["status"] == "fail":
            failed += 1
            sys.stderr.write(json.dumps(rep, sort_keys=True) + "\n")
    return 1 if failed else 0


# domain errors of the lattice solver: usage errors, not failed checks
_LATTICE_DOMAIN = (sbolattice.BadDepth, sbolattice.BadLabel,
                   cliffspin.DimensionMismatch)


def cmd_multiplicity(args, out):
    try:
        lam0 = rat(args.lam)
        nu0 = rat(args.nu)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        sys.stderr.write("bad fraction: %s\n" % exc)
        return 2
    try:
        res = sbolattice.multiplicity(args.n, lam0, nu0, depth=args.depth)
    except _LATTICE_DOMAIN as exc:
        sys.stderr.write("bad lattice parameters: %s\n" % exc)
        return 2
    if args.sector == "plus":
        res = {k: v for k, v in res.items() if k != "dim_minus"}
    elif args.sector == "minus":
        res = {k: v for k, v in res.items() if k != "dim_plus"}
    _emit(dict(res, n=args.n, lam=str(lam0), nu=str(nu0), depth=args.depth), out)
    return 0


def _lattice_grid(n, imax, jmax, depth):
    rows = []
    for a in range(-1, imax + 1):
        for b in range(-1, jmax + 1):
            lam0, nu0 = sbolattice.lattice_point(n, a, b)
            res = sbolattice.multiplicity(n, lam0, nu0, depth=depth)
            rows.append({"n": n, "lam": str(lam0), "nu": str(nu0),
                         "sector_plus": res["dim_plus"],
                         "sector_minus": res["dim_minus"],
                         "total": res["total"],
                         "stabilized": res["stabilized"],
                         "on_lattice": res["on_lattice"], "depth": depth})
    return rows


def cmd_table(args, out):
    try:
        if min(args.imax, args.jmax) < 0:
            raise sbolattice.BadLabel("--imax and --jmax must be >= 0")
        if args.kind == "composition":
            rows = sbolattice.composition_table(args.n, args.imax, args.jmax,
                                                depth=args.depth)
            cols = ["n", "i", "j", "parity", "FF", "FT", "TF", "TT"]
        else:
            rows = _lattice_grid(args.n, args.imax, args.jmax, args.depth)
            cols = ["n", "lam", "nu", "sector_plus", "sector_minus", "total",
                    "stabilized", "on_lattice", "depth"]
    except _LATTICE_DOMAIN as exc:
        sys.stderr.write("bad lattice parameters: %s\n" % exc)
        return 2
    if args.format == "json":
        out.write(json.dumps(rows, sort_keys=True) + "\n")
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(cols)
        for row in rows:
            w.writerow([row[c] for c in cols])
    return 0


def cmd_kernel(args, out):
    kw = {}
    for name in ("k", "l", "i", "j"):
        v = getattr(args, name)
        if v is not None:
            kw[name] = v
    try:
        K = kernelcalc.make_family(args.family, args.n, **kw)
        if args.project:
            K = kernelcalc.project(K)
    except kernelcalc.BadParams as exc:
        sys.stderr.write("bad family parameters: %s\n" % exc)
        return 2
    if args.line and "constraint" in K.meta:
        K = kernelcalc._on_line(K, K.meta["constraint"])
    out.write(json.dumps(kernelcalc.to_json_dict(K), sort_keys=True) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line; subcommand parsers share the class."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, so later `main` calls reuse it."""
    p = _Parser(prog="sbolab",
                description="exact verification suites for "
                "spinor symmetry breaking kernels")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(_SUITES))
    v.add_argument("--n", type=int, default=4)
    v.add_argument("--max-deg", type=int, default=10)
    v.add_argument("--imax", type=int, default=2)
    v.add_argument("--kmax", type=int, default=3)
    v.add_argument("--lmax", type=int, default=3)
    v.add_argument("--max-basis", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    m = sub.add_parser("multiplicity", help="solution-space dimensions at a point")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--lam", required=True, help="rational lambda, e.g. -5/2")
    m.add_argument("--nu", required=True, help="rational nu")
    m.add_argument("--depth", type=int, default=12)
    m.add_argument("--sector", choices=["plus", "minus", "both"], default="both")
    m.set_defaults(fn=cmd_multiplicity)

    t = sub.add_parser("table", help="emit multiplicity tables")
    t.add_argument("kind", choices=["composition", "lattice"])
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--imax", type=int, default=2)
    t.add_argument("--jmax", type=int, default=2)
    t.add_argument("--depth", type=int, default=12)
    t.add_argument("--format", choices=["json", "csv"], default="csv")
    t.set_defaults(fn=cmd_table)

    k = sub.add_parser("kernel", help="print a kernel family normal form")
    k.add_argument("--family", required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--k", type=int, default=None)
    k.add_argument("--l", type=int, default=None)
    k.add_argument("--i", type=int, default=None)
    k.add_argument("--j", type=int, default=None)
    k.add_argument("--project", action="store_true")
    k.add_argument("--line", action="store_true",
                   help="restrict to the family's constraint line")
    k.set_defaults(fn=cmd_kernel)
    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rc = args.fn(args, out)
        out.flush()
    except BrokenPipeError:
        # the reader is gone (`sbolab ... | head -1`): what is still buffered
        # goes to devnull, so that the flush at exit raises nothing either
        try:
            fd = out.fileno()
        except (AttributeError, OSError, ValueError):
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    return rc


if __name__ == "__main__":
    sys.exit(main())
