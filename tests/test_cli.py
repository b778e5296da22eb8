import contextlib
import fcntl
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from sbolab import cli, kernelcalc
from sbolab.paramfield import ParamScalar

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run(argv):
    out = io.StringIO()
    rc = cli.main(argv, out=out)
    return rc, out.getvalue()


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


class TestGolden:
    @pytest.mark.parametrize("name,argv", [
        ("composition_n4.csv",
         ["table", "composition", "--n", "4", "--imax", "2", "--jmax", "2",
          "--depth", "9"]),
        ("lattice_n4.csv",
         ["table", "lattice", "--n", "4", "--imax", "2", "--jmax", "2",
          "--depth", "9"]),
        ("composition_n5.json",
         ["table", "composition", "--n", "5", "--imax", "1", "--jmax", "1",
          "--depth", "9", "--format", "json"]),
        ("kernel_sct_minus_n3_l1.json",
         ["kernel", "--family", "sCt-", "--n", "3", "--l", "1"]),
        ("kernel_bt_plus_n4_k1_line.json",
         ["kernel", "--family", "Bt+", "--n", "4", "--k", "1", "--line"]),
        ("multiplicity_n4_special.json",
         ["multiplicity", "--n", "4", "--lam=-5/2", "--nu=-2", "--depth", "10"]),
    ])
    def test_byte_exact(self, name, argv):
        rc, text = run(argv)
        assert rc == 0
        assert text == golden(name)


class TestVerify:
    def test_gegenbauer_pass(self):
        rc, text = run(["verify", "gegenbauer", "--max-deg", "5"])
        assert rc == 0
        rep = json.loads(text.strip())
        assert rep["status"] == "pass" and rep["check"] == "gegenbauer"

    def test_projection_suite(self):
        rc, text = run(["verify", "projection", "--n", "4", "--kmax", "1",
                        "--lmax", "1"])
        assert rc == 0
        lines = [json.loads(l) for l in text.splitlines()]
        assert all(r["status"] == "pass" for r in lines)
        assert any(r["check"] == "projection:independence" for r in lines)

    def test_kernels_suite_small(self):
        rc, text = run(["verify", "kernels", "--n", "3", "--kmax", "0",
                        "--lmax", "0"])
        assert rc == 0
        for line in text.splitlines():
            assert json.loads(line)["status"] == "pass"

    @pytest.mark.parametrize("suite,n,imax,count", [
        ("branching", 3, 2, 12), ("lambda", 3, 1, 28), ("lambda", 4, 1, 28)])
    def test_suite_at_each_parity(self, suite, n, imax, count):
        # branching: n = 2, 3 and 0 <= j <= i <= 2; lambda: the odd-n labels
        # at n = 3 and the even-n labels at n = 4
        rc, text = run(["verify", suite, "--n", str(n), "--imax", str(imax)])
        reports = [json.loads(l) for l in text.splitlines()]
        assert rc == 0
        assert [r["status"] for r in reports] == ["pass"] * count
        assert {r["check"] for r in reports} == {suite}

    def test_failing_suite_exits_one(self, monkeypatch):
        def fake(args):
            yield {"check": "fake", "params": {}, "status": "fail",
                   "witness": "boom", "runtime_ms": 0}
        monkeypatch.setitem(cli._SUITES, "gegenbauer", fake)
        rc, text = run(["verify", "gegenbauer"])
        assert rc == 1
        assert json.loads(text.strip())["witness"] == "boom"

    def test_failing_kernel_identity_reports(self, monkeypatch):
        # a right side with another Gamma content used to end the suite in a
        # ValueError from lhs - rhs
        entry = kernelcalc._IDENTITIES["b_translation"]
        monkeypatch.setitem(kernelcalc._IDENTITIES, "b_translation", entry[:3] + (
            lambda n, k: kernelcalc.make_family("Bt-", n, k=k).scale(
                ParamScalar.gamma_factor(1, 0, "1/3")),))
        rc, text = run(["verify", "kernels", "--n", "3", "--kmax", "1",
                        "--lmax", "1"])
        reports = [json.loads(l) for l in text.splitlines()]
        assert rc == 1
        failed = [r for r in reports if r["status"] != "pass"]
        assert [(r["check"], r["params"]) for r in failed] == \
            [("kernel:b_translation", {"k": k, "n": 3}) for k in (0, 1)]
        assert all(set(r["witness"]) == {"lhs", "rhs"} for r in failed)

    def test_late_domain_error_is_a_fault(self, monkeypatch):
        # a domain error raised after the arguments passed their check is a
        # fault of the library, not a usage error
        def fake(args):
            yield {"check": "fake", "params": {}, "status": "pass",
                   "runtime_ms": 0}
            raise kernelcalc.BadParams("internal")
        monkeypatch.setitem(cli._SUITES, "kernels", fake)
        with pytest.raises(kernelcalc.BadParams):
            run(["verify", "kernels", "--n", "4"])


class TestMultiplicitySector:
    ARGV = ["multiplicity", "--n", "4", "--lam=-5/2", "--nu=-2", "--depth", "10"]

    def test_one_sector_each(self):
        both = json.loads(run(self.ARGV)[1])
        for sector, shown, hidden in (("plus", "dim_plus", "dim_minus"),
                                      ("minus", "dim_minus", "dim_plus")):
            rc, text = run(self.ARGV + ["--sector", sector])
            rep = json.loads(text)
            assert rc == 0 and hidden not in rep
            assert rep == {k: v for k, v in both.items() if k != hidden}, sector
            assert rep[shown] == both[shown] and rep["total"] == both["total"] == 3


class TestUsageErrors:
    def test_bad_fraction(self):
        rc, _ = run(["multiplicity", "--n", "4", "--lam=oops", "--nu=0"])
        assert rc == 2

    def test_unknown_suite(self):
        rc, _ = run(["verify", "nonsense"])
        assert rc == 2

    def test_bad_family(self):
        rc, _ = run(["kernel", "--family", "Zz", "--n", "4"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["multiplicity", "--n", "-3", "--lam=-5/2", "--nu=-2", "--depth", "4"],
        ["multiplicity", "--n", "4", "--lam=-5/2", "--nu=-2", "--depth", "1"],
        ["table", "composition", "--n", "4", "--imax", "3", "--depth", "4"],
        ["table", "lattice", "--n", "1", "--imax", "0", "--jmax", "0",
         "--depth", "4"],
        ["kernel", "--family", "sBt+", "--n", "1", "--k", "0"],
        ["kernel", "--family", "Bt+", "--n", "0", "--k", "0"],
        ["kernel", "--family", "Bt+", "--n", "4", "--k", "1", "--project"],
        ["verify", "kernels", "--n", "1", "--kmax", "0", "--lmax", "0"],
        ["verify", "lambda", "--n", "1", "--imax", "0"],
        ["verify", "projection", "--n", "1"],
        ["verify", "branching", "--n", "1", "--imax", "0"],
        ["verify", "gegenbauer", "--max-deg", "1"],
        ["table", "composition", "--n", "4", "--imax=-1", "--jmax=-1",
         "--depth", "8"],
        ["table", "lattice", "--n", "4", "--imax", "0", "--jmax=-1",
         "--depth", "8"],
        ["verify", "lambda", "--n", "4", "--imax=-1"],
        ["verify", "branching", "--n", "3", "--imax=-2"],
        ["verify", "kernels", "--n", "4", "--kmax=-1", "--lmax=-1"],
        ["verify", "kernels", "--n", "4", "--kmax", "0", "--lmax=-1"],
        ["verify", "projection", "--n", "4", "--kmax=-1"],
        ["verify", "lambda", "--n", "4", "--imax", "0", "--max-basis=-1"],
        ["verify", "lambda", "--n", "4", "--imax", "0", "--max-basis", "0"],
    ])
    def test_lattice_domain_errors(self, argv, capsys):
        # domain errors of every subcommand, not only the lattice ones
        rc, text = run(argv)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert "Traceback" not in err


class TestClosedPipe:
    """A reader that goes away early ends the run with 141 (128 + SIGPIPE),
    quietly: never exit 1, which means a failed check."""

    def test_write_raises(self, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")
        assert cli.main(["verify", "gegenbauer", "--max-deg", "2"],
                        out=Closed()) == 141
        assert capsys.readouterr().err == ""

    def test_pipe_closed_after_first_line(self):
        read_fd, write_fd = os.pipe()
        # a one-page pipe: the report (about 9.7 kB) cannot fit, so the
        # writer is still blocked on it when the reader closes its end
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sbolab.cli", "verify", "lambda", "--n", "3",
             "--imax", "2"], stdout=write_fd, stderr=subprocess.PIPE, env=env)
        os.close(write_fd)
        line = b""
        while not line.endswith(b"\n"):
            byte = os.read(read_fd, 1)
            if not byte:
                break
            line += byte
        os.close(read_fd)
        _, err = proc.communicate(timeout=120)
        assert json.loads(line)["check"] == "lambda"
        assert proc.returncode == 141
        assert err == b""


class TestEdgeCases:
    def test_residue_family_via_cli(self):
        rc, text = run(["kernel", "--family", "Att+", "--n", "3", "--i", "2",
                        "--j", "0"])
        assert rc == 0
        rows = json.loads(text)
        assert all(t["variant"] == "boundary" for t in rows["terms"])

    def test_point_kernel_in_many_dimensions(self):
        # Delta'^0 over 1999 coordinates: one multi-index, built without
        # a recursion as deep as n
        rc, text = run(["kernel", "--family", "Ct+", "--n", "2000", "--l", "0"])
        assert rc == 0
        terms = json.loads(text)["terms"]
        assert len(terms) == 1 and terms[0]["variant"] == "point"
        assert terms[0]["multi"] == [0] * 2000


# runs each argv of the JSON list argv[1] through cli.main in this process;
# prints [exit code, output, standard error] per argv as one JSON list
_CALLS = """
import contextlib, io, json, sys
from sbolab import cli
done = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv, out=out)
    done.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(done))
"""


def _in_one_process(argvs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _CALLS, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestParserReuse:
    """One parser serves every `main` call of a process."""

    ARGVS = [
        ["multiplicity", "--n", "4", "--lam=-5/2", "--nu=-2", "--depth", "6"],
        ["multiplicity", "--n", "4", "--lam=-5/2"],  # no --nu: usage error
        ["table", "composition", "--n", "4", "--imax", "1", "--jmax", "1",
         "--depth", "6"],
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_call_as_in_a_fresh_process(self):
        first = [_in_one_process([argv])[0] for argv in self.ARGVS]
        together = _in_one_process(self.ARGVS + self.ARGVS[:1])
        assert together == first + first[:1]
        rc, out, err = together[1]
        assert rc == 2 and out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert together[0][0] == together[2][0] == 0

class TestDeterminism:
    def test_identical_runs_identical_bytes(self):
        argv = ["table", "composition", "--n", "4", "--imax", "1", "--jmax", "1",
                "--depth", "8", "--format", "json"]
        assert run(argv) == run(argv)

    def test_json_roundtrip(self):
        rc, text = run(["table", "lattice", "--n", "4", "--imax", "1",
                        "--jmax", "1", "--depth", "8", "--format", "json"])
        assert rc == 0
        rows = json.loads(text)
        assert rows == json.loads(json.dumps(rows))
        for row in rows:
            want = 3 if row["on_lattice"] else 2
            assert row["total"] == want


# -- exit contract under junk and out-of-domain argv ----------------------------

_INTS = ["-2", "-1", "0", "1", "2", "3", "x", "", "1/2"]
_SMALL = ["-1", "0", "1", "x"]
_FRACS = ["-5/2", "-2", "0", "1/3", "x", "1/0", "", "nan"]
# subcommand -> (positional choices, {flag: values}); None is a bare flag.
# n and the family indices stay <= 3 and the loop bounds <= 1, so that
# every valid argv is cheap
_ARGV = {
    "verify": (["gegenbauer", "branching", "lambda", "kernels", "projection",
                "bogus"],
               {"--n": _INTS, "--max-deg": _INTS, "--imax": _SMALL,
                "--kmax": _SMALL, "--lmax": _SMALL, "--max-basis": _INTS}),
    "multiplicity": ([], {"--n": _INTS, "--lam": _FRACS, "--nu": _FRACS,
                          "--depth": _INTS,
                          "--sector": ["plus", "minus", "both", "up"]}),
    "table": (["composition", "lattice", "grid"],
              {"--n": _INTS, "--imax": _SMALL, "--jmax": _SMALL,
               "--depth": _INTS, "--format": ["json", "csv", "xml"]}),
    "kernel": ([], {"--family": ["A+", "sAt-", "Bt+", "sBt-", "Ct-", "sCt+",
                                 "Att+", "sAtt-", "Zz", ""],
                    "--n": _INTS, "--k": _INTS, "--l": _INTS, "--i": _INTS,
                    "--j": _INTS, "--project": [None], "--line": [None]}),
}
# flags whose defaults make a run slow are always given
_ALWAYS = {"--max-deg", "--imax", "--jmax", "--kmax", "--lmax", "--depth"}


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(_ARGV) + ["bogus"]))
    positionals, flags = _ARGV.get(cmd, ([], {}))
    argv = [cmd] + ([draw(st.sampled_from(positionals))] if positionals else [])
    for flag, values in flags.items():
        if flag in _ALWAYS or draw(st.booleans()):
            v = draw(st.sampled_from(values))
            argv.append(flag if v is None else "%s=%s" % (flag, v))
    return argv + draw(st.sampled_from([[], ["--bogus"], ["extra"], ["--n"],
                                        ["-h"]]))


# residue indices outside 0 <= j <= i: once a ValueError traceback and a
# kernel printed with exit 0
_OFF_LATTICE = [["kernel", "--family", "Att+", "--n", "3", "--i=-2", "--j=-2"],
                ["kernel", "--family", "sAtt-", "--n", "3", "--i=-1", "--j=-2"]]
# an index the family does not take: once ignored, with a kernel and exit 0
_FOREIGN_INDEX = [["kernel", "--family", "A+", "--n", "3", "--k", "2"]]


@given(argvs())
@example(_OFF_LATTICE[0])
@example(_OFF_LATTICE[1])
@example(_FOREIGN_INDEX[0])
@settings(max_examples=150, deadline=None)
def test_exit_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv, out=io.StringIO())
    err = err.getvalue()
    assert rc in (0, 1, 2)
    if argv in _OFF_LATTICE + _FOREIGN_INDEX:
        assert rc == 2
    assert "Traceback" not in err
    if rc == 2:
        assert err.endswith("\n") and err.count("\n") == 1, err
