import io
import json
from contextlib import redirect_stdout

import pytest

from cmgate import cli
from cmgate import ffield as ff
from cmgate.errors import InternalInvariant, ParseError, WrongVariables


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli("--format", "json", *argv)
    return code, json.loads(out)


F5 = ff.make_field(5, 1)


class TestParseCurve:
    def test_frobenius_monomial(self):
        poly = cli.parse_curve("X - Y^25", F5)
        assert poly.terms[(1, 0)].coeffs[0] == 1
        assert poly.terms[(0, 25)].coeffs[0] == 4

    def test_product(self):
        poly = cli.parse_curve("X*Y - 1", F5)
        assert set(poly.terms) == {(1, 1), (0, 0)}

    def test_parentheses_and_powers(self):
        poly = cli.parse_curve("(X + Y)^2 - 2*X*Y", F5)
        assert set(poly.terms) == {(2, 0), (0, 2)}

    def test_coefficients_reduced_mod_p(self):
        poly = cli.parse_curve("7*X - 12", F5)
        assert poly.terms[(1, 0)].coeffs[0] == 2
        assert poly.terms[(0, 0)].coeffs[0] == 3

    def test_wrong_variable(self):
        with pytest.raises(WrongVariables):
            cli.parse_curve("X - Z", F5)

    def test_ring_element_slot_rejects_curve_variables(self):
        with pytest.raises(WrongVariables):
            cli.parse_ring_element("X - 1", F5)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            cli.parse_curve("X + ", F5)
        assert err.value.position is not None

    def test_ring_element(self):
        poly = cli.parse_ring_element("t^5 - t", F5)
        assert poly.degree() == 5


class TestCommands:
    def test_kronecker(self):
        code, out = run_cli("kronecker", "-7", "5")
        assert code == 0 and out.strip() == "-1"

    def test_class_number(self):
        code, out = run_cli("class-number", "-23")
        assert code == 0 and out.strip() == "3"

    def test_hilbert_json(self):
        code, payload = run_json("hilbert", "--D", "-15", "--p", "61")
        assert code == 0
        assert payload["result"]["degree"] == 2
        assert payload["result"]["coeffs"] == [23, 34, 1]

    def test_endo_disc(self):
        code, payload = run_json("endo-disc", "--p", "5", "--j", "3")
        assert code == 0 and payload["result"]["D"] == -4

    def test_find_disc(self):
        code, out = run_cli("find-disc", "--ell", "5", "--p", "2", "--dmin", "1")
        assert code == 0 and out.strip() == "-7"

    def test_inert_check_pass(self):
        code, payload = run_json("inert-check", "--D", "-7", "--ell", "5", "--p", "11")
        assert code == 0 and payload["verdict"] == "pass"

    def test_inert_check_sharpness_fails(self):
        code, payload = run_json("inert-check", "--D", "-23", "--ell", "2", "--p", "59")
        assert code == 1 and payload["verdict"] == "fail"

    def test_volcano(self):
        code, payload = run_json("volcano", "--p", "5", "--j", "3", "--ell", "2")
        assert code == 0
        assert payload["result"] == {"level": 0, "depth": 1}

    def test_galois_threshold(self):
        code, payload = run_json("galois-threshold", "--ell", "3", "--p", "5",
                                 "--mmax", "4")
        assert code == 0
        assert payload["result"]["degrees"] == [2, 6, 18, 54]
        assert payload["result"]["threshold"] == 1

    def test_cyclotomic(self):
        code, payload = run_json("cyclotomic", "--n", "6", "--p", "5")
        assert code == 0 and payload["result"]["coeffs"] == [1, 4, 1]

    def test_curve_points(self):
        code, payload = run_json("curve-points", "--p", "5",
                                 "--curve", "X*Y - 1", "--k", "1")
        assert code == 0 and payload["result"]["count"] == 4

    def test_ao_gate_pass(self):
        code, payload = run_json("ao-gate", "--p", "5", "--curve", "X - Y^5",
                                 "--kmax", "2")
        assert code == 0
        assert payload["verdict"] == "pass"
        assert payload["result"]["conclusion"] == {"form": "X=Y^p^n", "n": 1}

    def test_ao_gate_fail_exit_code(self):
        code, payload = run_json("ao-gate", "--p", "5", "--curve", "X + Y - 1",
                                 "--kmax", "3", "--witness-limit", "1")
        assert code == 1
        assert payload["verdict"] == "fail"
        assert payload["witnesses"]

    def test_sentinel_report_exits_3(self, monkeypatch):
        # a report that flags the falsification sentinel exits 3 even though
        # its verdict is pass
        from cmgate import gates

        def flagged(curve, k_max, witness_limit=None):
            report = gates.GateReport("andre-oort-gate", {})
            report.sentinel = True
            return report

        monkeypatch.setattr(gates, "andre_oort_gate", flagged)
        code, payload = run_json("ao-gate", "--p", "5", "--curve", "X + Y - 1", "--kmax", "1")
        assert code == cli.EXIT_SENTINEL
        assert payload["verdict"] == "pass" and payload["result"]["sentinel"] is True

    def test_subgroup_detect(self):
        code, payload = run_json("subgroup-detect", "--p", "5",
                                 "--curve", "X^2 - 2*Y")
        assert code == 0
        form = payload["result"]["form"]
        assert (form["a"], form["b"]) == (2, -1)

    def test_support_modular(self):
        code, payload = run_json("support-modular", "--p", "5", "--A", "t",
                                 "--B", "t^5", "--dmax", "30")
        assert code == 0
        assert payload["result"]["conclusion"] == {"form": "B=A^p^n", "n": 1}

    def test_support_mult(self):
        code, payload = run_json("support-mult", "--p", "5", "--A", "t",
                                 "--B", "t^2", "--nmax", "6")
        assert code == 0
        assert payload["result"]["conclusion"] == {"k": 2, "m": 0}

    def test_support_cyclo_failure_path(self):
        code, payload = run_json("support-cyclo", "--p", "5", "--A", "t",
                                 "--B", "t^2", "--nmax", "8")
        assert code == 1
        assert any(w["n"] == 8 for w in payload["witnesses"])

    def test_construct_points(self):
        code, payload = run_json("construct-points", "--p", "5",
                                 "--curve", "X*Y - 1", "--nmax", "1",
                                 "--count", "2")
        assert code == 0
        assert len(payload["result"]["witnesses"]) == 2

    def test_isogeny_path(self):
        code, payload = run_json("isogeny-path", "--p", "61", "--j1", "32",
                                 "--j2", "56", "--levels", "2")
        assert code == 0 and payload["result"]["found"]

    def test_neighbors(self):
        code, payload = run_json("neighbors", "--p", "13", "--j", "5", "--ell", "2")
        assert code == 0
        total = sum(n["multiplicity"] for n in payload["result"]["neighbors"])
        assert total == 3

    def test_neighbors_beyond_the_size_bound(self):
        # one cubic factor of Phi_3(j, T) has its roots in F_{257^6}: the
        # rational neighbour is still listed, the factor is named, and the
        # verdict is inconclusive rather than a size error
        argv = ("neighbors", "--p", "257", "--k", "2", "--j", "12345", "--ell", "3")
        code, payload = run_json(*argv)
        assert code == cli.EXIT_PASS and payload["verdict"] == "inconclusive"
        assert payload["result"] == {
            "neighbors": [{"j": {"deg": 2, "enc": 60805}, "multiplicity": 1}],
            "beyond_size_bound": [
                {"factor_degree": 3, "root_field_degree": 6, "multiplicity": 1}],
        }
        code, out = run_cli(*argv)
        assert out.splitlines() == [
            "deg 2 enc 60805 (x1)",
            "factor of degree 3 (x1): roots in F_257^6, beyond the size bound",
        ]

    def test_usage_error_exit_code(self):
        code, _ = run_cli("ao-gate", "--p", "5")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("ao-gate", "--p", "5", "--curve", "X + Y - 1", "--kmax", "0"),
        ("ao-gate", "--p", "5", "--curve", "X + Y - 1", "--kmax", "-2"),
        ("mult-gate", "--p", "5", "--curve", "X + Y - 1", "--kmax", "0"),
        ("support-modular", "--p", "5", "--A", "t", "--B", "t^5", "--dmax", "2"),
        ("support-mult", "--p", "5", "--A", "t", "--B", "t^2", "--nmax", "0"),
        ("construct-points", "--p", "5", "--curve", "X*Y - 1", "--count", "0"),
        ("support-mult", "--p", "5", "--A", "t", "--B", "t+1", "--nmax", "3", "--n0", "5"),
        ("support-cyclo", "--p", "5", "--A", "t", "--B", "t^5", "--nmax", "3", "--n0", "3"),
    ])
    def test_empty_sweep_is_a_usage_error(self, argv, capsys):
        # an empty sweep is no falsification candidate (ao-gate exited 3) and
        # no vacuous pass either
        code, out = run_cli(*argv)
        assert code == cli.EXIT_USAGE and out == ""
        assert "leaves nothing to sweep" in capsys.readouterr().err

    def test_unknown_criterion_is_a_usage_error(self, capsys):
        code, out = run_cli("selftest", "--criteria", "2,13")
        assert code == cli.EXIT_USAGE and out == ""
        assert capsys.readouterr().err == "error: no criterion [13]: the criteria are 1-12\n"

    @pytest.mark.parametrize("exc", [
        AssertionError("re-verification failed"),
        InternalInvariant("broken invariant"),
        KeyError(13),
        ZeroDivisionError("integer division or modulo by zero"),
    ])
    def test_internal_errors_exit_sentinel(self, monkeypatch, capsys, exc):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_kronecker", broken)
        code, out = run_cli("kronecker", "-7", "5")
        assert code == cli.EXIT_SENTINEL and out == ""
        assert "internal sentinel" in capsys.readouterr().err

    def test_json_error_document(self, capsys):
        # 7 is inert for -15: a usage error, which JSON mode also reports
        # as a document in the fixed schema
        code, payload = run_json("hilbert", "--D", "-15", "--p", "7")
        assert code == cli.EXIT_USAGE
        assert payload["command"] == "hilbert" and payload["verdict"] == "error"
        assert payload["config"]["D"] == -15 and payload["config"]["p"] == 7
        assert payload["result"] == {
            "error": "PInert", "message": "7 is not split for discriminant -15"}
        assert capsys.readouterr().err == (
            "error: PInert: 7 is not split for discriminant -15\n")
        code, out = run_cli("hilbert", "--D", "-15", "--p", "7")
        assert code == cli.EXIT_USAGE and out == ""

    def test_failed_reverification_exits_sentinel_under_O(self):
        # python -O strips assert statements; a gate's witness
        # re-verification must still run there, and its failure exits 3
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        script = (
            "import sys\n"
            "from cmgate import cli, polyring\n"
            "assert False, 'not running under -O'\n"
            "polyring.eval_bi = lambda f, x, y: x.ctx.one()  # no point is on the curve\n"
            "sys.exit(cli.run(['ao-gate', '--p', '5', '--curve', 'X + Y - 1', '--kmax', '4']))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, env=env)
        assert proc.returncode == 3, proc.stderr
        assert b"InternalInvariant: witness: point off the curve" in proc.stderr

    def test_unknown_variable_is_usage_error(self):
        code, _ = run_cli("ao-gate", "--p", "5", "--curve", "X - W", "--kmax", "2")
        assert code == 2

    def test_selftest_single_criterion(self):
        code, payload = run_json("selftest", "--criteria", "11")
        assert code == 0
        assert payload["result"]["criteria"][0]["passed"]


class TestClosedStdout:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_141_silently(self, fmt, unbuffered):
        # a reader that closed the pipe early (`| head`, `| true`) is not a
        # gate failure: exit 128 + SIGPIPE, with nothing on stderr, whether
        # the write fails in the command's print or in the final flush
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cmgate.cli", "--format", fmt, "kronecker", "-7", "5"],
                stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestOneWriter:
    def test_only_run_and_fail_write_output(self):
        # the commands compute; run() alone writes their output (and _fail
        # the error document), so the exit-code contract lives in one place
        import ast
        import pathlib

        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        writers = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                            and call.func.id in ("_emit", "print"):
                        writers.setdefault(call.func.id, set()).add(node.name)
        assert not any(name.startswith("_cmd_") for names in writers.values() for name in names)
        assert writers["_emit"] == {"run", "_fail"}


class TestStartup:
    def test_hilbert_loads_neither_gates_nor_ordertools(self):
        # a fresh process compiles every module it imports; the commands
        # below the gates should not pay for the gates
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from cmgate import cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['hilbert', '--D', '-7', '--p', '11']) == 0\n"
            "print(sorted({'cmgate.gates', 'cmgate.ordertools'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_no_process_loads_hashlib(self):
        # hashlib loads OpenSSL, a few MB of every process's peak RSS; the
        # seeded streams hash through `random`'s own sha512 instead
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "import cmgate.cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert cmgate.cli.run(['hilbert', '--D', '-40', '--p', '103']) == 0\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestBenchmarkChild:
    def test_traced_benchmark_child_runs_hilbert(self):
        # perfbench/child.py --trace wraps classpoly names before it runs a
        # command; a name it wraps that cmgate lacks fails every traced run
        import os
        import subprocess
        import sys

        from cmgate import classpoly

        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "child.py"), "cli", "--trace",
             "--", "--format", "json", "hilbert", "--D", "-40", "--p", "103"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        expected = [c % 103 for c in classpoly.reference_table()[-40]]
        assert json.loads(proc.stdout)["result"]["coeffs"] == expected
        mark = "PERFBENCH-TRACE "
        traces = [line for line in proc.stderr.splitlines() if line.startswith(mark)]
        assert len(traces) == 1, proc.stderr
        assert json.loads(traces[0][len(mark):])["classpoly.hilbert"] == 1


class TestDeterminism:
    def test_byte_identical_json(self):
        argv = ("ao-gate", "--p", "5", "--curve", "X - Y^5", "--kmax", "2")
        _, first = run_cli("--format", "json", *argv)
        _, second = run_cli("--format", "json", *argv)
        assert first == second

    def test_cross_process_byte_identity(self):
        # fresh interpreters with different hash seeds must agree byte for
        # byte, which rules out hash-iteration-order leaks into the output
        import os
        import subprocess
        import sys

        argv = [sys.executable, "-m", "cmgate.cli", "--format", "json",
                "support-mult", "--p", "5", "--A", "t", "--B", "t^2",
                "--nmax", "5"]
        outputs = []
        for hashseed in ("1", "99"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(argv, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_seeded_streams_ignore_the_hash_seed(self):
        # crc_rng must draw the same numbers in every process, whatever its
        # PYTHONHASHSEED
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        script = (
            "from cmgate._numutil import crc_rng\n"
            "rng = crc_rng('bsgs', 257, 2, (3, 'x'))\n"
            "print([rng.randrange(1 << 30) for _ in range(8)])\n"
        )
        outputs = []
        for hashseed in ("1", "99"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  env=env, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_json_top_level_schema(self):
        _, payload = run_json("kronecker", "-7", "5")
        assert set(payload) == {
            "command", "config", "verdict", "witnesses", "exceptions",
            "bounds", "timings", "result",
        }
