"""Tests for the command-line surface: config handling, dimension
reports, verification suites and exit codes, artifact dumps, and the
symbolic straightening trace."""

import contextlib
import errno
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from blobcell import blob as B
from blobcell import cli
from blobcell import exactfield as xf
from blobcell import hecke as H
from conftest import changed_inverse, held_inverse, mixed_split


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_config_file_round_trip(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# scale\nn = 3\nl = 2\noracle = off\nkappa-hat = 0, 7\n")
        args = cli.build_parser().parse_args(
            ["dims", "--config", str(cfgfile)])
        cfg = cli.config_from_args(args)
        assert (cfg.n, cfg.l) == (3, 2)
        assert cfg.kappa_hat == (0, 7)
        assert cfg.oracle is False

    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=2\nl=2\n")
        args = cli.build_parser().parse_args(
            ["dims", "--config", str(cfgfile), "--n", "3"])
        assert cli.config_from_args(args).n == 3

    def test_missing_scale_rejected(self):
        args = cli.build_parser().parse_args(["dims", "--l", "2"])
        with pytest.raises(ValueError):
            cli.config_from_args(args)

    def test_bad_suite_rejected(self):
        args = cli.build_parser().parse_args(
            ["verify", "--n", "2", "--l", "2", "--suite", "all"])
        cfg = cli.config_from_args(args)
        assert cfg.suite == "all"
        args.suite = "bogus"
        with pytest.raises(ValueError):
            cli.config_from_args(args)


class TestRejectedInput:
    @pytest.mark.parametrize("argv,message", [
        (["dims", "--n", "2", "--l", "2", "--p", "13"], "order 5"),
        (["trace", "--n", "2", "--l", "2"], "outside 1..n = 1..2"),
        (["trace", "--n", "2", "--l", "2", "--k", "0"], "outside 1..n = 1..2"),
        (["verify", "--n", "0", "--l", "2"], "at least one string"),
        (["basis", "--n", "0", "--l", "2"], "at least one string"),
        (["cell", "--n", "0", "--l", "2"], "at least one string"),
        (["trace", "--n", "0", "--l", "2", "--k", "1"], "at least one string"),
        (["verify", "--n", "-1", "--l", "2"], "at least one string"),
        (["cell", "--n", "2", "--l", "2", "--out", "r.csv"],
         "only basis writes a CSV matrix"),
        (["dims", "--n", "2", "--l", "2", "--out", "r.csv"],
         "only basis writes a CSV matrix"),
        (["verify", "--n", "2", "--l", "2", "--out", "r.csv"],
         "only basis writes a CSV matrix"),
        (["trace", "--n", "2", "--l", "2", "--k", "1", "--out", "r.csv"],
         "only basis writes a CSV matrix"),
        (["verify", "--n", "2", "--l", "1", "--e", "2", "--p", "3",
          "--kappa-hat", "0"], "multicharge condition iii)"),
        (["dims", "--n", "2", "--l", "2", "--theta", "0,0,0"],
         "weighting length differs from the level"),
        (["trace", "--n", "2", "--l", "2", "--k", "1", "--theta", "0,0,0"],
         "weighting length differs from the level"),
        (["dims", "--n", "0", "--l", "0"],
         "l = 0: need at least one component"),
        (["verify", "--n", "2", "--l", "0", "--e", "5", "--p", "11",
          "--kappa-hat="], "l = 0: need at least one component"),
        (["dims", "--n", "2", "--l", "-1"],
         "l = -1: need at least one component"),
        (["basis", "--n", "2", "--l", "-1"],
         "l = -1: need at least one component"),
        (["cell", "--n", "2", "--l", "0"],
         "l = 0: need at least one component"),
        (["trace", "--n", "2", "--l", "-1", "--k", "1"],
         "l = -1: need at least one component"),
        (["verify", "--n", "2", "--l", "2", "--e", "0"], "e = 0: "),
        (["verify", "--n", "2", "--l", "2", "--e", "0", "--p", "11", "--q",
          "1", "--kappa-hat", "0,5"], "e = 0: "),
        (["verify", "--n", "2", "--l", "2", "--e", "-5", "--p", "11", "--q",
          "3", "--kappa-hat", "0,5"], "e = -5: "),
        (["dims", "--n", "2", "--l", "2", "--theta", "a,b"],
         "theta = 'a,b': expected integers"),
        (["dims", "--n", "2", "--l", "2", "--kappa-hat", "0,x"],
         "kappa_hat = '0,x': expected integers"),
    ])
    def test_exits_two_with_message(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and not out
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["verify", "basis", "cell"])
    def test_negative_multicharge_before_rewriting(self, command, capsys,
                                                   monkeypatch):
        # Q_1 = t^-10 is no polynomial: refused with hat_kappa named,
        # before any key of H is rewritten
        def unexpected(params):
            raise AssertionError("normal form built")
        monkeypatch.setattr(H, "generic_normal_form", unexpected)
        code, out, err = run([command, "--n", "2", "--l", "2",
                              "--kappa-hat=-10,2"], capsys)
        assert code == 2 and not out
        assert err == ("error: hat_kappa = [-10, 2]: the regular "
                       "representation needs each Q_j = t^hat_kappa_j to be "
                       "a polynomial\n")

    @pytest.mark.parametrize("argv", [
        ["dims"], ["trace", "--k", "1", "--oracle", "off"],
        ["verify", "--suite", "rewrite", "--oracle", "off"]])
    def test_negative_multicharge_without_h(self, argv, capsys):
        # the commands that build no regular representation still run
        code, out, err = run(argv + ["--n", "2", "--l", "2",
                                     "--kappa-hat=-10,2"], capsys)
        assert code == 0 and not err
        assert json.loads(out)["kappa_hat"] == [-10, 2]


    def test_unknown_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=2\nl=2\nfoo=1\n")
        code, out, err = run(["dims", "--config", str(cfgfile)], capsys)
        assert code == 2 and not out
        assert err.startswith("error: unknown config key foo")
        assert "known keys: n, l, e, p, q" in err

    @pytest.mark.parametrize("text,message", [
        ("n=2\nl=2\noracle = of\n", "oracle = 'of': choose one of on, "),
        ("n=2\nl=2\noracle\n", "line 3: 'oracle' is not key = value"),
        ("# scale\nn 2\nl=2\n", "line 2: 'n 2' is not key = value"),
        ("n = x\nl=2\n", "n = 'x': expected an integer"),
        ("n=2\nl=2\ntheta = 0;1\n", "theta = '0;1': expected integers")])
    def test_malformed_config_line(self, tmp_path, capsys, text, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        code, out, err = run(["verify", "--config", str(cfgfile)], capsys)
        assert code == 2 and not out
        assert err.startswith("error: ") and message in err

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        code, out, err = run(["verify", "--config", str(path)], capsys)
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read config file {path}")

    @pytest.mark.parametrize("argv,name", [
        (["verify", "--n", "2", "--l", "2"], "r.json"),
        (["basis", "--n", "2", "--l", "2"], "m.csv"),
        (["verify", "--n", "2", "--l", "2"], "")])
    def test_unwritable_out(self, tmp_path, monkeypatch, capsys, argv, name):
        # a path in a missing directory, or (no name) a directory itself,
        # is rejected before the algebra is built
        def unexpected(params):
            raise AssertionError("build_blob called")
        monkeypatch.setattr(B, "build_blob", unexpected)
        path = tmp_path / "absent" / name if name else tmp_path
        reason = "No such file or directory" if name else "Is a directory"
        code, out, err = run(argv + ["--out", str(path)], capsys)
        assert code == 2 and not out
        assert err == f"error: cannot write {path}: {reason}\n"

    def test_broken_pipe_names_standard_output(self, capsys):
        # a reader that exits early (dims | head -1) breaks the pipe; the
        # failed write is to standard output, which has no file name
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        with contextlib.redirect_stdout(ClosedPipe()):
            code = cli.main(["dims", "--n", "2", "--l", "2"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: cannot write standard output: Broken pipe\n"

    def test_negative_strings_in_dims(self, capsys):
        code, out, err = run(["dims", "--n", "-1", "--l", "2"], capsys)
        assert code == 2 and not out
        assert err == "error: n = -1: need at least one string\n"


class TestDims:
    def test_three_strings_level_two(self, capsys):
        code, out, _ = run(["dims", "--n", "3", "--l", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dim_H"] == 48
        assert report["dim_B"] == 20
        assert report["num_shapes"] == 4

    def test_zero_strings(self, capsys):
        code, out, _ = run(["dims", "--n", "0", "--l", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dim_H"] == 1 and report["dim_B"] == 1

    def test_level_three(self, capsys):
        _, out, _ = run(["dims", "--n", "3", "--l", "3"], capsys)
        assert json.loads(out)["dim_B"] == 93

    def test_thirty_strings_without_listing_tableaux(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(["dims", "--n", "30", "--l", "2"], capsys)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert json.loads(out)["dim_B"] == math.comb(60, 30) == \
            118264581564861424

    def test_deterministic_modulo_timestamp(self, capsys):
        _, out1, _ = run(["dims", "--n", "2", "--l", "2"], capsys)
        _, out2, _ = run(["dims", "--n", "2", "--l", "2"], capsys)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b


class TestVerify:
    def test_all_suites_pass_at_two_strings(self, capsys):
        code, out, _ = run(["verify", "--n", "2", "--l", "2", "--e", "5",
                            "--p", "11", "--kappa-hat", "0,2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert set(report["suites"]) == {"hecke", "klr", "cellular", "jm",
                                         "rewrite"}
        assert all(s["passed"] and not s["failures"]
                   for s in report["suites"].values())

    def test_adjacent_multicharge_rejected(self, capsys):
        code, _, err = run(["verify", "--n", "2", "--l", "2", "--e", "5",
                            "--p", "11", "--kappa-hat", "0,11"], capsys)
        assert code == 2
        assert "condition ii)" in err

    def test_rewrite_suite_with_oracle(self, capsys):
        code, out, _ = run(["verify", "--n", "3", "--l", "2", "--suite",
                            "rewrite", "--oracle", "on"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["suites"]["rewrite"]["passed"]

    def test_one_build_per_run(self, monkeypatch, capsys):
        calls = {"build_blob": 0, "KLRImages": 0, "build_cellular_basis": 0}

        def counted(name):
            original = getattr(B, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(B, name, wrapper)

        counted("build_blob")
        counted("KLRImages")
        counted("build_cellular_basis")
        code, _, _ = run(["verify", "--n", "2", "--l", "2"], capsys)
        assert code == 0
        assert calls == {"build_blob": 1, "KLRImages": 1,
                         "build_cellular_basis": 1}

    def test_basis_failure_is_reported(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise ValueError("injected")
        monkeypatch.setattr(B, "build_cellular_basis", failing)
        code, out, _ = run(["verify", "--n", "2", "--l", "2"], capsys)
        assert code == 1
        suites = json.loads(out)["suites"]
        for name in ("hecke", "klr", "rewrite"):
            assert suites[name]["passed"], name
        for name in ("cellular", "jm"):
            assert suites[name]["failures"] == [
                "cellular basis construction failed: injected"], name

    def test_programming_error_is_not_a_failed_certificate(self,
                                                            monkeypatch):
        # only the certificates' ValueError becomes a suite failure
        def broken(*args, **kwargs):
            raise TypeError("injected")
        monkeypatch.setattr(B, "build_cellular_basis", broken)
        with pytest.raises(TypeError, match="injected"):
            cli.main(["verify", "--n", "2", "--l", "2"])

    def test_large_prime_without_overflow(self, capsys):
        # at p = 100151 an unreduced chain of products passes 2^63
        args = ["--n", "2", "--l", "2", "--p", "100151", "--q", "47062"]
        code, out, _ = run(["verify"] + args, capsys)
        assert code == 0
        assert all(s["passed"] for s in json.loads(out)["suites"].values())
        code, out, _ = run(["basis"] + args, capsys)
        assert code == 0 and len(json.loads(out)["vectors"]) == 6

    def test_largest_admitted_prime_at_three_strings(self, capsys):
        # the largest prime p = 1 mod 5 that the product bound admits at
        # dim H = 48
        code, out, _ = run(["verify", "--n", "3", "--l", "2", "--p",
                            "438353261", "--q", "166042506"], capsys)
        assert code == 0
        assert all(s["passed"] for s in json.loads(out)["suites"].values())

    def test_prime_beyond_bound_rejected(self, capsys):
        code, out, err = run(["verify", "--n", "2", "--l", "2", "--p",
                              "2147483951"], capsys)
        assert code == 2 and not out
        assert "product bound" in err

    def test_huge_prime_rejected_fast(self, capsys):
        # 2^61 - 1: the primality test must not stand between the input
        # and the bound check
        start = time.perf_counter()
        code, out, err = run(["verify", "--n", "2", "--l", "2", "--p",
                              "2305843009213693951"], capsys)
        assert time.perf_counter() - start < 2
        assert code == 2 and not out
        assert "product bound" in err

    @pytest.mark.parametrize("n", [6, 7])
    def test_dense_h_beyond_memory_rejected(self, monkeypatch, capsys, n):
        # 2n dense int64 D x D matrices, D = 2^n n!: 204 GB at n = 6
        def rewriting(*args):
            raise AssertionError("rewriting started")
        monkeypatch.setattr(H, "generic_normal_form", rewriting)
        code, out, err = run(["verify", "--n", str(n), "--l", "2"], capsys)
        assert code == 2 and not out
        assert f"dim H = {2 ** n * math.factorial(n)} is too large" in err
        assert "GB of physical memory" in err

    def test_rewrite_suite_needs_no_dense_h(self, capsys):
        code, out, _ = run(["verify", "--n", "6", "--l", "2", "--suite",
                            "rewrite", "--oracle", "off"], capsys)
        assert code == 0 and json.loads(out)["passed"]

    def test_relation_failure_is_reported(self, monkeypatch, capsys):
        def failing(self):
            return [B.RelationFailure("injected", (1, (0, 1)))]
        monkeypatch.setattr(B.KLRImages, "relation_failures", failing)
        code, out, _ = run(["verify", "--n", "2", "--l", "2"], capsys)
        assert code == 1
        suites = json.loads(out)["suites"]
        assert suites["hecke"]["passed"]
        for name in ("klr", "cellular", "jm", "rewrite"):
            assert not suites[name]["passed"], name
        assert "generator images fail 1 relations" in \
            suites["cellular"]["failures"]
        code, out, err = run(["basis", "--n", "2", "--l", "2"], capsys)
        assert code == 2 and not out
        assert err.startswith("error: relation injected fails")

    def test_failing_weight_split_is_reported(self, monkeypatch, capsys):
        split = B.weight_spaces
        monkeypatch.setattr(B, "weight_spaces", lambda L, params: mixed_split(
            *split(L, params), params.p))
        code, out, _ = run(["verify", "--n", "2", "--l", "2"], capsys)
        assert code == 1
        suites = json.loads(out)["suites"]
        assert suites["hecke"]["passed"]
        [klr] = suites["klr"]["failures"]
        assert klr.startswith("relation y_k e(i) = e(i) y_k fails")
        for name in ("cellular", "jm", "rewrite"):
            assert suites[name]["failures"] == [
                "generator images fail 1 relations"], name

    def test_relabelled_split_is_reported(self, monkeypatch, capsys):
        # two weight spaces of one size with their labels swapped: every
        # swap is a klr failure with a report, also where psi_r meets a
        # singular block
        params = H.default_params(3, 2)
        C, blocks = B.weight_spaces(B.build_blob(params).L, params)
        width = {i: sl.stop - sl.start for i, sl in blocks.items()}
        seen = set()
        for i in width:
            for j in width:
                if i < j and width[i] == width[j]:
                    swap = {i: j, j: i}
                    split = (C, {swap.get(k, k): sl
                                 for k, sl in blocks.items()})
                    monkeypatch.setattr(B, "weight_spaces",
                                        lambda L, params: split)
                    code, out, _ = run(["verify", "--n", "3", "--l", "2",
                                        "--suite", "klr"], capsys)
                    assert code == 1, (i, j)
                    failures = json.loads(out)["suites"]["klr"]["failures"]
                    assert failures, (i, j)
                    seen.update(f.split(" fails")[0] for f in failures)
        assert "relation psi_r e(i) defined" in seen

    def test_hecke_suite_forms_no_right_multiplication(self, monkeypatch):
        def unexpected(self, x, y):
            raise AssertionError("product called")
        monkeypatch.setattr(H.RegularRep, "product", unexpected)
        assert cli._suite_hecke(H.default_params(3, 2)) == []

    def test_oracle_rederives_nothing(self, monkeypatch, capsys):
        # the oracle governs only the rewrite suite and trace: with it on,
        # the klr suite makes no extra elimination, and the hecke suite
        # does not run Murphy's product formula
        calls = []
        rref = xf.rref

        def counted(M, p):
            calls.append(M.shape)
            return rref(M, p)
        monkeypatch.setattr(xf, "rref", counted)
        argv = ["verify", "--n", "3", "--l", "2", "--suite", "klr"]
        run(argv, capsys)     # fills the caches kept per parameter set
        made = {}
        for oracle in ("on", "off"):
            calls.clear()
            code, _, _ = run(argv + ["--oracle", oracle], capsys)
            assert code == 0
            made[oracle] = len(calls)
        assert made["on"] == made["off"] > 0

        def unexpected(self, S):
            raise AssertionError("murphy_is_matrix_unit called")
        monkeypatch.setattr(H.SeminormalModel, "murphy_is_matrix_unit",
                            unexpected)
        code, out, _ = run(["verify", "--n", "3", "--l", "2", "--suite",
                            "hecke", "--oracle", "on"], capsys)
        assert code == 0 and json.loads(out)["passed"]

    def test_single_suite_selection(self, capsys):
        code, out, _ = run(["verify", "--n", "2", "--l", "2", "--suite",
                            "hecke"], capsys)
        assert code == 0
        assert set(json.loads(out)["suites"]) == {"hecke"}


class TestArtifacts:
    def test_basis_two_strings(self, capsys):
        code, out, _ = run(["basis", "--n", "2", "--l", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 6
        assert len(report["vectors"]) == 6
        assert all(len(v["vector"]) == 6 for v in report["vectors"])

    def test_basis_csv_dump(self, tmp_path, capsys):
        out_json = tmp_path / "basis.csv"
        code, _, _ = run(["basis", "--n", "2", "--l", "2", "--out",
                          str(out_json)], capsys)
        assert code == 0
        rows = out_json.read_text().strip().splitlines()
        assert len(rows) == 6
        assert all(len(r.split(",")) == 6 for r in rows)

    def test_cell_table_level_three(self, capsys):
        code, out, _ = run(["cell", "--n", "3", "--l", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dim_check"]
        assert len(report["modules"]) == 10
        assert sum(m["dim"] ** 2 for m in report["modules"]) == 93

    def test_cell_refuses_a_non_cellular_basis(self, monkeypatch, capsys):
        # a basis whose inverse moves the row of (S, S) passes its
        # construction; cell runs check_cellularity before reading any Gram
        # matrix and exits 2 with its first line
        build = B.build_cellular_basis

        def moved(A, images, theta=None):
            basis = build(A, images, theta)
            basis._inv = held_inverse(basis, changed_inverse(basis))
            return basis

        monkeypatch.setattr(B, "build_cellular_basis", moved)
        code, out, err = run(["cell", "--n", "3", "--l", "2"], capsys)
        A = B.build_blob(H.default_params(3, 2))
        cells = B.check_cellularity(A, moved(A, B.klr_images(A)))
        assert code == 2 and not out and cells
        assert err == f"error: {cells[0]}\n"

    def test_report_written_to_file(self, tmp_path, capsys):
        path = tmp_path / "dims.json"
        code, out, _ = run(["dims", "--n", "2", "--l", "2", "--out",
                            str(path)], capsys)
        assert code == 0 and not out
        assert json.loads(path.read_text())["dim_B"] == 6


class TestTrace:
    def test_symbolic_trace_at_22_strings(self, capsys):
        code, out, _ = run(["trace", "--n", "22", "--l", "4", "--e", "10",
                            "--p", "11", "--kappa-hat", "0,22,44,67",
                            "--k", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "symbolic"
        assert report["zero"]
        assert report["trace"]["terminal"] == ["0"]
        assert any(s["rule"] == "dot-jump" for s in report["trace"]["steps"])

    def test_exact_trace_certified_at_small_scale(self, capsys):
        code, out, _ = run(["trace", "--n", "2", "--l", "2", "--k", "2",
                            "--oracle", "on"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "exact" and report["zero"]

    def test_oracle_failure_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_oracle_invariant", lambda *args: False)
        code, out, err = run(["trace", "--n", "2", "--l", "2", "--k", "2",
                              "--oracle", "on"], capsys)
        assert code == 2 and not out
        assert err == "error: trace is not oracle-invariant\n"


def _run_fresh(script: str) -> None:
    """Run a script in a fresh interpreter that imports from ``src``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_commands_do_not_import_scipy():
    # scipy serves only the generic oracle of the tests; a fresh process
    # running the commands must not load it
    _run_fresh(
        "import contextlib, io, sys\n"
        "from blobcell import cli\n"
        "for cmd in ('verify', 'cell', 'basis', 'dims'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main([cmd, '--n', '2', '--l', '2']) == 0, cmd\n"
        "assert 'scipy' not in sys.modules\n")


def test_certificates_do_not_import_numpy_random():
    # the star certificates are exact, with no sampled pairs, so neither
    # verify nor a certified pipeline pass loads numpy.random; nor does
    # either load numpy.ma, whose first import (np.isin, np.setdiff1d)
    # costs more than a small pass
    _run_fresh(
        "import contextlib, io, sys\n"
        "from blobcell import blob as B, cli, hecke as H\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--n', '2', '--l', '2']) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "A = B.build_blob(H.default_params(2, 2))\n"
        "images = B.klr_images(A)\n"
        "basis = B.build_cellular_basis(A, images)\n"
        "assert B.check_cellularity(A, basis) == []\n"
        "assert B.check_jm(A, basis, B.jm_images(A, images)) == []\n"
        "B.cell_modules(A, basis)\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules\n")
