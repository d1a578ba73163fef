import csv
import errno
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpcascade.forked
from conftest import assert_no_child_process, counted_forks, in_children, kill_self
from fpcascade import cli, reference
from fpcascade.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_SOLVER, main
from fpcascade.errors import InvariantViolation, SolverError
from fpcascade.model import DensityField, Grid, RunConfig, validate_config

FAST = [
    "--t0", "0.1", "--t-max", "2", "--x-min", "-16", "--x-max", "16",
    "--nx", "241", "--nt", "39", "--paths", "2000", "--seed", "42",
]
# with these t nodes (step 0.05), t = 1.0 is a grid node and a default checkpoint target


def run_example1(out, extra=()):
    return main(["example1", "--v", "cos", "--omega", "1", "--lambda", "0.5", "--d", "1",
                 *FAST, *extra, "--out", str(out)])


def _not_json(token):
    raise ValueError(f"summary.json holds {token}, which is not JSON")


def read_summary(out):
    with open(out / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_not_json)


def read_density(out):
    with open(out / "density.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestExample1:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "run"
        assert run_example1(out) == EXIT_OK
        assert (out / "density.csv").exists() and (out / "summary.json").exists()

    def test_lambda_zero_is_pure_diffusion(self, tmp_path):
        out = tmp_path / "run0"
        assert main(["example1", "--v", "cos", "--lambda", "0", *FAST, "--out", str(out)]) == EXIT_OK
        rows = read_density(out)
        # w_exact degenerates to the heat kernel, and the normalized
        # perturbative column agrees with it to quadrature accuracy
        w_pert = np.array([float(r["w_pert"]) for r in rows])
        w_exact = np.array([float(r["w_exact"]) for r in rows])
        assert np.abs(w_pert - w_exact).max() <= 1e-10 * w_exact.max()

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_example1(out1) == EXIT_OK
        assert run_example1(out2) == EXIT_OK
        assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()
        s1 = (out1 / "summary.json").read_bytes()
        s2 = (out2 / "summary.json").read_bytes()
        assert s1 == s2

    def test_csv_schema_and_order(self, tmp_path):
        out = tmp_path / "run"
        assert run_example1(out) == EXIT_OK
        rows = read_density(out)
        assert list(rows[0].keys()) == ["x", "t", "w_pert", "w_pert_numeric", "w_exact", "w_fd", "w_mc"]
        # time-major ordering: t is non-decreasing, x cycles
        t_vals = [float(r["t"]) for r in rows]
        assert t_vals == sorted(t_vals)
        assert rows[0]["w_mc"] == ""  # first slice is not a checkpoint
        populated = [r for r in rows if r["w_mc"] != ""]
        assert populated, "checkpoint slices must carry MC data"


class TestOu:
    def test_pert_stays_close_to_exact(self, tmp_path):
        out = tmp_path / "ou"
        assert main(["ou", "--lambda", "0.1", "--d", "1", *FAST, "--out", str(out)]) == EXIT_OK
        s = read_summary(out)
        # perturbative vs exact stays tight over the whole run
        dist = s["distances"]["w_pert_vs_w_exact"]["peak-relative-Linf"]["value"]
        assert max(dist) <= 2e-3

    @pytest.mark.parametrize("lam", ["1e-17", "5e-324"])
    def test_tiny_lambda_runs_with_finite_fields(self, tmp_path, lam):
        # 1 - exp(-2 lam t) cancels to 0 at lam = 1e-17, and 2 lam t
        # underflows to 0 at the least subnormal: an exact density spelled
        # with either has zero variance, and the run died on a NaN w_exact
        out = tmp_path / "ou"
        argv = ["ou", f"--lambda={lam}", "--nx", "161", "--x-min", "-16", "--x-max", "16", "--nt", "21",
                "--t-max", "1", "--paths", "1000", "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = read_density(out)
        for name in ("w_pert", "w_pert_numeric", "w_exact", "w_fd", "w_mc"):
            values = [float(row[name]) for row in rows if row[name] != ""]
            assert values and np.isfinite(values).all(), name
        read_summary(out)  # rejects NaN and Infinity

    def test_run_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, about 0.9 MB of RSS; run in a fresh
        # interpreter, since another test may have imported it here
        script = (
            "import sys; from fpcascade.cli import main\n"
            f"assert main(['ou', *{FAST!r}, '--paths', '200', '--out', {str(tmp_path / 'ou')!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy.ma'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_nonfinite_action_sum_is_a_solver_abort(self, tmp_path):
        # S_2 overflows at t = 1e300 (its -D t^2 / 12 at D = 1e-289), and
        # lam^2 S_2 is then 0 * inf at lam = 0; run as the user does, so that
        # stderr shows everything the user sees: the abort line and no numpy
        # warning.  The small D keeps the cascade's padded width 20 D t_max
        # under its cap (at D = 1 the run is a config error,
        # test_nonfinite_or_invalid_value_rejected[cascade-pad-t-max-1e300]),
        # and t0 = 1e288 gives the start density a width sqrt(2 D t0) of 0.45,
        # past dx = 0.2, so the config is not rejected as unresolved
        argv = ["ou", "--lambda", "0", "--x-min", "-16", "--x-max", "16", "--nx", "161", "--t0", "1e288",
                "--t-max", "1e300", "--nt", "3", "--paths", "3000", "--mc-dt", "1e299",
                "--d", "1e-289", "--out", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "fpcascade", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_SOLVER
        assert "solver abort: action sum is not finite everywhere on the grid" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_wide_domain_runs(self, tmp_path):
        # U/2D reaches 800 at x = +-80, past the exp() range, where S/D is
        # far below -U/2D; the density assembles and matches the exact one
        out = tmp_path / "ou"
        argv = ["ou", "--lambda", "0.5", "--x-min", "-80", "--x-max", "80", "--nx", "801", "--t0", "0.05",
                "--t-max", "1", "--nt", "21", "--paths", "2000", "--mc-dt", "0.01", "--seed", "7"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        dist = read_summary(out)["distances"]
        for pair, bound in (("w_pert_vs_w_exact", 1e-3), ("w_pert_numeric_vs_w_exact", 1e-3),
                            ("w_exact_vs_w_fd", 1e-2)):
            assert max(dist[pair]["L1"]["value"]) <= bound, pair

    def test_coarse_time_grid_runs(self, tmp_path):
        # five time nodes on [0.05, 5]: the first output step is 25 times
        # its start time, so FD splits it into early substeps; as one CN
        # step it undershot by -0.28 at step 1
        out = tmp_path / "ou"
        assert main(["ou", "--nt", "5", "--paths", "2000", "--mc-dt", "0.01", "--out", str(out)]) == EXIT_OK
        assert max(read_summary(out)["distances"]["w_exact_vs_w_fd"]["L1"]["value"]) <= 1e-3

    @pytest.mark.parametrize("d, width", [("1e-300", "4.428e-151"), ("1e-308", "4.428e-155")])
    def test_tiny_d_unresolved_start_is_rejected(self, tmp_path, monkeypatch, capsys, d, width):
        # the start density's width sqrt(2 D t0) is far below dx = 125: its
        # cascade and exact densities are a spike at x = 0 and FD undershoots
        # from it, so the run is rejected before any solver runs
        def must_not_run(cfg):
            raise AssertionError("a solver ran on a rejected config")

        monkeypatch.setattr(cli, "_run_solvers", must_not_run)
        argv = ["ou", "--x-min=-1e4", "--x-max", "1e4", "--nx", "161", "--t0", "0.1", "--t-max", "1.5",
                "--nt", "29", "--paths", "1000", "--d", d, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config rejected: the initial density's width sqrt(2 D t) at t0 must be >= dx to be resolved, "
            f"got {width} < dx = 1.250e+02\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (["example1"], None),
    (["ou"], None),
    (["custom"], {"family": "zero"}),
], ids=["example1", "ou", "custom"])
def test_summary_schema_is_the_same_for_every_family(tmp_path, argv, config):
    out = tmp_path / "run"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main([*argv, *FAST, "--out", str(out)]) == EXIT_OK
    assert set(read_summary(out)) == {"config", "distances", "masses", "moments"}


class TestCustom:
    def test_config_file_run(self, tmp_path):
        cfg = {
            "family": "linear_time_modulated", "v_kind": "sin", "omega": 2.0,
            "lam": 0.3, "d_coeff": 1.0, "x_min": -16.0, "x_max": 16.0, "nx": 241,
            "t0": 0.1, "t_max": 2.0, "nt": 39, "n_paths": 1500, "seed": 11,
            "out_dir": str(tmp_path / "custom"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["custom", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "custom" / "summary.json").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = {"family": "zero", "t0": 0.1, "t_max": 1.0, "nx": 201, "nt": 21,
               "x_min": -12.0, "x_max": 12.0, "n_paths": 500, "seed": 1,
               "out_dir": str(tmp_path / "o1")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out2 = tmp_path / "o2"
        assert main(["custom", "--config", str(path), "--out", str(out2)]) == EXIT_OK
        assert (out2 / "summary.json").exists()
        assert read_summary(out2)["config"]["family"] == "zero"

    def test_order_cap_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "zero", "order": 9}))
        assert main(["custom", "--config", str(path)]) == EXIT_CONFIG

    def test_t0_zero_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "zero", "t0": 0.0}))
        assert main(["custom", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_config_rejected(self, tmp_path):
        assert main(["custom", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"familly": "zero"}))
        assert main(["custom", "--config", str(path)]) == EXIT_CONFIG

    def test_flag_overrides_mistyped_file_value(self, tmp_path):
        # the effective config is checked: a file value a flag replaces is never used
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "zero", "lam": None, "t0": 0.1, "t_max": 1.0, "nx": 201,
                                    "nt": 21, "x_min": -12.0, "x_max": 12.0, "n_paths": 500}))
        out = tmp_path / "out"
        assert main(["custom", "--config", str(path), "--lambda", "0.1", "--out", str(out)]) == EXIT_OK
        assert read_summary(out)["config"]["lam"] == 0.1

    def test_int_accepted_for_float(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lam": 1, "checkpoints": [1, 2.5]}))
        overrides = cli._load_config_file(path)
        assert overrides["lam"] == 1 and overrides["checkpoints"] == (1, 2.5)


def test_narrow_domain_solver_abort(tmp_path):
    # FD's mass check trips on a domain that cannot hold the density: mass
    # leaves through the absorbing edges
    code = main(["example1", "--lambda", "0.2", "--t0", "0.1", "--t-max", "2",
                 "--x-min", "-4", "--x-max", "4", "--nx", "161", "--nt", "41",
                 "--paths", "200", "--out", str(tmp_path / "narrow")])
    assert code == EXIT_SOLVER


def test_cli_float_format_is_17g(tmp_path):
    out = tmp_path / "fmt"
    assert run_example1(out) == EXIT_OK
    checkpoint_t = set(read_summary(out)["masses"]["w_mc"]["t"])
    lines = (out / "density.csv").read_bytes().decode("ascii").split("\n")
    assert lines[-1] == ""  # LF after the last row; a CR would fail the cell check
    for line in lines[1:-1]:
        cells = line.split(",")
        # every number is exactly its own %.17g text ("0.1" would fail)
        assert all(c == "%.17g" % float(c) for c in cells if c)
        # only w_mc has empty cells, and only off the checkpoint slices
        assert all(cells[:-1])
        assert (cells[-1] == "") == (float(cells[1]) not in checkpoint_t)


class TestFailures:
    @pytest.mark.parametrize("below_file", ["file", "file/sub"])
    def test_unwritable_out_rejected_before_solvers(self, tmp_path, monkeypatch, capsys, below_file):
        (tmp_path / "file").write_text("not a directory")

        def must_not_run(cfg):
            raise AssertionError("a solver ran before the output directory was made")

        monkeypatch.setattr(cli, "_run_solvers", must_not_run)
        assert run_example1(tmp_path / below_file) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config rejected: cannot create output directory")

    @pytest.mark.parametrize("bad, message", [
        # FD's thresholds are constants, not config keys
        ({"tolerances": {"mass_tol": 1e-7}}, "unknown config keys: ['tolerances']"),
        ({"checkpoints": 5}, "checkpoints must be a list of numbers, got 5"),
        ({"checkpoints": [0.5, None]}, "checkpoints must be a list of numbers, got [0.5, null]"),
        ({"lam": None}, "lam must be a number, got null"),
        ({"lam": True}, "lam must be a number, got true"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"nx": "241"}, 'nx must be an integer, got "241"'),
        ({"family": 0}, "family must be a string, got 0"),
    ], ids=["unknown-tolerance", "checkpoints-int",
            "checkpoint-null", "lam-null", "lam-bool", "seed-float", "nx-str", "family-int"])
    def test_mistyped_config_value_rejected(self, tmp_path, monkeypatch, capsys, bad, message):
        def must_not_run(cfg):
            raise AssertionError("a solver ran on a rejected config")

        monkeypatch.setattr(cli, "_run_solvers", must_not_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "zero", "out_dir": str(tmp_path / "out"), **bad}))
        assert main(["custom", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config rejected: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, bad, message", [
        (["example1", "--lambda", "nan"], None, "lam must be finite, got nan"),
        (["example1", "--lambda=-inf"], None, "lam must be finite, got -inf"),
        (["example1", "--d", "inf"], None, "d_coeff must be finite, got inf"),
        (["ou", "--x-max", "inf"], None, "x_max must be finite, got inf"),
        (["ou", "--t-max", "inf"], None, "t_max must be finite, got inf"),
        (["example1", "--v", "const", "--v0", "nan"], None, "v0 must be finite, got nan"),
        (["custom"], {"lam": float("nan")}, "lam must be finite, got nan"),
        (["custom"], {"lam": 10**400}, f"lam must be finite, got {10**400}"),
        (["custom"], {"checkpoints": [0.5, float("nan")]}, "checkpoints[1] must be finite, got nan"),
        (["custom"], {"checkpoints": [10**400]}, f"checkpoints[0] must be finite, got {10**400}"),
        (["custom"], {"checkpoints": [2.0, 1.0]}, "checkpoints must be ascending"),
        (["custom"], [1, 2], "config file must hold a JSON object"),
        (["example1", "--seed", str(2**64)], None, f"seed must fit in 64 bits, got {2**64}"),
        (["example1", "--mc-dt", "0"], None, "mc_dt must be > 0, got 0.0"),
        (["ou", "--nt", "1"], None, "nt must be >= 2, got 1"),
        (["example1", "--omega", "-1"], None, "omega must be > 0 for cos/sin modulation"),
        (["example1", "--v", "sin", "--omega", "0"], None, "omega must be > 0 for cos/sin modulation"),
        (["custom"], {"v_kind": "tan"}, "unknown modulation kind 'tan'"),
        # these two ran the cascade and FD, then crashed counting the EM steps
        (["example1", "--mc-dt", "5e-324"], None,
         "mc_dt must give a finite step count (t_max - t0) / mc_dt, got 5e-324"),
        (["ou", "--mc-dt", "1e-320"], None,
         "mc_dt must give a finite step count (t_max - t0) / mc_dt, got 1e-320"),
        # a finite step count that looped in EM after every other solver had run
        (["ou", "--mc-dt", "1e-300", "--nx", "161", "--x-min", "-16", "--x-max", "16", "--nt", "21",
          "--t-max", "1", "--paths", "1000"], None,
         "n_paths x Monte Carlo steps must be <= 1e+12 path-steps, got 1000 paths x 9.500e+299 steps"),
        # an mc_dt past the whole span still takes a step into each checkpoint
        (["ou", "--mc-dt", "1e6", "--paths", "10000000000000"], None,
         "n_paths x Monte Carlo steps must be <= 1e+12 path-steps, got 10000000000000 paths x 2.000e+00 steps"),
        # validated, then killed once its lattices had exhausted memory
        (["example1", "--nx", "1000000000"], None,
         "nt * (nx + 2 x cascade pad) must be <= 1e+08 padded cascade nodes, got 199 x 1.083e+09"),
        # these validated, then died building the cascade's padded row
        (["ou", "--x-min", "0", "--x-max", "1e-300", "--nx", "161", "--nt", "29", "--t0", "0.1",
          "--t-max", "1.5", "--paths", "3000", "--mc-dt", "0.01"], None,
         "nt * (nx + 2 x cascade pad) must be <= 1e+08 padded cascade nodes, got 29 x 1.753e+303"),
        (["example1", "--x-min", "0", "--x-max", "1e-300", "--nx", "161", "--nt", "29", "--t0", "0.1",
          "--t-max", "1.5", "--paths", "3000", "--mc-dt", "0.01", "--d", "1e300"], None,
         "nt * (nx + 2 x cascade pad) must be <= 1e+08 padded cascade nodes, got 29 x inf"),
        (["ou", "--x-min", "-16", "--x-max", "16", "--nx", "161", "--t0", "0.1", "--t-max", "1e300",
          "--nt", "3", "--paths", "3000", "--mc-dt", "1e299"], None,
         "nt * (nx + 2 x cascade pad) must be <= 1e+08 padded cascade nodes, got 3 x 4.472e+151"),
    ], ids=["lam-nan", "lam-minus-inf", "d-inf", "x-max-inf", "t-max-inf", "v0-nan", "json-lam-nan",
            "json-lam-huge-int", "json-checkpoint-nan", "json-checkpoint-huge-int",
            "json-checkpoints-descending", "json-not-an-object", "seed-past-64-bits", "mc-dt-zero", "nt-one",
            "omega-negative", "sin-omega-zero", "json-v-kind-tan", "mc-dt-subnormal", "mc-dt-tiny-ou",
            "mc-path-steps-huge", "mc-dt-past-span", "lattice-huge",
            "cascade-pad-tiny-domain", "cascade-pad-huge-d", "cascade-pad-t-max-1e300"])
    def test_nonfinite_or_invalid_value_rejected(self, tmp_path, monkeypatch, capsys, argv, bad, message):
        def must_not_run(cfg):
            raise AssertionError("a solver ran on a rejected config")

        monkeypatch.setattr(cli, "_run_solvers", must_not_run)
        if bad is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(bad))  # NaN and Infinity, as Python's json reads them
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config rejected: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [None, '{"family": "zero",', b"\xff"], ids=["missing", "truncated", "not-utf8"])
    def test_unreadable_config_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["custom", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config rejected: cannot read config file {path}: ")

    @pytest.mark.parametrize("error, failing", [
        (OSError(errno.ENOSPC, "No space left on device"), "density.csv"),
        (KeyboardInterrupt(), "density.csv"),
        # density.csv is complete by then; it must not replace the earlier one alone
        (OSError(errno.ENOSPC, "No space left on device"), "summary.json"),
    ], ids=["disk-full", "interrupt", "summary-disk-full"])
    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch, error, failing):
        cfg, fields = _writer_case(tmp_path, checkpoints=(0.3,))
        earlier = _write_earlier_outputs(tmp_path)
        seen_tmp = []

        def fail():
            seen_tmp.extend(p.name for p in tmp_path.iterdir() if p.name not in earlier)
            raise error

        if failing == "density.csv":
            w_fd = fields["w_fd"]

            class FailsAtSlice:
                """w_fd values that raise when the writer reaches slice 3."""

                def __getitem__(self, j):
                    if j == 3:
                        fail()
                    return w_fd.values[j]

            fields["w_fd"] = SimpleNamespace(values=FailsAtSlice(), populated=w_fd.populated)
        else:
            class FullDisk:
                """An open file whose writes fail as on a full disk."""

                def __init__(self, file):
                    self.file = file

                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    self.file.close()

                def write(self, data):
                    fail()

            def open_summary_on_full_disk(path, *args, **kwargs):
                file = open(path, *args, **kwargs)
                return FullDisk(file) if Path(path).name.startswith(".summary.json.") else file

            monkeypatch.setattr(cli, "open", open_summary_on_full_disk, raising=False)
        w_mc = fields.pop("w_mc")
        with pytest.raises(type(error)):
            cli._write_outputs(fields, cfg, _finish_like_a_run(fields, w_mc, {}))
        assert seen_tmp, "the writer should stream into a temporary file"
        _assert_outputs_are(tmp_path, earlier)


def _write_earlier_outputs(out_dir):
    """Outputs of an earlier run that a failed run must leave as they are."""
    out_dir.mkdir(exist_ok=True)
    earlier = {"density.csv": b"x,t\nearlier run\n", "summary.json": b"{}\n"}
    for name, data in earlier.items():
        (out_dir / name).write_bytes(data)
    return earlier


def _assert_outputs_are(out_dir, outputs):
    """``out_dir`` holds exactly ``outputs`` (name -> bytes): no temporary
    file beside them."""
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(outputs)
    for name, data in outputs.items():
        assert (out_dir / name).read_bytes() == data


def _finish_like_a_run(fields, w_mc, summary):
    """A ``finish`` for ``cli._write_outputs`` that calls ``meanwhile`` as a
    run does: through ``forked.run_split``, beside a forked chunk process
    (after it, with the gate off) and before ``fields`` holds w_mc.  Then it
    adds ``w_mc`` and returns ``summary``."""

    def finish(meanwhile):
        fpcascade.forked.run_split("Monte Carlo chunk process", lambda: None, [()], meanwhile)
        fields["w_mc"] = w_mc
        return summary

    return finish


forked_chunks = pytest.mark.skipif(not fpcascade.forked.ENABLED, reason="the chunk processes fork on Linux only")


def _raise_disk_full():
    raise OSError(errno.ENOSPC, "No space left on device")


# three blocks and a 1-path tail: three chunks, whatever the CPU count, once
# reference._EM_CHUNKS is 3
THREE_CHUNKS = ["--paths", str(3 * reference._EM_BLOCK + 1)]


@forked_chunks
class TestFormatWhileSampling:
    """A run formats the density.csv slices before the first checkpoint
    while its Monte Carlo chunk processes sample."""

    @pytest.fixture(autouse=True)
    def three_chunks(self, monkeypatch):
        monkeypatch.setattr(reference, "_EM_CHUNKS", 3)

    @pytest.mark.parametrize("extra, n_chunks", [([], 1), (THREE_CHUNKS, 3)], ids=["1-chunk", "3-chunks"])
    def test_run_forks_its_chunks_and_matches_gate_off(self, tmp_path, monkeypatch, extra, n_chunks):
        forks = counted_forks(monkeypatch)
        outputs = {}
        for enabled, n_forks in ((True, n_chunks), (False, 0)):
            monkeypatch.setattr(fpcascade.forked, "ENABLED", enabled)
            forks.clear()
            out = tmp_path / f"forked-{enabled}"
            assert run_example1(out, extra) == EXIT_OK
            assert len(forks) == n_forks
            outputs[enabled] = {name: (out / name).read_bytes() for name in ("density.csv", "summary.json")}
            _assert_outputs_are(out, outputs[enabled])
            assert_no_child_process()
        assert outputs[True] == outputs[False]

    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
                             ids=["disk-full", "interrupt"])
    def test_error_while_formatting_kills_the_chunk_processes_and_keeps_previous_outputs(
            self, tmp_path, monkeypatch, error):
        started = tmp_path / "started"
        started.mkdir()

        def stall():
            (started / str(os.getpid())).touch()
            time.sleep(60)

        slice_formatter = cli._slice_formatter

        def failing_at_slice_3(fields, grid):
            rows = slice_formatter(fields, grid)

            def rows_or_fail(j):
                if j != 3:
                    return rows(j)
                deadline = time.monotonic() + 30
                while len(list(started.iterdir())) < 3:  # fail only once every chunk is mid-run
                    assert time.monotonic() < deadline, "the chunk processes never started"
                    time.sleep(0.01)
                raise error

            return rows_or_fail

        in_children(monkeypatch, reference, "_em_paths", stall)
        monkeypatch.setattr(cli, "_slice_formatter", failing_at_slice_3)
        out = tmp_path / "out"
        earlier = _write_earlier_outputs(out)
        began = time.monotonic()
        with pytest.raises(type(error)):
            run_example1(out, THREE_CHUNKS)
        assert time.monotonic() - began < 30, "the chunk processes were waited for, not killed"
        _assert_outputs_are(out, earlier)
        assert_no_child_process()

    @pytest.mark.parametrize("stage, error, code", [
        ("em_simulate", SolverError("EM abort"), EXIT_SOLVER),
        ("_check_emission", InvariantViolation("w_mc slice 3 mass 0.9"), EXIT_INVARIANT),
    ], ids=["em-abort", "invariant-violation"])
    def test_abort_keeps_previous_outputs(self, tmp_path, monkeypatch, stage, error, code):
        # both abort with density.csv's temporary open and its header written
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, stage, fail)
        out = tmp_path / "out"
        earlier = _write_earlier_outputs(out)
        assert run_example1(out) == code
        _assert_outputs_are(out, earlier)
        assert_no_child_process()

    def test_failed_fork_closes_its_pipe_and_keeps_previous_outputs(self, tmp_path, monkeypatch):
        forks = counted_forks(monkeypatch, fail_from=1)  # the second chunk process cannot fork
        out = tmp_path / "out"
        earlier = _write_earlier_outputs(out)
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_example1(out, THREE_CHUNKS)
        assert len(forks) == 2
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        _assert_outputs_are(out, earlier)
        assert_no_child_process()

    @pytest.mark.parametrize("act, message", [
        (_raise_disk_full, "OSError: [Errno 28] No space left on device"),
        (kill_self, "killed by signal 9"),
    ], ids=["raises", "killed"])
    def test_failing_chunk_fails_the_run_with_its_message(self, tmp_path, monkeypatch, act, message):
        in_children(monkeypatch, reference, "_em_paths", act)
        out = tmp_path / "out"
        earlier = _write_earlier_outputs(out)
        with pytest.raises(OSError, match="Monte Carlo chunk process failed: " + re.escape(message)):
            run_example1(out, THREE_CHUNKS)
        _assert_outputs_are(out, earlier)
        assert_no_child_process()


def _hand_written_config_dict(cfg):
    """The config echo as it was written field by field before it was built
    from the RunConfig schema.  Kept as the oracle."""
    raw = cfg.raw
    return {
        "family": raw.family,
        "v_kind": raw.v_kind,
        "omega": raw.omega,
        "v0": raw.v0,
        "d_coeff": raw.d_coeff,
        "lam": raw.lam,
        "order": raw.order,
        "x_min": raw.x_min,
        "x_max": raw.x_max,
        "nx": raw.nx,
        "t0": raw.t0,
        "t_max": raw.t_max,
        "nt": raw.nt,
        "dx": cfg.grid.dx,
        "dt": cfg.grid.dt,
        "n_paths": raw.n_paths,
        "seed": raw.seed,
        "mc_dt": raw.mc_dt,
        "checkpoints": [float(cfg.grid.t[j]) for j in cfg.slices],
    }


_ECHO_CONFIG = {"family": "quadratic_ou", "lam": 1, "d_coeff": 2, "x_min": -16, "nx": 301,
                "checkpoints": [1, 2.5]}


@pytest.mark.parametrize("argv, config", [
    (["custom"], {}),
    (["custom"], _ECHO_CONFIG),
    (["custom"], {"checkpoints": [0.07, 2.4, 2.41]}),
    (["example1", "--v", "sin", "--omega", "2", "--d", "1.5", "--paths", "7", "--lambda", "0.1",
      "--order", "3", "--x-min", "-9", "--x-max", "9", "--nx", "37", "--nt", "11", "--t0", "0.1",
      "--t-max", "3", "--seed", "7", "--mc-dt", "0.01"], _ECHO_CONFIG),
], ids=["default", "ints-for-floats", "checkpoints", "flag-overrides"])
def test_config_echo_matches_hand_written_oracle(tmp_path, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    args = cli.build_parser().parse_args([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    cfg = validate_config(cli._config_from_args(args))
    echo = json.dumps(cli._config_dict(cfg), sort_keys=True)
    assert echo == json.dumps(_hand_written_config_dict(cfg), sort_keys=True)


def test_subcommand_family_overrides_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "zero"}))
    families = {"example1": "linear_time_modulated", "ou": "quadratic_ou", "custom": "zero"}
    for command, family in families.items():
        args = cli.build_parser().parse_args([command, "--config", str(path)])
        assert cli._config_from_args(args).family == family


def test_every_flag_dest_is_a_run_config_field():
    parser = cli.build_parser()
    fields = set(RunConfig.__dataclass_fields__)
    for command in ("example1", "ou", "custom"):
        dests = set(vars(parser.parse_args([command]))) - {"config", "command"}
        assert dests and dests <= fields, (command, sorted(dests - fields))


@st.composite
def _config_files(draw):
    """RunConfig values that validate, as a JSON config file holds them: a
    grid whose dx stays below the start's width sqrt(2 D t0) for any lam
    drawn, and checkpoints within [t0, t_max]."""
    x_min, x_max = draw(st.floats(-10.0, -1.0)), draw(st.floats(1.0, 10.0))
    t0 = draw(st.floats(0.05, 1.0))
    t_max = t0 + draw(st.floats(0.1, 10.0))
    fractions = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=4)))
    return {
        "family": draw(st.sampled_from(["zero", "linear_time_modulated", "quadratic_ou"])),
        "v_kind": draw(st.sampled_from(["cos", "sin", "const"])),
        "omega": draw(st.floats(0.1, 10.0)), "v0": draw(st.floats(-3.0, 3.0)),
        "d_coeff": draw(st.floats(0.5, 5.0)), "lam": draw(st.floats(-1.0, 1.0)), "order": draw(st.integers(0, 8)),
        "x_min": x_min, "x_max": x_max, "nx": int(np.ceil((x_max - x_min) / 0.2)) + 1 + draw(st.integers(0, 100)),
        "t0": t0, "t_max": t_max, "nt": draw(st.integers(2, 200)),
        "n_paths": draw(st.integers(1, 100000)), "seed": draw(st.integers(0, 2**64 - 1)),
        "mc_dt": draw(st.floats(1e-4, 0.1)),
        "checkpoints": [min(t_max, t0 + f * (t_max - t0)) for f in fractions],
        "out_dir": draw(st.text("abc-_/", min_size=1, max_size=12)),
    }


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(config=_config_files())
def test_config_file_round_trips_into_the_summary_echo(tmp_path_factory, config):
    # every value a JSON config sets comes back in the summary.json echo,
    # the checkpoints as the grid nodes nearest to them
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(config))
    cfg = validate_config(cli._config_from_args(cli.build_parser().parse_args(["custom", "--config", str(path)])))
    echo, t = cli._config_dict(cfg), cfg.grid.t
    nearest = sorted({int(np.abs(t - c).argmin()) for c in config["checkpoints"]}) or [(len(t) - 1) // 2, len(t) - 1]
    expected = dict(config, checkpoints=t[nearest].tolist())
    del expected["out_dir"]  # the echo leaves it out
    assert {key: echo[key] for key in expected} == expected


# values at the edges of %.17g: signed zero, a tiny undershoot, the smallest
# subnormal, both sides of the switch to exponent notation, and two values
# that need all 17 digits
_EDGE_VALUES = [-0.0, -1e-13, 5e-324, 1e-5, 1e16, 1e17, 0.1, 1.0 / 3.0]


def _writer_case(out_dir, checkpoints):
    """A 9 x 5 grid and five fields that cycle through the edge values, with
    w_fd unpopulated on slice 2 and w_mc populated on the checkpoints only."""
    # D = 10 makes the start width sqrt(2 D t0) = 1.4 resolvable on dx = 1
    cfg = validate_config(replace(RunConfig(), d_coeff=10.0, x_min=-4.0, x_max=4.0, nx=9, t0=0.1, t_max=0.5,
                                  nt=5, checkpoints=checkpoints, out_dir=str(out_dir)))
    grid = cfg.grid
    fields = {}
    for c, name in enumerate(cli._COLUMNS):
        vals = np.roll(np.resize(_EDGE_VALUES, grid.nt * grid.nx), c).reshape(grid.nt, grid.nx)
        populated = np.ones(grid.nt, dtype=bool)
        if name == "w_fd":
            populated[2] = False
            vals[2] = np.nan
        if name == "w_mc":
            populated[:] = False
            populated[cfg.slices] = True
        fields[name] = DensityField(grid=grid, values=vals, populated=populated)
    return cfg, fields


def _per_value_writer(fields, summary, cfg):
    """The writer as it was before density.csv was streamed: one f-string
    per numpy scalar, the rows joined in memory.  Kept as the oracle."""
    grid = cfg.grid
    fmt = lambda v: f"{v:.17g}"  # noqa: E731
    columns = ["w_pert", "w_pert_numeric", "w_exact", "w_fd", "w_mc"]
    lines = ["x,t," + ",".join(columns)]
    x_strs = [fmt(xv) for xv in grid.x]
    for j, tj in enumerate(grid.t):
        t_str = fmt(tj)
        cells = {}
        for name in columns:
            field = fields[name]
            cells[name] = [fmt(v) for v in field.values[j]] if field.populated[j] else None
        for i in range(grid.nx):
            row = [x_strs[i], t_str]
            row.extend(cells[name][i] if cells[name] is not None else "" for name in columns)
            lines.append(",".join(row))
    density = ("\n".join(lines) + "\n").encode("ascii")
    payload = json.dumps(summary, indent=2, sort_keys=True)
    return density, (payload + "\n").encode("ascii")


# (checkpoints, forked): the slices before the first checkpoint are formatted
# while a chunk process runs (forked) or after it (the gate off), and the rest
# once w_mc exists, so the cases put the first checkpoint on the first slice
# (nothing to format before it), later, on adjacent slices and on every
# slice; the grid's t nodes are 0.1, 0.2, ..., 0.5
@pytest.mark.parametrize("checkpoints, forked", [
    ((0.5,), False),
    ((0.1, 0.3, 0.5), False),
    pytest.param((0.5,), True, marks=forked_chunks),
    pytest.param((0.1, 0.3, 0.5), True, marks=forked_chunks),
    pytest.param((0.1,), True, marks=forked_chunks),
    pytest.param((0.2, 0.3), True, marks=forked_chunks),
    pytest.param((0.1, 0.2, 0.3, 0.4, 0.5), True, marks=forked_chunks),
], ids=["one", "three", "forked-last", "forked-three", "forked-first", "forked-adjacent", "forked-every"])
def test_writer_matches_per_value_oracle(tmp_path, monkeypatch, checkpoints, forked):
    cfg, fields = _writer_case(tmp_path, checkpoints)
    summary = {"config": cli._config_dict(cfg), "edges": list(_EDGE_VALUES)}
    density, summary_bytes = _per_value_writer(fields, summary, cfg)
    monkeypatch.setattr(fpcascade.forked, "ENABLED", forked)
    w_mc = fields.pop("w_mc")
    assert cli._write_outputs(fields, cfg, _finish_like_a_run(fields, w_mc, summary)) == tmp_path
    assert_no_child_process()
    _assert_outputs_are(tmp_path, {"density.csv": density, "summary.json": summary_bytes})
    # the edge values and the unpopulated w_fd slice really reach the file
    rows = [line.split(",") for line in density.decode("ascii").split("\n")[1:-1]]
    assert {"%.17g" % v for v in _EDGE_VALUES} <= {cell for row in rows for cell in row}
    assert [row[5] == "" for row in rows[::9]] == [False, False, True, False, False]


@pytest.mark.parametrize("checkpoints", [(0.1,), (0.5, 0.55), (2.0,)], ids=["first", "adjacent", "last"])
def test_summary_lists_every_checkpoint_for_every_field_and_pair(tmp_path, checkpoints):
    # every field, w_mc included, is populated on every checkpoint slice, so
    # each masses, moments and distances entry carries all the checkpoint times
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "linear_time_modulated", "checkpoints": checkpoints}))
    out = tmp_path / "out"
    assert main(["custom", *FAST, "--config", str(path), "--out", str(out)]) == EXIT_OK
    summary = read_summary(out)
    times = summary["config"]["checkpoints"]
    assert times == pytest.approx(checkpoints, abs=1e-12)  # the grid nodes they snap to
    names = list(cli._COLUMNS)
    for name in names:
        assert summary["masses"][name]["t"] == times
        assert len(summary["masses"][name]["mass"]) == len(times)
        moments = summary["moments"][name]
        assert moments["t"] == times
        assert len(moments["mean"]) == len(moments["variance"]) == len(times)
    pairs = [f"{a}_vs_{b}" for i, a in enumerate(names) for b in names[i + 1:]]
    assert sorted(summary["distances"]) == sorted(pairs)
    for pair in pairs:
        assert sorted(summary["distances"][pair]) == sorted(cli.METRICS)
        for per_metric in summary["distances"][pair].values():
            assert per_metric["t"] == times
            assert len(per_metric["value"]) == len(times)


def test_emission_checks_w_fd_at_the_fd_mass_tol():
    # w_fd is held to reference.FD_MASS_TOL, the tolerance fp_fd_solve checked
    # every slice at; the other fields keep their own fixed tolerances
    grid = Grid(-4.0, 4.0, 9, 0.1, 0.5, 5)
    vals = np.full((grid.nt, grid.nx), 0.125)  # trapezoid mass 1 on 8 unit cells
    vals[3] *= 1.0 + 5e-8
    field = DensityField(grid=grid, values=vals)
    with pytest.raises(InvariantViolation, match=r"^w_fd slice 3 mass 1\.00000005 deviates from 1 beyond 1e-08$"):
        cli._check_emission({"w_fd": field})
    with pytest.raises(InvariantViolation, match=r"^w_exact slice 3 mass"):
        cli._check_emission({"w_exact": field})
