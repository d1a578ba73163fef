import csv
import errno
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fpcascade import cli
from fpcascade.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from fpcascade.model import DensityField, RunConfig, Tolerances, validate_config

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
        summary = read_summary(out)
        assert summary["translation_residual"] <= 1e-12
        assert summary["scaling_fit"] is None

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
    def test_summary_carries_fit_and_gaps(self, tmp_path):
        out = tmp_path / "ou"
        code = main(["ou", "--lambda", "0.1", "--d", "1",
                     "--lambda-sweep", "0.02,0.04,0.08,0.16", *FAST, "--out", str(out)])
        assert code == EXIT_OK
        s = read_summary(out)
        fit = s["scaling_fit"]
        assert fit["lambdas"] == [0.02, 0.04, 0.08, 0.16]
        assert len(fit["errors"]) == 4 and "slope" in fit
        assert len(s["resummation_gaps"]["gap"]) == 39
        # perturbative vs exact stays tight over the whole run
        dist = s["distances"]["w_pert_vs_w_exact"]["peak-relative-Linf"]["value"]
        assert max(dist) <= 2e-3

    def test_bad_sweep_rejected(self, tmp_path, monkeypatch):
        def must_not_run(cfg):
            raise AssertionError("a solver ran on a rejected sweep")

        monkeypatch.setattr(cli, "_run_solvers", must_not_run)
        assert main(["ou", "--lambda-sweep", "0.1,oops", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert main(["ou", "--lambda-sweep", "0.1,0.2", "--out", str(tmp_path)]) == EXIT_CONFIG
        # three values but one distinct lambda: the fit is rank-deficient
        for sweep in ("0.1,0.1,0.1", "0.1,0.2,0.1"):
            assert main(["ou", "--lambda-sweep", sweep, "--out", str(tmp_path)]) == EXIT_CONFIG
        # the first four ran every solver and then crashed in the scaling fit;
        # the last two ran and wrote NaN into summary.json
        for sweep in ("0.01,-0.02,0.05", "0,0.1,0.2", "nan,0.1,0.2", "inf,0.1,0.2",
                      "1e300,2e300,3e300", "1e-300,2e-300,3e-300"):
            assert main(["ou", "--lambda-sweep", sweep, "--out", str(tmp_path)]) == EXIT_CONFIG


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

    def test_int_accepted_for_float(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lam": 1, "checkpoints": [1, 2.5], "tolerances": {"mass_tol": 1}}))
        overrides = cli._load_config_file(path)
        assert overrides["lam"] == 1 and overrides["checkpoints"] == (1, 2.5)
        assert overrides["tolerances"] == Tolerances(mass_tol=1)


def test_narrow_domain_solver_abort(tmp_path):
    # FD boundary-leak guard trips on a domain that cannot hold the density
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
        ({"tolerances": {"bogus": 1}}, "unknown tolerance keys: ['bogus']"),
        ({"tolerances": 5}, "tolerances must be a JSON object, got 5"),
        ({"tolerances": {"mass_tol": "x"}}, 'tolerances.mass_tol must be a number, got "x"'),
        ({"checkpoints": 5}, "checkpoints must be a list of numbers, got 5"),
        ({"checkpoints": [0.5, None]}, "checkpoints must be a list of numbers, got [0.5, null]"),
        ({"lam": None}, "lam must be a number, got null"),
        ({"lam": True}, "lam must be a number, got true"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"nx": "241"}, 'nx must be an integer, got "241"'),
        ({"family": 0}, "family must be a string, got 0"),
    ], ids=["unknown-tolerance", "tolerances-int", "tolerance-str", "checkpoints-int",
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
        (["custom"], {"tolerances": {"mass_tol": float("inf")}}, "tolerances.mass_tol must be finite, got inf"),
        (["custom"], {"checkpoints": [0.5, float("nan")]}, "checkpoints[1] must be finite, got nan"),
        (["custom"], {"checkpoints": [10**400]}, f"checkpoints[0] must be finite, got {10**400}"),
        (["example1", "--omega", "-1"], None, "omega must be > 0 for cos/sin modulation"),
        (["example1", "--v", "sin", "--omega", "0"], None, "omega must be > 0 for cos/sin modulation"),
        (["custom"], {"v_kind": "tan"}, "unknown modulation kind 'tan'"),
        # these two ran the cascade and FD, then crashed counting the EM steps
        (["example1", "--mc-dt", "5e-324"], None,
         "mc_dt must give a finite step count (t_max - t0) / mc_dt, got 5e-324"),
        (["ou", "--mc-dt", "1e-320"], None,
         "mc_dt must give a finite step count (t_max - t0) / mc_dt, got 1e-320"),
    ], ids=["lam-nan", "lam-minus-inf", "d-inf", "x-max-inf", "t-max-inf", "v0-nan", "json-lam-nan",
            "json-lam-huge-int", "json-mass-tol-inf", "json-checkpoint-nan", "json-checkpoint-huge-int",
            "omega-negative", "sin-omega-zero", "json-v-kind-tan", "mc-dt-subnormal", "mc-dt-tiny-ou"])
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

    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()], ids=["disk-full", "interrupt"])
    def test_failed_write_keeps_previous_outputs(self, tmp_path, error):
        cfg, fields = _writer_case(tmp_path, checkpoints=(0.3,))
        earlier = {"density.csv": b"x,t\nearlier run\n", "summary.json": b"{}\n"}
        for name, data in earlier.items():
            (tmp_path / name).write_bytes(data)
        seen_tmp = []
        w_fd = fields["w_fd"]

        class FailsAtSlice:
            """w_fd values that raise when the writer reaches slice 3."""

            def __getitem__(self, j):
                if j == 3:
                    seen_tmp.extend(p.name for p in tmp_path.iterdir() if p.name not in earlier)
                    raise error
                return w_fd.values[j]

        fields["w_fd"] = SimpleNamespace(values=FailsAtSlice(), populated=w_fd.populated)
        with pytest.raises(type(error)):
            cli._write_outputs(fields, {}, cfg)
        assert seen_tmp, "the writer should stream into a temporary file"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(earlier)
        for name, data in earlier.items():
            assert (tmp_path / name).read_bytes() == data


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
        "checkpoints": list(cfg.checkpoints),
        "tolerances": {
            "mass_tol": raw.tolerances.mass_tol,
            "boundary_tol": raw.tolerances.boundary_tol,
        },
    }


_ECHO_CONFIG = {"family": "quadratic_ou", "lam": 1, "d_coeff": 2, "x_min": -16, "nx": 301,
                "checkpoints": [1, 2.5], "tolerances": {"boundary_tol": 1}}


@pytest.mark.parametrize("argv, config", [
    (["custom"], {}),
    (["custom"], _ECHO_CONFIG),
    (["custom"], {"tolerances": {"mass_tol": 1e-7}}),
    (["custom"], {"checkpoints": [0.07, 2.4, 2.41]}),
    (["example1", "--v", "sin", "--omega", "2", "--d", "1.5", "--paths", "7", "--lambda", "0.1",
      "--order", "3", "--x-min", "-9", "--x-max", "9", "--nx", "37", "--nt", "11", "--t0", "0.1",
      "--t-max", "3", "--seed", "7", "--mc-dt", "0.01"], _ECHO_CONFIG),
], ids=["default", "ints-for-floats", "partial-tolerances", "checkpoints", "flag-overrides"])
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
        dests = set(vars(parser.parse_args([command]))) - {"config", "lambda_sweep", "command", "func"}
        assert dests and dests <= fields, (command, sorted(dests - fields))


# values at the edges of %.17g: signed zero, a tiny undershoot, the smallest
# subnormal, both sides of the switch to exponent notation, and two values
# that need all 17 digits
_EDGE_VALUES = [-0.0, -1e-13, 5e-324, 1e-5, 1e16, 1e17, 0.1, 1.0 / 3.0]


def _writer_case(out_dir, checkpoints):
    """A 9 x 5 grid and five fields that cycle through the edge values, with
    w_fd unpopulated on slice 2 and w_mc populated on the checkpoints only."""
    cfg = validate_config(replace(RunConfig(), x_min=-4.0, x_max=4.0, nx=9, t0=0.1, t_max=0.5,
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
            populated[cli._checkpoint_indices(cfg)] = True
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


@pytest.mark.parametrize("checkpoints", [(0.5,), (0.1, 0.3, 0.5)], ids=["one", "three"])
def test_writer_matches_per_value_oracle(tmp_path, checkpoints):
    cfg, fields = _writer_case(tmp_path, checkpoints)
    summary = {"config": cli._config_dict(cfg), "edges": list(_EDGE_VALUES)}
    density, summary_bytes = _per_value_writer(fields, summary, cfg)
    assert cli._write_outputs(fields, summary, cfg) == tmp_path
    assert (tmp_path / "density.csv").read_bytes() == density
    assert (tmp_path / "summary.json").read_bytes() == summary_bytes
    # the edge values and the unpopulated w_fd slice really reach the file
    rows = [line.split(",") for line in density.decode("ascii").split("\n")[1:-1]]
    assert {"%.17g" % v for v in _EDGE_VALUES} <= {cell for row in rows for cell in row}
    assert [row[5] == "" for row in rows[::9]] == [False, False, True, False, False]
