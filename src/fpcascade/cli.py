"""Command-line front end: run the solvers and emit CSV/JSON artifacts.

Subcommands:

* ``example1``  linear drift x*V(t): perturbative (analytic and numeric
  paths), finite-difference and Monte Carlo solvers; the summary carries the
  shifted-heat-kernel translation residual.
* ``ou``        quadratic drift x^2/2: same solver set; the summary adds the
  lambda-sweep scaling fit and the log-resummation gaps.
* ``custom``    any built-in drift family, configured via JSON.

Outputs (in --out): ``density.csv`` with one row per (t-slice, x-node) in
time-major order, and ``summary.json``.  Floats are written with 17
significant digits and LF line endings so identical invocations produce
byte-identical files.  Each file is written beside its target under a
temporary name and then renamed onto it, so a run that dies mid-write leaves
the previous file in place.  The output directory is created before any
solver runs; when it cannot be, the run is rejected as a config error.

Exit codes: 0 success, 2 config rejection, 3 solver abort, 4 invariant
violation at emission.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import (
    METRICS,
    field_distance,
    scaling_order_fit,
    slice_mass,
    slice_moments,
    translation_residual,
    trapezoid,
)
from .errors import ConfigError, InvariantViolation, SolverError
from .hierarchy import analytic_expansion, assemble_density, solve_expansion
from .model import (
    DensityField,
    FAMILY_LINEAR,
    FAMILY_QUADRATIC,
    RunConfig,
    Tolerances,
    ValidatedConfig,
    validate_config,
)
from .oracles import log_resummation_gap, ou_density_exact, ou_density_pert
from .reference import density_from_samples, em_simulate, fp_fd_solve, oracle_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

# evaluation lattice for the oracle-vs-oracle lambda sweep (grid independent)
_SWEEP_T = 1.0
_SWEEP_X = np.linspace(-12.0, 12.0, 4801)

_MASS_TOL = {"w_pert": 1e-9, "w_pert_numeric": 1e-9, "w_exact": 1e-8, "w_fd": 1e-8, "w_mc": 1e-9}

# density.csv columns after x and t, in order
_COLUMNS = ("w_pert", "w_pert_numeric", "w_exact", "w_fd", "w_mc")


def _is_number(value) -> bool:
    return type(value) in (int, float)  # JSON true/false load as bool, not int


# what a config value must be, by the type of its RunConfig/Tolerances default
_JSON_KINDS = {
    float: ("a number", _is_number),
    int: ("an integer", lambda v: type(v) is int),
    str: ("a string", lambda v: type(v) is str),
    tuple: ("a list of numbers", lambda v: type(v) is list and all(map(_is_number, v))),
}


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tolerances = data.pop("tolerances", {})
    if type(tolerances) is not dict:
        raise ConfigError(f"tolerances must be a JSON object, got {json.dumps(tolerances)}")
    unknown = set(tolerances) - set(Tolerances.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    defaults, tol_defaults = RunConfig(), Tolerances()
    values = [(key, value, getattr(defaults, key)) for key, value in data.items()]
    values += [(f"tolerances.{key}", value, getattr(tol_defaults, key)) for key, value in tolerances.items()]
    for name, value, default in values:
        kind, accepts = _JSON_KINDS[type(default)]
        if not accepts(value):
            raise ConfigError(f"{name} must be {kind}, got {json.dumps(value)}")
    if tolerances:
        data["tolerances"] = Tolerances(**tolerances)
    if "checkpoints" in data:
        data["checkpoints"] = tuple(data["checkpoints"])
    return data


def _config_from_args(args) -> RunConfig:
    overrides = {}
    if args.config:
        overrides.update(_load_config_file(args.config))
    # each flag's dest is the RunConfig field it sets; example1 and ou set family
    for name in RunConfig.__dataclass_fields__:
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return replace(RunConfig(), **overrides)


def _checkpoint_indices(cfg: ValidatedConfig):
    t_nodes = cfg.grid.t
    return [int(np.argmin(np.abs(t_nodes - c))) for c in cfg.checkpoints]


def _run_solvers(cfg: ValidatedConfig):
    grid, drift = cfg.grid, cfg.drift
    raw = cfg.raw
    d, lam = raw.d_coeff, raw.lam
    fields = {}
    fields["w_pert"] = assemble_density(analytic_expansion(drift, d, lam, raw.order, grid), drift)
    fields["w_pert_numeric"] = assemble_density(solve_expansion(drift, d, lam, raw.order, grid), drift)

    exact = oracle_density(drift, d, lam, grid.x, grid.t[:, None])
    fields["w_exact"] = DensityField(grid=grid, values=exact)

    w_init = exact[0] / float(trapezoid(exact[0], grid.dx))
    fields["w_fd"] = fp_fd_solve(
        drift, d, lam, grid, w_init,
        mass_tol=raw.tolerances.mass_tol, boundary_tol=raw.tolerances.boundary_tol,
    )

    ensemble = em_simulate(drift, d, lam, grid.t0, cfg.checkpoints, raw.mc_dt, raw.n_paths, raw.seed)
    fields["w_mc"] = density_from_samples(ensemble, grid)
    return fields


def _check_emission(fields: dict, cfg: ValidatedConfig):
    for name, field in fields.items():
        tol = _MASS_TOL[name]
        for j in np.flatnonzero(field.populated):
            mass = slice_mass(field, int(j))
            if abs(mass - 1.0) > tol:
                raise InvariantViolation(
                    f"{name} slice {j} mass {mass:.12g} deviates from 1 beyond {tol:g}"
                )
        vals = field.values[field.populated]
        if vals.size and vals.min() < -1e-12:
            raise InvariantViolation(f"{name} holds a value below -1e-12")


def _scaling_fit(lams, d_coeff: float) -> dict:
    """Oracle-vs-oracle lambda sweep of the resummed quadratic-drift density
    and its log-log slope.  A sweep whose errors or slope are not finite (an
    extreme lambda over- or underflows the closed forms) is a config error."""
    errors = []
    with np.errstate(all="ignore"):
        for lam in lams:
            exact = ou_density_exact(_SWEEP_X, _SWEEP_T, d_coeff, lam)
            pert = ou_density_pert(_SWEEP_X, _SWEEP_T, d_coeff, lam)
            errors.append(float(np.abs(pert - exact).max() / exact.max()))
        # the fit rejects an error of 0, and a NaN error is no fit either
        slope = scaling_order_fit(list(zip(lams, errors))) if all(e > 0 for e in errors) else float("nan")
    if not np.all(np.isfinite([*errors, slope])):
        raise ConfigError(f"lambda sweep {list(lams)} gives no finite scaling fit: errors {errors}, slope {slope}")
    return {"lambdas": [float(l) for l in lams], "errors": errors, "slope": slope}


def _summarize(fields: dict, cfg: ValidatedConfig, scaling_fit):
    grid, drift = cfg.grid, cfg.drift
    idx = _checkpoint_indices(cfg)
    masses = {}
    moments = {}
    for name, field in fields.items():
        js = [j for j in idx if field.populated[j]]
        masses[name] = {
            "t": [float(grid.t[j]) for j in js],
            "mass": [slice_mass(field, j) for j in js],
        }
        mom = [slice_moments(field, j) for j in js]
        moments[name] = {
            "t": [float(grid.t[j]) for j in js],
            "mean": [m[0] for m in mom],
            "variance": [m[1] for m in mom],
        }
    distances = {}
    names = list(fields)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            fa, fb = fields[a], fields[b]
            both = fa.populated & fb.populated
            js = [j for j in idx if both[j]]
            if not js:
                continue
            per_metric = {}
            for metric in METRICS:
                dist = field_distance(fa, fb, metric)
                per_metric[metric] = {
                    "t": [float(grid.t[j]) for j in js],
                    "value": [float(dist[j]) for j in js],
                }
            distances[f"{a}_vs_{b}"] = per_metric

    summary = {
        "config": _config_dict(cfg),
        "masses": masses,
        "moments": moments,
        "distances": distances,
        "translation_residual": None,
        "scaling_fit": scaling_fit,  # None unless the drift is quadratic
        "resummation_gaps": None,
    }
    if drift.family == FAMILY_LINEAR:
        summary["translation_residual"] = translation_residual(
            fields["w_pert"], cfg.raw.d_coeff, cfg.raw.lam, drift.modulation
        )
    if drift.family == FAMILY_QUADRATIC:
        summary["resummation_gaps"] = {
            "t": grid.t.tolist(),
            "gap": log_resummation_gap(cfg.raw.lam, grid.t).tolist(),
        }
    return summary


def _config_dict(cfg: ValidatedConfig):
    config = asdict(cfg.raw)
    del config["out_dir"]
    config.update(dx=cfg.grid.dx, dt=cfg.grid.dt, checkpoints=list(cfg.checkpoints))
    return config


@contextmanager
def _replacing(path: Path):
    """Open a text file that replaces ``path`` when the block ends without an
    error.  It is written under a temporary name in the same directory, so
    the rename is atomic and a failed write leaves ``path`` as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_outputs(fields: dict, summary: dict, cfg: ValidatedConfig):
    out_dir = Path(cfg.raw.out_dir)
    grid = cfg.grid
    x_strs = ["%.17g" % xv for xv in grid.x.tolist()]
    with _replacing(out_dir / "density.csv") as fh:
        fh.write("x,t," + ",".join(_COLUMNS) + "\n")
        # one %-format per slice: the row template repeated nx times, filled
        # with x and the populated columns' values interleaved row by row
        for j, tj in enumerate(grid.t.tolist()):
            live = [fields[name].populated[j] for name in _COLUMNS]
            row = "%s," + "%.17g" % tj + "," + ",".join("%.17g" if on else "" for on in live) + "\n"
            cols = [fields[name].values[j].tolist() for name, on in zip(_COLUMNS, live) if on]
            fh.write((row * grid.nx) % tuple(chain.from_iterable(zip(x_strs, *cols))))
    payload = json.dumps(summary, indent=2, sort_keys=True)
    with _replacing(out_dir / "summary.json") as fh:
        fh.write(payload + "\n")
    return out_dir


def _run(args, lambda_sweep=None) -> int:
    cfg = validate_config(_config_from_args(args))
    scaling_fit = None
    if cfg.drift.family == FAMILY_QUADRATIC:
        scaling_fit = _scaling_fit(lambda_sweep or [0.02, 0.04, 0.08, 0.16], cfg.raw.d_coeff)
    try:
        Path(cfg.raw.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.raw.out_dir!r}: {exc}") from exc
    fields = _run_solvers(cfg)
    _check_emission(fields, cfg)
    summary = _summarize(fields, cfg, scaling_fit)
    out_dir = _write_outputs(fields, summary, cfg)
    print(f"wrote {out_dir / 'density.csv'} and {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_ou(args) -> int:
    sweep = None
    if args.lambda_sweep:
        try:
            sweep = [float(s) for s in args.lambda_sweep.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --lambda-sweep list: {args.lambda_sweep!r}") from exc
        if len(set(sweep)) < 3:
            raise ConfigError(
                f"--lambda-sweep needs at least 3 distinct values for a slope fit, got {args.lambda_sweep!r}"
            )
        if not all(0 < lam <= sys.float_info.max for lam in sweep):
            raise ConfigError(f"--lambda-sweep values must be finite and > 0, got {args.lambda_sweep!r}")
    return _run(args, lambda_sweep=sweep)


def cmd_custom(args) -> int:
    if not args.config:
        raise ConfigError("custom runs need --config pointing at a JSON file")
    return _run(args)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="perturbation strength")
    p.add_argument("--d", dest="d_coeff", type=float, default=None, help="diffusion constant D")
    p.add_argument("--order", type=int, default=None, help="expansion order N (<= 8)")
    p.add_argument("--x-min", dest="x_min", type=float, default=None)
    p.add_argument("--x-max", dest="x_max", type=float, default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--nt", type=int, default=None)
    p.add_argument("--t0", type=float, default=None, help="start time (> 0)")
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--paths", dest="n_paths", type=int, default=None, help="Monte Carlo path count")
    p.add_argument("--seed", type=int, default=None, help="master seed (64-bit)")
    p.add_argument("--mc-dt", dest="mc_dt", type=float, default=None, help="max Monte Carlo step")
    p.add_argument("--out", dest="out_dir", type=str, default=None, help="output directory")
    p.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpcascade",
        description="perturbative, finite-difference and Monte Carlo solvers "
        "for 1-D constant-diffusion Fokker-Planck problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("example1", help="linear drift potential x*V(t)")
    p1.add_argument("--v", dest="v_kind", choices=["cos", "sin", "const"], default=None, help="modulation V(t)")
    p1.add_argument("--omega", type=float, default=None, help="angular frequency of V")
    p1.add_argument("--v0", type=float, default=None, help="constant V value")
    _add_common_flags(p1)
    p1.set_defaults(func=_run, family=FAMILY_LINEAR)

    p2 = sub.add_parser("ou", help="quadratic drift potential x^2/2")
    p2.add_argument(
        "--lambda-sweep",
        dest="lambda_sweep",
        type=str,
        default=None,
        help="comma list of lambdas for the scaling fit (default 0.02,0.04,0.08,0.16)",
    )
    _add_common_flags(p2)
    p2.set_defaults(func=cmd_ou, family=FAMILY_QUADRATIC)

    p3 = sub.add_parser("custom", help="any built-in drift family from a JSON config")
    p3.add_argument("--v", dest="v_kind", choices=["cos", "sin", "const"], default=None)
    p3.add_argument("--omega", type=float, default=None)
    p3.add_argument("--v0", type=float, default=None)
    _add_common_flags(p3)
    p3.set_defaults(func=cmd_custom)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
