"""Command-line front end: run the solvers and emit CSV/JSON artifacts.

Subcommands:

* ``example1``  linear drift x*V(t).
* ``ou``        quadratic drift x^2/2.
* ``custom``    any built-in drift family, configured via JSON.

Every run solves its drift the same way: perturbatively (analytic and numeric
paths), by finite differences and by Monte Carlo, next to the closed-form
density.  The subcommands differ only in their flags and the family they set.

Outputs (in --out): ``density.csv`` with one row per (t-slice, x-node) in
time-major order, and ``summary.json``, which holds the config echo and, at
the checkpoints, every field's masses and moments and the distances between
every pair of fields.  Floats are written with 17 significant digits and LF
line endings so identical invocations produce byte-identical files.  Both
files are written beside their targets under temporary names and renamed onto
them only once both are complete, so a run that dies mid-write leaves the
previous pair in place.  The output directory is created before any solver
runs; when it cannot be, the run is rejected as a config error.

On Linux a forked writer process formats the ``density.csv`` slices that hold
no ``w_mc`` into a part file while this process samples ``w_mc``; the
checkpoint slices are formatted here and spliced in (``_SliceWriter``).

Exit codes: 0 success, 2 config rejection, 3 solver abort, 4 invariant
violation at emission.
"""

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import forked
from .analysis import METRICS, field_distance, slice_mass, slice_moments, trapezoid
from .errors import ConfigError, InvariantViolation, SolverError
from .hierarchy import analytic_expansion, assemble_density, solve_expansion
from .model import (
    DensityField,
    FAMILY_LINEAR,
    FAMILY_QUADRATIC,
    RunConfig,
    ValidatedConfig,
    validate_config,
)
from .reference import FD_MASS_TOL, density_from_samples, em_simulate, fp_fd_solve, oracle_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

# the largest |mass - 1| of an emitted slice, per column; w_fd is held to the
# tolerance fp_fd_solve checked every slice at
_MASS_TOL = {"w_pert": 1e-9, "w_pert_numeric": 1e-9, "w_exact": 1e-8, "w_fd": FD_MASS_TOL, "w_mc": 1e-9}

# density.csv columns after x and t, in order
_COLUMNS = ("w_pert", "w_pert_numeric", "w_exact", "w_fd", "w_mc")


def _load_config_file(path) -> dict:
    """The RunConfig fields a JSON config file sets.  Their values are
    checked by ``validate_config``, once flags have overridden them."""
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
    if type(data.get("checkpoints")) is list:
        data["checkpoints"] = tuple(data["checkpoints"])
    return data


def _config_from_args(args) -> RunConfig:
    overrides = {}
    if args.config:
        overrides.update(_load_config_file(args.config))
    elif args.command == "custom":
        raise ConfigError("custom runs need --config pointing at a JSON file")
    # each flag's dest is the RunConfig field it sets; example1 and ou set family
    for name in RunConfig.__dataclass_fields__:
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return replace(RunConfig(), **overrides)


def _run_solvers(cfg: ValidatedConfig):
    """Every field but w_mc: the cascades, the exact density and FD."""
    grid, drift = cfg.grid, cfg.drift
    raw = cfg.raw
    d, lam = raw.d_coeff, raw.lam
    fields = {}
    fields["w_pert"] = assemble_density(analytic_expansion(drift, d, lam, raw.order, grid), drift)
    fields["w_pert_numeric"] = assemble_density(solve_expansion(drift, d, lam, raw.order, grid), drift)

    exact = oracle_density(drift, d, lam, grid.x, grid.t[:, None])
    fields["w_exact"] = DensityField(grid=grid, values=exact)

    w_init = exact[0] / float(trapezoid(exact[0], grid.dx))
    fields["w_fd"] = fp_fd_solve(drift, d, lam, grid, w_init)
    return fields


def _check_emission(fields: dict):
    for name, field in fields.items():
        tol = _MASS_TOL[name]
        for j in np.flatnonzero(field.populated):
            mass = slice_mass(field, int(j))
            if abs(mass - 1.0) > tol:
                raise InvariantViolation(
                    f"{name} slice {j} mass {mass:.12g} deviates from 1 beyond {tol:g}"
                )


def _summarize(fields: dict, cfg: ValidatedConfig):
    grid = cfg.grid
    # every field is populated on every checkpoint slice
    idx = cfg.slices.tolist()
    t_idx = grid.t[cfg.slices].tolist()
    masses = {}
    moments = {}
    for name, field in fields.items():
        masses[name] = {
            "t": t_idx,
            "mass": [slice_mass(field, j) for j in idx],
        }
        mom = [slice_moments(field, j) for j in idx]
        moments[name] = {
            "t": t_idx,
            "mean": [m[0] for m in mom],
            "variance": [m[1] for m in mom],
        }
    distances = {}
    names = list(fields)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            per_metric = {}
            for metric in METRICS:
                dist = field_distance(fields[a], fields[b], metric, rows=cfg.slices)
                per_metric[metric] = {"t": t_idx, "value": dist.tolist()}
            distances[f"{a}_vs_{b}"] = per_metric

    return {
        "config": _config_dict(cfg),
        "masses": masses,
        "moments": moments,
        "distances": distances,
    }


def _config_dict(cfg: ValidatedConfig):
    config = asdict(cfg.raw)
    del config["out_dir"]
    config.update(dx=cfg.grid.dx, dt=cfg.grid.dt, checkpoints=cfg.grid.t[cfg.slices].tolist())
    return config


@contextmanager
def _replacing(*paths: Path):
    """Open binary files that replace ``paths`` when the block ends without
    an error.  Each is written under a temporary name beside its target, and
    the renames start only after every file is written and closed, so a
    failed write leaves all the targets as they were."""
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        with ExitStack() as files:
            yield [files.enter_context(open(tmp, "wb")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _slice_formatter(fields: dict, grid):
    """The function j -> density.csv rows of time slice j, as ASCII bytes.

    One %-format per slice: the row template repeated nx times, filled with
    x and the populated columns' values interleaved row by row.  A column
    missing from ``fields`` (w_mc before it is sampled) is left empty."""
    x_strs = ["%.17g" % xv for xv in grid.x.tolist()]
    t_nodes = grid.t.tolist()

    def rows(j):
        live = [name in fields and fields[name].populated[j] for name in _COLUMNS]
        row = "%s," + "%.17g" % t_nodes[j] + "," + ",".join("%.17g" if on else "" for on in live) + "\n"
        cols = [fields[name].values[j].tolist() for name, on in zip(_COLUMNS, live) if on]
        return ((row * grid.nx) % tuple(chain.from_iterable(zip(x_strs, *cols)))).encode("ascii")

    return rows


def _write_outputs(fields: dict, summary: dict, cfg: ValidatedConfig, part=None):
    """Replace density.csv and summary.json in the output directory.

    Without ``part`` every density.csv slice is formatted here.  With a
    ``_SliceWriter`` only its ``slices`` are, and the rest is copied from the
    part file its writer process made."""
    out_dir = Path(cfg.raw.out_dir)
    rows = _slice_formatter(fields, cfg.grid)
    payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    with _replacing(out_dir / "density.csv", out_dir / "summary.json") as (density, summary_file):
        density.write(("x,t," + ",".join(_COLUMNS) + "\n").encode("ascii"))
        if part is None:
            for j in range(cfg.grid.nt):
                density.write(rows(j))
        else:
            part.splice(density, rows)
        summary_file.write(payload.encode("ascii"))
    return out_dir


class _SliceWriter(forked.Child):
    """A forked process that formats density.csv while this one samples w_mc.

    The child formats every slice but ``slices`` (the checkpoint slices, the
    only ones where w_mc can be populated) into ``.density.csv.<pid>.part``
    in the output directory, with the w_mc cells empty, and reports the byte
    offset of the part at which each of ``slices`` goes, then the part's
    length (``forked.Child`` carries the report or the child's error).

    A process, not a thread, because %-formatting holds the interpreter lock.
    It is forked before the Monte Carlo sampler forks its chunk processes, so
    they and it run at once.  Leaving the ``with`` block reaps the child
    (killing it first if it was not reaped already) and removes the part.
    """

    def __init__(self, fields: dict, cfg: ValidatedConfig):
        self.slices = cfg.slices.tolist()
        self.path = Path(cfg.raw.out_dir) / f".density.csv.{os.getpid()}.part"
        super().__init__("density.csv writer process", self._format_part, fields, cfg.grid)

    def _format_part(self, fields, grid):
        rows = _slice_formatter(fields, grid)
        own, offsets = set(self.slices), []
        with open(self.path, "wb") as part:
            for j in range(grid.nt):
                if j in own:
                    offsets.append(part.tell())
                else:
                    part.write(rows(j))
            offsets.append(part.tell())
        return " ".join(map(str, offsets))

    def __exit__(self, *exc_info):
        super().__exit__(*exc_info)
        self.path.unlink(missing_ok=True)

    def splice(self, out, rows):
        """Write the part to the binary file ``out`` with ``rows(j)`` for
        each of ``slices`` at its offset.  The part is copied in the kernel,
        so it never passes through this process's memory."""
        offsets = [int(offset) for offset in self.result().split()]
        with open(self.path, "rb") as part:
            start = 0
            # offsets: where each of the slices goes, then the part's length
            for j, end in zip([*self.slices, None], offsets):
                out.flush()
                while start < end:
                    sent = os.sendfile(out.fileno(), part.fileno(), start, end - start)
                    if not sent:
                        raise OSError(f"{self.path} ends at byte {start}, before byte {end}")
                    start += sent
                if j is not None:
                    out.write(rows(j))


def _run(args) -> int:
    cfg = validate_config(_config_from_args(args))
    try:
        Path(cfg.raw.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.raw.out_dir!r}: {exc}") from exc
    fields = _run_solvers(cfg)
    raw = cfg.raw
    with _SliceWriter(fields, cfg) if forked.ENABLED else nullcontext() as part:
        positions = em_simulate(cfg.drift, raw.d_coeff, raw.lam, cfg.grid.t0, cfg.grid.t[cfg.slices],
                                raw.mc_dt, raw.n_paths, raw.seed)
        fields["w_mc"] = density_from_samples(positions, cfg.slices, cfg.grid)
        # free the paths before the checks: held through them, they raised the
        # default run's peak RSS by 1.6 MB (glibc then maps the checks' temporaries anew)
        del positions
        _check_emission(fields)
        summary = _summarize(fields, cfg)
        out_dir = _write_outputs(fields, summary, cfg, part)
    print(f"wrote {out_dir / 'density.csv'} and {out_dir / 'summary.json'}")
    return EXIT_OK


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


def _add_modulation_flags(p: argparse.ArgumentParser):
    p.add_argument("--v", dest="v_kind", choices=["cos", "sin", "const"], default=None, help="modulation V(t)")
    p.add_argument("--omega", type=float, default=None, help="angular frequency of V")
    p.add_argument("--v0", type=float, default=None, help="constant V value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpcascade",
        description="perturbative, finite-difference and Monte Carlo solvers "
        "for 1-D constant-diffusion Fokker-Planck problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("example1", help="linear drift potential x*V(t)")
    _add_modulation_flags(p1)
    _add_common_flags(p1)
    p1.set_defaults(family=FAMILY_LINEAR)

    p2 = sub.add_parser("ou", help="quadratic drift potential x^2/2")
    _add_common_flags(p2)
    p2.set_defaults(family=FAMILY_QUADRATIC)

    p3 = sub.add_parser("custom", help="any built-in drift family from a JSON config")
    _add_modulation_flags(p3)
    _add_common_flags(p3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
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
