"""The benchmark's workloads: what one child run executes and how its outputs
are checked.

Every workload is run against the package in ``src/`` of the checkout.  The
benchmark's ``--seed`` reaches the program only as the CLI's ``--seed`` (the
Monte Carlo master seed); the library workload draws no random numbers.

Correctness is judged against closed forms written out here, independently of
``fpcascade.oracles``: per time slice the reference is normalized to unit
trapezoid mass on the output grid, and the error of a field is the largest
per-slice L1 distance over the slices it reports.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CASCADE = "cascade"
FD = "fd"
MC = "mc"


def trapezoid(values, dx):
    values = np.asarray(values, dtype=float)
    return dx * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def heat_kernel(x, t, d_coeff=1.0):
    return np.exp(-(x * x) / (4.0 * d_coeff * t)) / np.sqrt(4.0 * np.pi * d_coeff * t)


def example1_exact(lam, omega=1.0, d_coeff=1.0):
    """Density of the drift -lam*cos(omega t): the heat kernel shifted by
    lam*sin(omega t)/omega."""
    return lambda x, t: heat_kernel(x + lam * np.sin(omega * t) / omega, t, d_coeff)


def ou_exact(lam, d_coeff=1.0):
    """Density of the restoring drift -lam*x from a point source at 0."""

    def density(x, t):
        var = d_coeff * (1.0 - np.exp(-2.0 * lam * t)) / lam
        return np.exp(-(x * x) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)

    return density


def zero_exact(d_coeff=1.0):
    return lambda x, t: heat_kernel(x, t, d_coeff)


def normalized_reference(exact, x, t_nodes):
    vals = np.array([exact(x, tj) for tj in t_nodes])
    return vals / trapezoid(vals, x[1] - x[0])[:, None]


def max_l1(values, ref, dx):
    return float(trapezoid(np.abs(values - ref), dx).max())


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class CliWorkload:
    """One ``fpcascade.cli.main(argv)`` invocation.

    ``config`` holds the RunConfig fields that ``argv`` sets; the benchmark
    validates it during set-up and checks the config echo in summary.json
    against it.  ``tolerances`` bound each field's max-over-slices L1 error.
    """

    name: str
    argv: tuple
    config: dict
    exact: object
    tolerances: dict

    seeded = True

    def configs(self, seed):
        return [dict(self.config, seed=seed)]

    def run(self, fpcascade, seed, out_dir):
        """Run the CLI; returns its exit code and nothing for ``check``."""
        argv = [*self.argv, "--seed", str(seed), "--out", str(out_dir)]
        return fpcascade.cli.main(argv), None

    def check(self, seed, out_dir, state):
        """Errors, output hashes and problems of a finished run."""
        out_dir = Path(out_dir)
        csv_path, summary_path = out_dir / "density.csv", out_dir / "summary.json"
        problems = []
        with open(csv_path, "rb") as fh:
            header = fh.readline().decode("ascii").strip()
        columns = header.split(",")
        if columns != ["x", "t", "w_pert", "w_pert_numeric", "w_exact", "w_fd", "w_mc"]:
            return {}, {}, [f"unexpected density.csv header {header!r}"]
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=(0, 1, 3, 5))
        nx = int(np.flatnonzero(table[:, 1] != table[0, 1])[0])
        nt = table.shape[0] // nx
        x = table[:nx, 0]
        t_nodes = table[::nx, 1]
        ref = normalized_reference(self.exact, x, t_nodes)
        dx = x[1] - x[0]
        errors = {
            CASCADE: max_l1(table[:, 2].reshape(nt, nx), ref, dx),
            FD: max_l1(table[:, 3].reshape(nt, nx), ref, dx),
        }
        # w_mc is filled only on checkpoint slices; parse just those rows
        lines = csv_path.read_text(encoding="ascii").split("\n")[1:]
        mc_errs = []
        for j in range(nt):
            rows = lines[j * nx:(j + 1) * nx]
            if rows[0].rsplit(",", 1)[1]:
                w_mc = np.array([float(r.rsplit(",", 1)[1]) for r in rows])
                mc_errs.append(float(trapezoid(np.abs(w_mc - ref[j]), dx)))
        if not mc_errs:
            problems.append("density.csv holds no w_mc slice")
        else:
            errors[MC] = max(mc_errs)
        echo = json.loads(summary_path.read_text(encoding="ascii"))["config"]
        for key, want in self.configs(seed)[0].items():
            if echo.get(key) != want:
                problems.append(f"summary.json echoes {key}={echo.get(key)!r}, expected {want!r}")
        hashes = {"density.csv": sha256_file(csv_path), "summary.json": sha256_file(summary_path)}
        return errors, hashes, problems


# the acceptance grids and cases of criteria 2 and 6 (tests/test_acceptance.py)
CASCADE_GRID = (-10.0, 10.0, 801, 0.01, 5.0, 500)
FD_GRID = (-12.0, 12.0, 1601, 0.01, 1.0, 1101)
CASCADE_CASES = (("linear_time_modulated", 0.5), ("quadratic_ou", 0.1))
FD_CASES = (("zero", 0.0), ("linear_time_modulated", 0.5), ("quadratic_ou", 0.1))


@dataclass(frozen=True)
class LibraryWorkload:
    """Acceptance-criterion 2 and 6 work through library calls: the order-2
    cascade on the cascade grid and its refinement for example1 (lam 0.5)
    and OU (lam 0.1), then the FD solve on the FD grid for the zero,
    example1 and OU cases.  No Monte Carlo and no files."""

    name: str
    tolerances: dict

    seeded = False

    def configs(self, seed):
        configs = []
        for grid, cases in ((CASCADE_GRID, CASCADE_CASES), (FD_GRID, FD_CASES)):
            x_min, x_max, nx, t0, t_max, nt = grid
            for family, lam in cases:
                configs.append(dict(family=family, lam=lam, x_min=x_min, x_max=x_max, nx=nx,
                                    t0=t0, t_max=t_max, nt=nt))
        return configs

    def run(self, fpcascade, seed, out_dir):
        """Run the library calls; returns exit code 0 and the solved fields."""
        # resolve every call through its module at call time, as the CLI does
        model, hierarchy, reference = fpcascade.model, fpcascade.hierarchy, fpcascade.reference
        cosine = fpcascade.oracles.ModulationV("cos", 1.0)
        drifts = {
            "zero": model.zero_drift(),
            "linear_time_modulated": model.linear_time_modulated(cosine),
            "quadratic_ou": model.quadratic_ou(),
        }
        results = []
        base = model.Grid(*CASCADE_GRID)
        for grid in (base, base.refined()):
            for family, lam in CASCADE_CASES:
                drift = drifts[family]
                expansion = hierarchy.solve_expansion(drift, 1.0, lam, 2, grid)
                w = hierarchy.assemble_density(expansion, drift)
                results.append((CASCADE, family, grid, lam, w.values))
        grid = model.Grid(*FD_GRID)
        for family, lam in FD_CASES:
            drift = drifts[family]
            w_init = reference.oracle_density(drift, 1.0, lam, grid.x, grid.t0)
            w_init = w_init / float(trapezoid(w_init, grid.dx))
            w = reference.fp_fd_solve(drift, 1.0, lam, grid, w_init)
            results.append((FD, family, grid, lam, w.values))
        return 0, results

    def check(self, seed, out_dir, results):
        errors = {CASCADE: 0.0, FD: 0.0}
        digest = hashlib.sha256()
        for kind, family, grid, lam, values in results:
            exact = {"zero": zero_exact(), "linear_time_modulated": example1_exact(lam),
                     "quadratic_ou": ou_exact(lam)}[family]
            ref = normalized_reference(exact, np.asarray(grid.x), np.asarray(grid.t))
            errors[kind] = max(errors[kind], max_l1(values, ref, grid.dx))
            digest.update(np.ascontiguousarray(values).tobytes())
        problems = [] if len(results) == 7 else [f"expected 7 solved fields, got {len(results)}"]
        return errors, {"fields.f64": digest.hexdigest()}, problems


# MC tolerances sit well above the spread of the L1 error seen across seeds
# (README.md has the figures); FD tolerances on the CLI grids sit above the
# deterministic error of those coarse grids, where the acceptance bound of
# 1e-3 does not apply.
WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            name="cli_example1_default",
            argv=("example1",),
            config={},
            exact=example1_exact(0.2),
            tolerances={CASCADE: 1e-3, FD: 1e-2, MC: 0.15},
        ),
        CliWorkload(
            name="cli_ou_mc_heavy",
            argv=("ou", "--lambda", "0.1", "--x-min", "-12", "--x-max", "12", "--nx", "241",
                  "--t0", "0.05", "--t-max", "1", "--nt", "21", "--paths", "100000",
                  "--mc-dt", "1e-3"),
            config=dict(family="quadratic_ou", lam=0.1, x_min=-12.0, x_max=12.0, nx=241,
                        t0=0.05, t_max=1.0, nt=21, n_paths=100000, mc_dt=1e-3),
            exact=ou_exact(0.1),
            tolerances={CASCADE: 1e-3, FD: 3e-2, MC: 0.04},
        ),
        LibraryWorkload(name="lib_acceptance_grids", tolerances={CASCADE: 1e-3, FD: 1e-3}),
    )
}

# a seconds-long configuration for the benchmark's own tests
SMOKE = CliWorkload(
    name="smoke",
    argv=("example1", "--nx", "161", "--nt", "11", "--t-max", "1", "--x-min", "-16",
          "--x-max", "16", "--paths", "2000", "--mc-dt", "0.01"),
    config=dict(nx=161, nt=11, t_max=1.0, x_min=-16.0, x_max=16.0, n_paths=2000, mc_dt=0.01),
    exact=example1_exact(0.2),
    tolerances={CASCADE: 1e-2, FD: 0.1, MC: 0.5},
)
