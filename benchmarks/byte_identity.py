#!/usr/bin/env python3
"""Check that two source trees give byte-identical outputs.

Runs a fixed list of CLI invocations once against each tree's ``src/``, each
in its own ``python -m fpcascade`` subprocess, and compares the exit codes and
``density.csv`` and ``summary.json`` byte for byte; for the abort cases,
which write no outputs, it compares the exit code and the last stderr line.
Then it compares the sha256 of the solved fields of the
``lib_acceptance_grids`` benchmark workload (``fields.f64``), run from this
checkout's ``perfbench/``.  Prints one line per case, and under a case whose
outputs differ, which ``density.csv`` columns and which ``summary.json`` keys
(dotted, two levels deep) differ, or the two last stderr lines.  Exits 1 on
any difference, on a case that exits nonzero in both trees (it then has no
outputs to compare) or on an abort case that exits 0 in both.

    python3 benchmarks/byte_identity.py --parent DIR --change DIR

DIR is the root of a checkout (it holds ``src/fpcascade``).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# a grid small enough to run in well under a second, wide enough that FD
# loses no mass through its edges up to t = 1.5
FAST = ("--x-min", "-16", "--x-max", "16", "--nx", "161", "--t0", "0.1", "--t-max", "1.5",
        "--nt", "29", "--paths", "3000", "--mc-dt", "0.01", "--seed", "7")

# the t nodes of FAST are 0.1 + 0.05 k, k = 0 .. 28
FAST_T = [round(0.1 + 0.05 * k, 10) for k in range(29)]

# (name, argv, JSON config or None): every subcommand and family, the three
# modulations, orders 0, 3 and 8, lam = 0, negative and 1e-17 (where the
# quadratic family's 1 - exp(-2 lam t) cancels to 0), three long cascade
# marches (99, 66 and 64 steps, at orders 8, 3 and 3), density.csv's checkpoint
# slices (the first of them ends the slices the run formats while its chunk
# processes sample) on the first slice, on two adjacent slices, on the last slice only, on
# every slice, off the nodes and on one node twice (0.51 and 0.52 both snap
# to t = 0.5), a Monte Carlo run of three whole blocks and a one-path tail
# (12289 paths; on two or more CPUs a forked chunk process samples the odd
# last block), small stand-ins for the two CLI benchmark workloads at two
# seeds each, and the signed-zero edges of the drift product lam * U_1'
# (lam = -0.0, V = +-0, and a sine whose omega t is within 1e-14 of pi at the
# node t = 1), and a config file that gives integers for float fields and a
# list of checkpoints (the summary.json config echo shows each as the
# validated config holds it), an OU run on x in [-80, 80] whose U/2D
# passes the exp() range near the edges, where S/D lies far below it, and
# an OU run on three time nodes, whose two FD output steps take 54
# Crank-Nicolson substeps between them (reference.fd_substeps), an OU run on
# 400 time nodes, whose output steps are shorter than dx^2 / (6 D), so FD
# scales its mass weights on every step, and the example1 run whose density
# nears the edges of the default grid (it aborted on the FD boundary-leak
# check that the mass check replaced).
# Every case exits 0 (later flags override earlier ones).
CASES = (
    ("example1-cos", ("example1", *FAST), None),
    ("example1-sin-order3", ("example1", "--v", "sin", "--omega", "2", "--order", "3", *FAST), None),
    ("example1-const-order0", ("example1", "--v", "const", "--v0", "0.7", "--order", "0", *FAST), None),
    ("example1-lambda0", ("example1", "--lambda", "0", *FAST), None),
    ("example1-negative-lambda", ("example1", "--lambda", "-0.3", "--d", "0.5", *FAST), None),
    ("ou-order2", ("ou", *FAST), None),
    ("ou-order3", ("ou", "--order", "3", *FAST), None),
    ("ou-order8", ("ou", "--order", "8", "--lambda", "0.3", *FAST), None),
    ("ou-order8-blocks", ("ou", "--order", "8", *FAST, "--nt", "100"), None),
    ("example1-sin-order3-blocks", ("example1", "--v", "sin", "--omega", "2", "--order", "3", *FAST, "--nt", "67"),
     None),
    ("example1-sin-order3-two-blocks",
     ("example1", "--v", "sin", "--omega", "2", "--order", "3", *FAST, "--nt", "65"), None),
    ("ou-lambda0", ("ou", "--lambda", "0", *FAST), None),
    ("ou-lambda-tiny", ("ou", "--lambda=1e-17", *FAST), None),
    ("ou-negative-lambda", ("ou", "--lambda", "-0.2", *FAST, "--x-min", "-20", "--x-max", "20", "--nx", "201"),
     None),
    ("custom-zero", ("custom", *FAST), {"family": "zero"}),
    ("custom-quadratic", ("custom", *FAST),
     {"family": "quadratic_ou", "lam": 0.15, "checkpoints": [0.5, 1.0]}),
    *((f"custom-checkpoints-{layout}", ("custom", *FAST), {"family": "linear_time_modulated", "checkpoints": ts})
      for layout, ts in (("first", FAST_T[:1]), ("adjacent", FAST_T[8:10]), ("last", FAST_T[-1:]),
                         ("every", FAST_T), ("off-node", [0.51, 1.23]),
                         ("snap-duplicate", [0.51, 0.52, 1.0]))),
    ("ou-chunks-odd-tail", ("ou", *FAST, "--paths", "12289"), None),
    *((f"w1-standin-seed{seed}", ("example1", "--nx", "481", "--nt", "100", "--paths", "5000",
                                  "--mc-dt", "0.01", "--seed", str(seed)), None) for seed in (0, 3)),
    *((f"w2-standin-seed{seed}", ("ou", "--lambda", "0.1", "--x-min", "-12", "--x-max", "12", "--nx", "241",
                                  "--t0", "0.05", "--t-max", "1", "--nt", "21", "--paths", "20000",
                                  "--mc-dt", "0.005", "--seed", str(seed)), None) for seed in (0, 5)),
    ("example1-lambda-minus-zero", ("example1", "--lambda=-0.0", *FAST), None),
    ("example1-const-v0-zero", ("example1", "--v", "const", "--v0", "0", *FAST), None),
    ("example1-const-v0-minus-zero", ("example1", "--v", "const", "--v0=-0.0", "--lambda=-0.5", *FAST), None),
    ("ou-lambda-minus-zero", ("ou", "--lambda=-0.0", *FAST), None),
    ("example1-sin-omega-pi", ("example1", "--v", "sin", "--omega", "3.14159265358979", "--lambda=-0.4", *FAST),
     None),
    ("custom-ints-for-floats", ("custom", *FAST),
     {"family": "linear_time_modulated", "v_kind": "sin", "d_coeff": 1, "lam": 1, "omega": 2,
      "checkpoints": [0.5, 1]}),
    ("ou-wide-domain", ("ou", "--lambda", "0.5", "--x-min", "-80", "--x-max", "80", "--nx", "801", "--t0", "0.05",
                        "--t-max", "1", "--nt", "21", "--paths", "2000", "--mc-dt", "0.01", "--seed", "7"), None),
    ("ou-coarse-time", ("ou", *FAST, "--nt", "3"), None),
    ("ou-short-output-steps", ("ou", *FAST, "--nt", "400"), None),
    ("example1-sin-d1.5", ("example1", "--v", "sin", "--omega", "2", "--d", "1.5"), None),
)

# the grid of the tiny-D runs (tests/test_cli.py's
# TestOu::test_tiny_d_unresolved_start_is_rejected)
TINY_D = ("--x-min=-1e4", "--x-max", "1e4", "--nx", "161", "--t0", "0.1", "--t-max", "1.5", "--nt", "29",
          "--paths", "1000")

# (name, argv, JSON config or None) of runs that abort: an action sum that
# overflows (tests/test_cli.py's
# TestOu::test_nonfinite_action_sum_is_a_solver_abort) and an OU lam of 1e4
# whose exp(S/D - U/2D) underflows to a zero slice mass (D = 1000 keeps its
# width sqrt(D / lam) above dx), both exit 3, as does a modulation so fast
# that the numeric cascade's order-2 source overflows; two tiny D and a tiny D
# at a negative lam, whose start density is far narrower than dx, exit 2
ABORT_CASES = (
    ("abort-action-sum", ("ou", "--lambda", "0", "--x-min", "-16", "--x-max", "16", "--nx", "161",
                          "--t0", "1e288", "--t-max", "1e300", "--nt", "3", "--paths", "3000",
                          "--mc-dt", "1e299", "--d", "1e-289"), None),
    ("abort-zero-slice-mass", ("ou", "--lambda", "1e4", *FAST, "--d", "1000"), None),
    ("abort-cascade-source-overflow", ("example1", "--omega", "1e200", *FAST), None),
    *((f"abort-tiny-d-{d}", ("ou", *TINY_D, "--d", d), None) for d in ("1e-300", "1e-308")),
    ("abort-tiny-d-negative-lambda", ("ou", "--lambda=-0.2", *TINY_D, "--d", "1e-308"), None),
)

OUTPUTS = ("density.csv", "summary.json")

# the lib_acceptance_grids benchmark workload, as perfbench defines it, run
# against the tree on PYTHONPATH; prints the sha256 of its solved fields
LIBRARY = """
import sys
sys.path.insert(0, {perfbench!r})
import fpcascade
from workloads import WORKLOADS
workload = WORKLOADS["lib_acceptance_grids"]
_, fields = workload.run(fpcascade, 0, None)
print(workload.check(0, None, fields)[1]["fields.f64"])
""".format(perfbench=str(Path(__file__).resolve().parent.parent / "perfbench"))


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def run_case(tree: Path, argv, config, out_dir: Path):
    """Run one invocation against ``tree``; returns (exit code, output bytes,
    last stderr line)."""
    out_dir.mkdir(parents=True)
    argv = [*argv, "--out", str(out_dir)]
    if config is not None:
        path = out_dir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    proc = subprocess.run([sys.executable, "-m", "fpcascade", *argv], env=_env(tree),
                          capture_output=True, text=True)
    files = {name: (out_dir / name).read_bytes() if (out_dir / name).exists() else None for name in OUTPUTS}
    return proc.returncode, files, (proc.stderr.splitlines() or [""])[-1]


def csv_columns_differing(a: bytes, b: bytes) -> list:
    """Header names of the columns whose cells differ; a changed header or
    row count differs as a whole."""
    rows_a, rows_b = a.decode("ascii").splitlines(), b.decode("ascii").splitlines()
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return ["(header or row count)"]
    columns_a = zip(*(row.split(",") for row in rows_a))
    columns_b = zip(*(row.split(",") for row in rows_b))
    return [col_a[0] for col_a, col_b in zip(columns_a, columns_b) if col_a != col_b]


def _keys_differing(doc_a: dict, doc_b: dict, prefix: str, depth: int) -> list:
    keys = []
    for key in sorted(doc_a.keys() | doc_b.keys()):
        path = prefix + key
        if key not in doc_b:
            keys.append(f"{path} (removed)")
        elif key not in doc_a:
            keys.append(f"{path} (added)")
        elif doc_a[key] != doc_b[key]:
            if depth > 1 and isinstance(doc_a[key], dict) and isinstance(doc_b[key], dict):
                keys += _keys_differing(doc_a[key], doc_b[key], path + ".", depth - 1)
            else:
                keys.append(path)
    return keys


def summary_keys_differing(a: bytes, b: bytes) -> list:
    """Dotted paths, two levels deep, of the summary keys whose values differ.
    A key that only one tree writes is marked ``(removed)`` or ``(added)``,
    whatever its value (a removed ``null`` differs too)."""
    return _keys_differing(json.loads(a), json.loads(b), "", 2)


DIFFERING_PARTS = {"density.csv": ("columns", csv_columns_differing),
                   "summary.json": ("keys", summary_keys_differing)}


def library_digest(tree: Path) -> str:
    proc = subprocess.run([sys.executable, "-c", LIBRARY], env=_env(tree), capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, tree in trees.items():
        if not (tree / "src" / "fpcascade").is_dir():
            parser.error(f"--{label} {tree} holds no src/fpcascade")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        for (name, case_argv, config), aborts in [*((c, False) for c in CASES), *((c, True) for c in ABORT_CASES)]:
            results = {label: run_case(tree, case_argv, config, Path(tmp) / label / name)
                       for label, tree in trees.items()}
            (code_a, files_a, last_a), (code_b, files_b, last_b) = results["parent"], results["change"]
            diffs = [n for n in OUTPUTS if files_a[n] != files_b[n]]
            if aborts:
                diffs += ["stderr"] if last_a != last_b else []
            status = "DIFFERS" if diffs or code_a != code_b else "identical" if (code_b != 0) == aborts else "FAILED"
            print(f"{status:9s} {name} (exit {code_a} -> {code_b}{''.join(', ' + n for n in diffs)})", flush=True)
            for n in diffs:
                if n == "stderr":
                    print(f"          stderr: {last_a!r} -> {last_b!r}", flush=True)
                elif files_a[n] is not None and files_b[n] is not None:
                    what, differing_parts = DIFFERING_PARTS[n]
                    print(f"          {n} {what}: {', '.join(differing_parts(files_a[n], files_b[n]))}", flush=True)
            differing += status != "identical"
    digests = {label: library_digest(tree) for label, tree in trees.items()}
    same = digests["parent"] == digests["change"]
    print(f"{'identical' if same else 'DIFFERS':9s} library-acceptance-grids (fields.f64 "
          f"{digests['parent']}" + ("" if same else f" -> {digests['change']}") + ")")
    differing += not same
    print(f"{differing} of {len(CASES) + len(ABORT_CASES) + 1} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
