#!/usr/bin/env python3
"""Check that two source trees give byte-identical outputs.

Runs a fixed list of CLI invocations once against each tree's ``src/``, each
in its own ``python -m fpcascade`` subprocess, and compares the exit codes and
``density.csv`` and ``summary.json`` byte for byte.  Then it compares the
sha256 of the solved fields of the ``lib_acceptance_grids`` benchmark
workload (``fields.f64``), run from this checkout's ``perfbench/``.
Prints one line per case and exits 1 on any difference, or on a case that
exits nonzero in both trees (it then has no outputs to compare).

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
# sees no boundary leak up to t = 1.5
FAST = ("--x-min", "-16", "--x-max", "16", "--nx", "161", "--t0", "0.1", "--t-max", "1.5",
        "--nt", "29", "--paths", "3000", "--mc-dt", "0.01", "--seed", "7")

# (name, argv, JSON config or None): every subcommand and family, the three
# modulations, orders 0, 3 and 8, lam = 0 and negative, two cascades that
# march through several time blocks with a partial last one (99 and 66 steps
# against hierarchy._BLOCK = 32), and small stand-ins for the two CLI
# benchmark workloads at two seeds each.  Every case exits 0 (later flags
# override earlier ones).
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
    ("ou-lambda0", ("ou", "--lambda", "0", *FAST), None),
    ("ou-negative-lambda", ("ou", "--lambda", "-0.2", *FAST, "--x-min", "-20", "--x-max", "20", "--nx", "201"),
     None),
    ("ou-sweep", ("ou", "--lambda-sweep", "0.01,0.03,0.09", *FAST), None),
    ("custom-zero", ("custom", *FAST), {"family": "zero"}),
    ("custom-quadratic", ("custom", *FAST),
     {"family": "quadratic_ou", "lam": 0.15, "checkpoints": [0.5, 1.0], "tolerances": {"mass_tol": 1e-7}}),
    *((f"w1-standin-seed{seed}", ("example1", "--nx", "481", "--nt", "100", "--paths", "5000",
                                  "--mc-dt", "0.01", "--seed", str(seed)), None) for seed in (0, 3)),
    *((f"w2-standin-seed{seed}", ("ou", "--lambda", "0.1", "--x-min", "-12", "--x-max", "12", "--nx", "241",
                                  "--t0", "0.05", "--t-max", "1", "--nt", "21", "--paths", "20000",
                                  "--mc-dt", "0.005", "--seed", str(seed)), None) for seed in (0, 5)),
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
    """Run one invocation against ``tree``; returns (exit code, output bytes)."""
    out_dir.mkdir(parents=True)
    argv = [*argv, "--out", str(out_dir)]
    if config is not None:
        path = out_dir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    proc = subprocess.run([sys.executable, "-m", "fpcascade", *argv], env=_env(tree),
                          capture_output=True, text=True)
    files = {name: (out_dir / name).read_bytes() if (out_dir / name).exists() else None for name in OUTPUTS}
    return proc.returncode, files


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
        for name, case_argv, config in CASES:
            results = {label: run_case(tree, case_argv, config, Path(tmp) / label / name)
                       for label, tree in trees.items()}
            (code_a, files_a), (code_b, files_b) = results["parent"], results["change"]
            diffs = [n for n in OUTPUTS if files_a[n] != files_b[n]]
            status = "DIFFERS" if diffs or code_a != code_b else "identical" if code_b == 0 else "FAILED"
            print(f"{status:9s} {name} (exit {code_a} -> {code_b}{''.join(', ' + n for n in diffs)})", flush=True)
            differing += status != "identical"
    digests = {label: library_digest(tree) for label, tree in trees.items()}
    same = digests["parent"] == digests["change"]
    print(f"{'identical' if same else 'DIFFERS':9s} library-acceptance-grids (fields.f64 "
          f"{digests['parent']}" + ("" if same else f" -> {digests['change']}") + ")")
    differing += not same
    print(f"{differing} of {len(CASES) + 1} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
