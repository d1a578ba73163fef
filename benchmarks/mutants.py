#!/usr/bin/env python3
"""Plant known faults in copies of the tree and check that tier-1 catches them.

Each mutant of MUTANTS replaces one piece of text in one file.  It is applied
to a fresh temporary copy of the tree, never to the tree itself, and the
tier-1 suite runs on that copy with ``-x``.  A mutant is "killed" when a test
fails and "survives" when the suite passes.  Prints one line per mutant with
its verdict and the first failing test, and exits 1 when a mutant expected to
be killed survives or when a mutant's text is not in its file (the table is
stale).  The whole table takes a few minutes: a surviving mutant runs all of
tier-1.

    python3 benchmarks/mutants.py [--tree DIR] [NAME ...]

DIR is the root of a checkout (it holds ``src/fpcascade`` and ``tests``),
this one by default; NAMEs pick mutants from the table.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

KILLED = "killed"
SURVIVES = "survives"

# (name, file, old text, new text, expected verdict)
MUTANTS = (
    ("em-drift-sign", "src/fpcascade/reference.py",
     "np.multiply(a, -h, out=a)", "np.multiply(a, h, out=a)", KILLED),
    ("em-noise-sqrt-d", "src/fpcascade/reference.py",
     "noise_scale = np.sqrt(2.0 * d_coeff)", "noise_scale = np.sqrt(d_coeff)", KILLED),
    # a consistent first-order scheme of its own: only the bitwise comparison
    # with a one-step re-implementation sees it
    ("em-drift-at-step-end", "src/fpcascade/reference.py",
     "em_step(drift, lam, x, t_now, h, z, a)", "em_step(drift, lam, x, t_now + h, h, z, a)", KILLED),
    # a four-point law whose fourth moment is 2.8, not the normal's 3
    ("em-four-point-weights", "src/fpcascade/reference.py",
     "_B2 = 1.0 - math.sqrt(2.0 / 3.0)", "_B2 = 1.0 - math.sqrt(0.6)", KILLED),
    # a segment of a few steps is then a sum of a few lattice values
    ("em-normal-tail-dropped", "src/fpcascade/reference.py",
     "_EM_NORMAL_TAIL = 4", "_EM_NORMAL_TAIL = 0", KILLED),
    ("fd-drift-sign", "src/fpcascade/reference.py",
     "np.negative(a_next, out=a_next)", "np.positive(a_next, out=a_next)", KILLED),
    ("fd-drift-at-output-step-start", "src/fpcascade/reference.py",
     "drift.du_dx(x_half, tm)", "drift.du_dx(x_half, grid.t[j])", KILLED),
    ("fd-substep-ratio-0.4", "src/fpcascade/reference.py",
     "FD_SUBSTEP_RATIO = 0.05", "FD_SUBSTEP_RATIO = 0.4", KILLED),
    # for a drift constant in time this changes nothing; the checks of the
    # substep schedule and the FD order checks of the linear family see it
    ("fd-substep-drift-at-start", "src/fpcascade/reference.py",
     "[(a + 0.5 * (b - a), b - a) for a, b in", "[(a, b - a) for a, b in", KILLED),
    ("ou-s2-coefficient", "src/fpcascade/oracles.py",
     "_OU_EVEN_COEFFS = {2: -1.0 / 12.0,", "_OU_EVEN_COEFFS = {2: -0.08334,", KILLED),
    ("cascade-advection-sign", "src/fpcascade/kernels.py",
     "a = -x / tm", "a = x / tm", KILLED),
    ("cascade-source-average-0.49", "src/fpcascade/hierarchy.py",
     "dq *= 0.5", "dq *= 0.49", KILLED),
    # every step averages its new source against the one at t0
    ("cascade-source-not-carried", "src/fpcascade/hierarchy.py",
     "rows[i], sources[i] = row, q", "rows[i] = row", KILLED),
    # a higher order's source takes the lower orders' rows of the step before
    ("cascade-gradient-of-old-row", "src/fpcascade/hierarchy.py",
     "grads.append(_gradient(row, dx))", "grads.append(_gradient(rows[i], dx))", KILLED),
    # a shift of 0.05 dx is below the Monte Carlo checks' noise; the check of
    # samples just off the grid's edges sees it
    ("histogram-edges-0.05dx", "src/fpcascade/reference.py",
     "(np.arange(grid.nx + 1) - 0.5) * grid.dx", "(np.arange(grid.nx + 1) - 0.45) * grid.dx", KILLED),
    ("histogram-edges-0.25dx", "src/fpcascade/reference.py",
     "(np.arange(grid.nx + 1) - 0.5) * grid.dx", "(np.arange(grid.nx + 1) - 0.25) * grid.dx", KILLED),
    # the first checkpoint slice is formatted before w_mc exists, and again after
    ("csv-first-checkpoint-before-w-mc", "src/fpcascade/cli.py",
     "map(rows, range(first))", "map(rows, range(first + 1))", KILLED),
)

# what the copy leaves out: version control, caches and run outputs
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out")


def run_mutant(tree: Path, path: str, old: str, new: str):
    """Apply one mutant to a copy of ``tree`` and run tier-1 there with -x;
    returns (verdict, first failing test or None), or None when ``old`` is
    not in the file exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_SKIP)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return None
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
                               "-p", "no:cacheprovider"], cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return SURVIVES, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.M)
    return KILLED, failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to mutate copies of (default: this one)")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "fpcascade").is_dir():
        parser.error(f"--tree {tree} holds no src/fpcascade")
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    bad = 0
    for name, path, old, new, expected in MUTANTS:
        if args.names and name not in args.names:
            continue
        result = run_mutant(tree, path, old, new)
        if result is None:
            print(f"STALE     {name}: {old!r} is not in {path} exactly once", flush=True)
            bad += 1
            continue
        verdict, test = result
        note = "" if verdict == expected else f" (expected {expected})"
        print(f"{verdict:9s} {name}{note}{' by ' + test if test else ''}", flush=True)
        bad += verdict == SURVIVES and expected == KILLED
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
