"""Benchmark of the fpcascade pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Every run of the workload is a fresh child process (``child.py``), one at a
time, so each timing sees one single-threaded process.

``--trace 0`` times set-up in several set-up-only children, then runs the
workload until ``--seconds`` are spent (at least three runs) and reports the
medians of the end-to-end metrics named in BENCHMARK.json.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics from
the traced ones; the tracing overhead is the difference of the two medians.
Every run's outputs are checked (``workloads.py``); a run that exits nonzero
or fails a check counts as failed.

A readable report goes to stdout and the full record, with environment
metadata and output hashes, to ``.perfbench_out/``.  The last line of stdout
is the JSON result.  See README.md beside this file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
SEED_HASHES = BENCH / "seed_hashes.json"

SETUP_SAMPLES = 7
MIN_RUNS = 3
# for a seed not in seed_hashes.json, outputs are compared at this seed instead
REFERENCE_SEED = 0
# children are cut off so the whole invocation ends within this many seconds
HARD_LIMIT_S = 170.0
# a span metric reads this when its target is missing from the program
MISSING = -1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="fpcascade pipeline benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts one child at a time and keeps every record it returns."""

    def __init__(self, workload, started, limit=HARD_LIMIT_S):
        self.workload = workload
        self.started = started
        self.limit = limit
        self.records = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def run(self, seed, kind):
        """Run a child of ``kind`` ("setup", "run", "traced" or "reference",
        an untraced run kept out of the timings); returns its
        record, with ``ok`` False and a ``why`` when it failed."""
        out_dir, result_path = OUT / f"run-{os.getpid()}", OUT / f"child-{os.getpid()}.json"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
               "--seed", str(seed), "--out", str(out_dir), "--result", str(result_path)]
        if kind == "setup":
            cmd.append("--setup-only")
        if kind == "traced":
            cmd += ["--spans", str(OUT / f"spans-{self.workload}-seed{seed}.json")]
        timeout = None if self.limit is None else max(5.0, self.limit - self.elapsed())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            record = {"ok": False, "why": f"timed out after {timeout:.0f} s"}
        else:
            if proc.returncode != 0 or not result_path.exists():
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
                record = {"ok": False, "why": f"child exit {proc.returncode}: {' | '.join(tail)}"}
            else:
                record = json.loads(result_path.read_text())
                record["ok"] = not record.get("problems")
                if not record["ok"]:
                    record["why"] = "; ".join(record["problems"])
        record.update(kind=kind, seed=seed, wall_s=time.monotonic() - t0)
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        self.records.append(record)
        return record

    def elapsed(self):
        return time.monotonic() - self.started

    def workload_runs(self):
        return [r for r in self.records if r["kind"] != "setup"]


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def environment(versions):
    env = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), **versions}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        commit = status = None
    ok = commit is not None and commit.returncode == 0 and status.returncode == 0
    env["git_commit"] = commit.stdout.strip() if ok else None
    env["git_dirty"] = bool(status.stdout.strip()) if ok else None
    return env


def end_to_end_metrics(runner, args):
    """Set-up samples, then timed runs until ``--seconds`` are spent."""
    setups = [runner.run(args.seed, "setup") for _ in range(SETUP_SAMPLES)]
    while True:
        done = runner.workload_runs()
        if len(done) >= MIN_RUNS:
            estimate = statistics.median(r["wall_s"] for r in done)
            if runner.elapsed() + estimate > args.seconds:
                break
        if runner.elapsed() > HARD_LIMIT_S / 2 and done:
            break
        runner.run(args.seed, "run")
    good = [r for r in runner.workload_runs() if r["ok"]]
    if not good:
        return None, {}
    errors = {}
    for kind in ("fd", "cascade", "mc"):
        values = [r["errors"][kind] for r in good if kind in r["errors"]]
        if values:
            errors[kind] = max(values)
    metrics = {
        "run_s": median_of(good, "run_s"),
        "setup_s": median_of([r for r in setups + good if r["ok"]], "setup_s"),
        "peak_rss_mb": median_of(good, "peak_rss_mb"),
        "fd_l1_err": errors.get("fd"),
        "cascade_l1_err": errors.get("cascade"),
    }
    extra = {
        "mc_l1_err": errors.get("mc"),
        "cpu_s": median_of(good, "cpu_s"),
        "run_s_quartiles": quartiles([r["run_s"] for r in good]),
        "setup_s_samples": len([r for r in setups + good if r["ok"]]),
    }
    return metrics, extra


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def seed_key(table, seed):
    """Key of ``seed`` in a workload's table of seed-code output hashes."""
    return "*" if "*" in table else str(seed)


def outputs_match_seed(records, table):
    """1 when the outputs of every successful run at a seed in ``table`` hash
    the same as the reference outputs, else 0 (also when there is no such
    run)."""
    checked = [r for r in records if r["ok"] and seed_key(table, r["seed"]) in table]
    return int(bool(checked) and all(r["hashes"] == table[seed_key(table, r["seed"])] for r in checked))


def select_metrics(names, computed, missing):
    """The values of ``names``; a metric of a missing span reads MISSING."""
    metrics = {}
    for name in names:
        if name in computed:
            metrics[name] = computed[name]
        elif any(name.startswith(f"{span}_") for span in missing):
            metrics[name] = MISSING
        else:
            raise KeyError(f"per-layer metric {name!r} is not measured")
    return metrics


def per_layer_metrics(runner, args, names):
    """Alternating untraced and traced runs until ``--seconds`` are spent."""
    seed_hashes = json.loads(SEED_HASHES.read_text()) if SEED_HASHES.exists() else {}
    table = seed_hashes.get(args.workload, {})
    if seed_key(table, args.seed) not in table:
        runner.run(REFERENCE_SEED, "reference")  # only for cli.outputs_match_seed
    order = ("run", "traced")
    pair = 0
    while True:
        done = runner.workload_runs()
        if len(done) >= 2:
            estimate = 2 * statistics.median(r["wall_s"] for r in done)
            if runner.elapsed() + estimate > args.seconds or runner.elapsed() > HARD_LIMIT_S / 2:
                break
        for kind in (order if pair % 2 == 0 else order[::-1]):
            runner.run(args.seed, kind)
        pair += 1
    plain = [r for r in runner.workload_runs() if r["ok"] and r["kind"] == "run"]
    traced = [r for r in runner.workload_runs() if r["ok"] and r["kind"] == "traced"]
    if not plain or not traced:
        return None, {}
    missing = traced[0]["trace"]["missing"]
    # times are medians over the traced runs; counts repeat exactly
    computed = dict(traced[0]["trace"]["layers"])
    for name in computed:
        if name.endswith("_s"):
            computed[name] = statistics.median(r["trace"]["layers"][name] for r in traced)
    traced_run_s = median_of(traced, "run_s")
    computed.update({
        "cli.density_csv_bytes": traced[0]["csv_bytes"],
        "cli.outputs_match_seed": outputs_match_seed(runner.workload_runs(), table),
        "trace.overhead_s": traced_run_s - median_of(plain, "run_s"),
        "trace.uncovered_s": statistics.median(
            r["run_s"] - r["trace"]["layers"]["top_level_s"] for r in traced),
        "trace.missing_spans": len(missing),
    })
    metrics = select_metrics(names, computed, missing)
    extra = {"traced_run_s": traced_run_s, "untraced_run_s": median_of(plain, "run_s"),
             "missing_spans": missing}
    return metrics, extra


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "fpcascade" / "__init__.py").is_file():
        sys.exit(f"no fpcascade package under {ROOT / 'src'}; run from a checkout of the repository")
    spec = json.loads(SPEC.read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, time.monotonic())
    warm = runner.run(args.seed, "setup")  # byte-compiles the package; not counted
    if not warm["ok"]:
        sys.exit(f"set-up failed: {warm['why']}")
    runner.records.clear()
    if args.trace:
        metrics, extra = per_layer_metrics(runner, args, list(units))
    else:
        metrics, extra = end_to_end_metrics(runner, args)
    runs = runner.workload_runs()
    failed = sum(not r["ok"] for r in runs)
    if metrics is None or any(v is None for v in metrics.values()):
        for r in runs:
            print(f"run failed: {r.get('why')}", file=sys.stderr)
        sys.exit("no successful run to measure")

    env = environment(warm["versions"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "metrics": metrics, "extra": extra,
              "attempted": len(runs), "failed": failed, "runs": runner.records}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:<14.6g} {units[name]}")
    print(f"  {'failure_rate':40s} {failed / len(runs):<14.6g} 1")
    for name, value in extra.items():
        if value is not None:
            print(f"  {name:40s} {value}")
    hashes = {r["seed"]: r["hashes"] for r in runs if r["ok"]}
    for seed, digests in hashes.items():
        print(f"  sha256 seed {seed}: " + "  ".join(f"{k} {v}" for k, v in digests.items()))
    print(f"  environment: {json.dumps(env)}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    for r in runs:
        if not r["ok"]:
            print(f"  failed run ({r['kind']}, seed {r['seed']}): {r['why']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
