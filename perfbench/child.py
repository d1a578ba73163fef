"""One benchmark run of one workload in a fresh, single-threaded process.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --result FILE
                               [--setup-only] [--spans FILE]

Set-up is timed from before ``import fpcascade`` to after ``validate_config``
of the workload's configs.  The run is timed around ``fpcascade.cli.main``
(or the library calls); peak RSS is read right after it, before the outputs
are checked.  With ``--spans`` the run is traced and the spans are written to
that file when the run ends.  The result, including the check's verdict, goes
to ``--result`` as JSON; the exit code is nonzero only when this script itself
failed.
"""

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory of the run")
    p.add_argument("--result", required=True, help="JSON file for the result")
    p.add_argument("--setup-only", action="store_true", help="time set-up, skip the run")
    p.add_argument("--spans", default=None, help="trace the run and write its spans here")
    return p.parse_args(argv)


def run_workload(workload, fpcascade, seed, out_dir, spans_path=None):
    """Time one run of ``workload`` and check its outputs.

    Returns the result dict: ``run_s``, ``cpu_s``, ``peak_rss_mb``,
    ``exit_code``, ``errors``, ``hashes``, ``csv_bytes`` and ``problems``
    (empty when the run is correct), plus ``trace`` when traced.
    """
    tracer = spans.Tracer() if spans_path else contextlib.nullcontext()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer:
        exit_code, state = workload.run(fpcascade, seed, out_dir)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "errors": {},
        "hashes": {},
        "csv_bytes": 0,
        "problems": [],
    }
    if exit_code != 0:
        result["problems"].append(f"exit code {exit_code}")
    else:
        errors, hashes, problems = workload.check(seed, out_dir, state)
        for kind, tol in workload.tolerances.items():
            if kind not in errors:
                problems.append(f"no {kind} error was measured")
            elif not errors[kind] <= tol:
                problems.append(f"{kind} L1 error {errors[kind]:.3e} exceeds {tol:g}")
        csv_path = Path(out_dir) / "density.csv"
        result.update(errors=errors, hashes=hashes, problems=problems,
                      csv_bytes=csv_path.stat().st_size if csv_path.exists() else 0)
    if spans_path:
        layers = spans.summarize(tracer.spans, tracer.missing)
        layers["reference.em_path_steps"] = spans.em_path_steps(tracer.spans)
        result["trace"] = {"layers": layers, "missing": tracer.missing, "n_spans": len(tracer.spans)}
        Path(spans_path).write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "count"], "spans": tracer.spans}))
    return result


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    import fpcascade
    import fpcascade.cli
    from workloads import SMOKE, WORKLOADS

    workloads = dict(WORKLOADS, smoke=SMOKE)
    if args.workload not in workloads:
        sys.exit(f"unknown workload {args.workload!r}")
    workload = workloads[args.workload]
    for fields in workload.configs(args.seed):
        fpcascade.model.validate_config(fpcascade.model.RunConfig(**fields))
    setup_s = time.perf_counter() - start

    source = Path(fpcascade.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        sys.exit(f"imported fpcascade from {source}, not from {ROOT / 'src'}")

    import numpy
    import scipy

    lane = getattr(fpcascade.kernels, "active_lane", lambda: None)()
    result = {
        "setup_s": setup_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "kernel_lane": lane},
    }
    if not args.setup_only:
        result.update(run_workload(workload, fpcascade, args.seed, args.out, args.spans))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
