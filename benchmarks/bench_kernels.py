#!/usr/bin/env python3
"""Time the hot kernels on representative workloads.

Prints the best-of-N wall time of each kernel loop: the two Crank-Nicolson
steps with their band assembly (one cascade band per step; one density band
for a drift constant in time), the whole numeric cascade
(``hierarchy.solve_expansion``) at orders 2 and 8 on the refined criterion-2
grid, the sampler's draws (one ``Generator(SFC64)`` per block of paths,
drawn for half the block and negated into the other half: normals, and the
random bytes mapped through the four-point table that all but the last four
steps into a checkpoint draw), and the Euler-Maruyama step (drift into a
work buffer plus the in-place update, ``reference.em_step``) at the
path-chunk widths of the default example1 run and of a 100k-path OU run on
two CPUs.  It also times ``import fpcascade.cli``, the start-up every CLI
run pays, in fresh ``python -c`` subprocesses (the import alone, not the
interpreter start).
Each row gives the best of ``--repeats`` runs and their spread (worst minus
best); the draw rows also give the best in nanoseconds per path-step.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

import fpcascade.kernels as K
from fpcascade.hierarchy import solve_expansion
from fpcascade.model import Grid, linear_time_modulated, quadratic_ou
from fpcascade.oracles import ModulationV
from fpcascade.reference import _EM_BLOCK, _FOUR_POINT, em_step


def timings(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def import_cli_times(repeats):
    # each run a fresh interpreter that times the import itself
    code = "import time; t = time.perf_counter(); import fpcascade.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(Path(K.__file__).resolve().parents[1]))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]


def bench_cascade(nx=801, nt=500):
    x = np.linspace(-10.0, 10.0, nx)
    dx = x[1] - x[0]
    dt = 4.99 / (nt - 1)
    t = 0.01 + np.arange(nt) * dt
    s = -(x * x) / 4.0
    dq = dt * 0.5 * np.ones_like(x)

    def run():
        cur = s.copy()
        nxt = np.empty_like(cur)
        for tm in t[:-1] + 0.5 * dt:
            K.cascade_cn_step(cur, K.cascade_band(x, tm, 1.0, dt, dx), dq, nxt)
            cur, nxt = nxt, cur

    return run


def bench_fp(nx=1601, nt=1101):
    x = np.linspace(-12.0, 12.0, nx)
    dx = x[1] - x[0]
    dt = 0.99 / (nt - 1)
    w = np.exp(-x * x / 0.04)
    w /= w.sum() * dx
    w[0] = w[-1] = 0.0
    a_half = -0.1 * (x[:-1] + dx / 2)

    def run():
        cur = w.copy()
        nxt = np.empty_like(cur)
        band = K.fp_band(a_half, 1.0, dt, dx)
        for _ in range(nt - 1):
            K.fp_cn_step(cur, band, nxt)
            cur, nxt = nxt, cur

    return run


def bench_solve_expansion(order):
    # the refined criterion-2 cascade grid of the lib_acceptance_grids
    # benchmark workload (1601 x 999, padded to 2265 nodes), example1 at lam 0.5
    grid = Grid(-10.0, 10.0, 801, 0.01, 5.0, 500).refined()
    drift = linear_time_modulated(ModulationV("cos", 1.0))
    return lambda: solve_expansion(drift, 1.0, 0.5, order, grid)


# paths and steps of the draw benchmarks
DRAWS = (100000, 200)


def bench_draws(four_point, n_paths=DRAWS[0], n_steps=DRAWS[1]):
    # per block and step, ceil(m/2) draws into the first half of its slice of
    # z and their negations into the rest, as reference._em_paths does:
    # normals, or the bytes of raw words through the scaled four-point table
    gens = [Generator(SFC64(SeedSequence(20107, spawn_key=(b,)))) for b in range(-(-n_paths // _EM_BLOCK))]
    z = np.empty(n_paths)
    pairs = []
    for gen, lo in zip(gens, range(0, n_paths, _EM_BLOCK)):
        m = min(_EM_BLOCK, n_paths - lo)
        h = (m + 1) // 2
        pairs.append((gen, z[lo : lo + h], z[lo + h : lo + m], z[lo : lo + m - h]))

    table = _FOUR_POINT * 0.045  # sqrt(2 D h) at h = 1e-3

    def run():
        for _ in range(n_steps):
            for gen, drawn, mirrored, source in pairs:
                if four_point:
                    words = gen.bit_generator.random_raw(-(-len(drawn) // 8))
                    np.take(table, words.astype("<u8", copy=False).view(np.uint8)[: len(drawn)], out=drawn,
                            mode="clip")
                else:
                    gen.standard_normal(out=drawn)
                np.negative(source, out=mirrored)

    return run


def bench_em_step(drift, lam, n_paths, n_steps=1000):
    rng = np.random.default_rng(20107)
    x0 = rng.normal(size=n_paths)
    z = 0.045 * rng.normal(size=n_paths)  # sqrt(2 D h) * N(0, 1) at h = 1e-3
    x = np.empty(n_paths)
    a = np.empty(n_paths)

    def run():
        x[:] = x0
        for j in range(n_steps):
            em_step(drift, lam, x, 0.05 + j * 1e-3, 1e-3, z, a)

    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    example1 = linear_time_modulated(ModulationV("cos", 1.0))
    draws = {
        "normals (1e5 paths x 200 steps)": bench_draws(False),
        "four-point bytes (1e5 x 200)": bench_draws(True),
    }
    benches = {
        "cascade CN loop (801 x 500)": bench_cascade(),
        "density CN loop (1601 x 1101)": bench_fp(),
        "solve_expansion order 2 (1601 x 999)": bench_solve_expansion(2),
        "solve_expansion order 8 (1601 x 999)": bench_solve_expansion(8),
        **draws,
        "EM step, example1 (1e4 x 1000)": bench_em_step(example1, 0.2, 10000),
        "EM step, OU (5e4 x 1000)": bench_em_step(quadratic_ou(), 0.1, 50000),
    }
    rows = {"import fpcascade.cli (fresh process)": import_cli_times(args.repeats)}
    rows.update((name, timings(run, args.repeats)) for name, run in benches.items())
    print(f"{'kernel':<38} {'best':>10} {'spread':>10}")
    for name, times in rows.items():
        per_step = f" {min(times) / (DRAWS[0] * DRAWS[1]) * 1e9:>6.2f} ns/path-step" if name in draws else ""
        print(f"{name:<38} {min(times):>9.4f}s {max(times) - min(times):>9.4f}s{per_step}")


if __name__ == "__main__":
    main()
