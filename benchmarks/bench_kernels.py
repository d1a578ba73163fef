#!/usr/bin/env python3
"""Time the hot kernels on representative workloads.

Prints the best-of-N wall time of each kernel loop: the two Crank-Nicolson
steps with their band assembly (one cascade band per step; one density band
for a drift constant in time), the whole numeric cascade
(``hierarchy.solve_expansion``) at orders 2 and 8 on the refined criterion-2
grid, the sampler's normal draws (one ``Generator(SFC64)`` per block of
paths), and the Euler-Maruyama step (drift into a work buffer plus the
in-place update, ``reference.em_step``) at the path-chunk widths of the
default example1 run and of a 100k-path OU run on two CPUs.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

import fpcascade.kernels as K
from fpcascade.hierarchy import solve_expansion
from fpcascade.model import Grid, linear_time_modulated, quadratic_ou
from fpcascade.oracles import ModulationV
from fpcascade.reference import _EM_BLOCK, em_step


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


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
        for band in K.cascade_bands(x, t[:-1] + 0.5 * dt, 1.0, dt, dx):
            K.cascade_cn_step(cur, band, dq, nxt)
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


def bench_normals(n_paths=100000, n_steps=200):
    # one draw per block and step into a slice of z, as reference._em_paths does
    gens = [Generator(SFC64(SeedSequence(20107, spawn_key=(b,)))) for b in range(-(-n_paths // _EM_BLOCK))]
    z = np.empty(n_paths)

    def run():
        for _ in range(n_steps):
            for b, gen in enumerate(gens):
                gen.standard_normal(out=z[b * _EM_BLOCK : (b + 1) * _EM_BLOCK])

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
    benches = {
        "cascade CN loop (801 x 500)": bench_cascade(),
        "density CN loop (1601 x 1101)": bench_fp(),
        "solve_expansion order 2 (1601 x 999)": bench_solve_expansion(2),
        "solve_expansion order 8 (1601 x 999)": bench_solve_expansion(8),
        "normals (1e5 paths x 200 steps)": bench_normals(),
        "EM step, example1 (1e4 x 1000)": bench_em_step(example1, 0.2, 10000),
        "EM step, OU (5e4 x 1000)": bench_em_step(quadratic_ou(), 0.1, 50000),
    }
    print(f"{'kernel':<38} {'best':>10}")
    for name, run in benches.items():
        print(f"{name:<38} {best_of(run, args.repeats):>9.4f}s")


if __name__ == "__main__":
    main()
