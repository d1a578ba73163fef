"""Spans around the program's layer boundaries, recorded from outside the
program.

``Tracer`` replaces module attributes that the program looks up at call time
(``fpcascade.cli``'s imported names, ``kernels.bm_normals``, ...) with
wrappers that record one span per call: name, start, end, parent span and a
work count taken from the arguments.  Spans stay in memory until the caller
writes them out.  A target that does not exist is recorded as missing and
left alone, so a renamed function shows up as a missing span rather than as
zero time or a failed run.  Leaving the ``with`` block restores every
original attribute, also when the traced code raised.
"""

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


def _size(arg_index):
    return lambda args: int(args[arg_index].size)


@dataclass(frozen=True)
class Target:
    """Span ``name`` around ``module.attr``; ``count`` maps the call's
    positional arguments to the work it does, reported as ``<name>_<unit>``."""

    module: str
    attr: str
    name: str
    count_unit: str = ""
    count: object = None


# The CLI resolves the names it imported through its own module globals and
# the library workload resolves them through their defining modules, so both
# bindings are wrapped; each call passes through exactly one of them.
LAYER_FUNCTIONS = (
    ("model", "validate_config"),
    ("hierarchy", "analytic_expansion"),
    ("hierarchy", "solve_expansion"),
    ("hierarchy", "assemble_density"),
    ("reference", "oracle_density"),
    ("reference", "fp_fd_solve"),
    ("reference", "em_simulate"),
    ("reference", "density_from_samples"),
)

TARGETS = (
    *(Target("fpcascade.cli", attr, f"{layer}.{attr}") for layer, attr in LAYER_FUNCTIONS),
    *(Target(f"fpcascade.{layer}", attr, f"{layer}.{attr}") for layer, attr in LAYER_FUNCTIONS),
    Target("fpcascade.cli", "_check_emission", "cli._check_emission"),
    Target("fpcascade.cli", "_summarize", "cli._summarize"),
    Target("fpcascade.cli", "_write_outputs", "cli._write_outputs"),
    # cascade_cn_step(x, tm, d, dt, dx, s_in, qbar, s_out): x is the padded row
    Target("fpcascade.kernels", "cascade_cn_step", "kernels.cascade_cn_step", "nodes", _size(0)),
    # fp_cn_step(a_half, d, dt, dx, w_in, w_out)
    Target("fpcascade.kernels", "fp_cn_step", "kernels.fp_cn_step", "nodes", _size(4)),
    # bm_normals(states, k, out): one normal per entry of out
    Target("fpcascade.kernels", "bm_normals", "kernels.bm_normals", "normals", _size(2)),
)


class Tracer:
    """Context manager that wraps ``targets`` while active.

    ``spans`` is a list of ``[name, start, end, parent, count]`` with times
    from ``time.perf_counter`` and ``parent`` the index of the enclosing span
    (-1 at top level).  ``missing`` names the spans none of whose targets
    exist.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        wrapped = set()
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))
            wrapped.add(target.name)
        self.missing = [n for n in dict.fromkeys(t.name for t in self.targets) if n not in wrapped]
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = 0
            if target.count is not None:
                try:
                    count = target.count(args)
                except (IndexError, AttributeError, TypeError):
                    count = -1
            index = len(spans)
            spans.append([target.name, clock(), 0.0, stack[-1] if stack else -1, count])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def summarize(spans, missing, targets=TARGETS):
    """Per-span totals from recorded spans.

    Returns a dict with, for every span name, ``<name>_s`` (total time),
    ``<name>_calls`` and ``<name>_self_s`` (time not covered by child spans),
    plus ``<name>_<unit>`` for counted targets, and ``top_level_s``, the time
    covered by spans without a parent.  Metrics of missing spans are absent.
    A count whose arguments could not be read is -1.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    counts = defaultdict(int)
    for name, start, end, parent, count in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[spans[parent][0]] += end - start
        if count < 0 or counts[name] < 0:
            counts[name] = -1
        else:
            counts[name] += count
    out = {"top_level_s": sum(end - start for _, start, end, parent, _ in spans if parent < 0)}
    units = {t.name: t.count_unit for t in targets}
    for name, unit in units.items():
        if name in missing:
            continue
        out[f"{name}_s"] = total[name]
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_self_s"] = total[name] - child_time[name]
        if unit:
            out[f"{name}_{unit}"] = counts[name]
    return out


def em_path_steps(spans):
    """Euler-Maruyama path steps: the normals drawn inside each em_simulate
    span, less the first draw, which sets the initial positions."""
    steps = 0
    firsts = set()
    for name, _, _, parent, count in spans:
        if name == "kernels.bm_normals" and parent >= 0 and spans[parent][0] == "reference.em_simulate":
            if parent in firsts:
                steps += count
            else:
                firsts.add(parent)
    return steps
