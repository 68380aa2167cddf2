"""One workload in one fresh process: set up, then time requests in passes.

Started by run.py with the thread and hash-seed settings in its environment.
It prints "ready" once the first request can run. With --setup-only it
stops there; otherwise it runs one untimed warm-up request, then passes over
the requests, each pass in a new seeded order, until --seconds are used (at
least MIN_PASSES passes), and prints one JSON line of measurements. Without
tracing it also spawns SETUP_SAMPLES setup-only workers, one at a time and
spread over the run, since the machine's speed changes within seconds.
Between requests it runs gc.collect() and a fixed probe that shares no code
with selfsim; each latency divided by the mean of the probes just before and
after it gives a figure that machine-speed drift affects less.

With --trace 1 odd passes run under the tracer and even passes without it,
so the per-layer figures and the untraced baseline for the tracing overhead
come from the same process.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy
import selfsim

import tracer
import workloads
from run import ONE_THREAD

clock = time.perf_counter
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 8
PROBE_LOOPS = 20000


@functools.cache
def _probe_arrays() -> tuple:
    rng = numpy.random.default_rng(0)
    sym = rng.standard_normal((128, 128))
    return rng.permutation(1 << 16).astype(numpy.int32), sym + sym.T


def probe() -> float:
    """Seconds taken by a fixed mix of work like the workloads' own: a dict and
    tuple loop (about 6 ms), a numpy gather, unique and sort (about 3 ms) and a
    small dense eigvalsh (about 1 ms). Python code and numpy code slow down by
    different factors when the machine is busy, so the probe holds both."""
    perm, sym = _probe_arrays()
    t0 = clock()
    table: dict = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(key)
    mixed = perm[perm]
    numpy.unique(mixed[::3])
    numpy.sort(mixed)
    numpy.linalg.eigvalsh(sym)
    return clock() - t0


def _verify(req, result, checked: dict[str, str | None]) -> str | None:
    """Problem with one execution's output, or None; checked caches check() per fingerprint."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    fingerprint = req.fingerprint(result)
    if fingerprint not in checked:
        checked[fingerprint] = req.check(result)
    if checked[fingerprint]:
        return checked[fingerprint]
    if req.expected is not None and fingerprint != req.expected:
        return f"output {fingerprint} differs from the frozen {req.expected}"
    if len(checked) > 1:
        return "output differs between executions"
    return None


def _sum_medians(samples: list[list[float]]) -> float:
    return sum(statistics.median(s) for s in samples)


def setup_seconds(workload: str, seed: int) -> float:
    """Spawn to first-request-ready time of a worker that stops there."""
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    t1 = clock()
    proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup-only worker failed: {line!r}, exit {proc.returncode}")
    return t1 - t0


def measure(reqs, rng: random.Random, seconds: float, trace: bool = False,
            spans_path: str | None = None, setup=None) -> dict:
    """Time reqs in passes; setup, if given, is sampled SETUP_SAMPLES times spread over the run."""
    tracing = tracer.Tracer() if trace else None
    n = len(reqs)
    latency = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    probed = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}  # probe just before
    layers: list[list] = [[] for _ in range(n)]
    checked: list[dict[str, str | None]] = [{} for _ in range(n)]
    failures: list[str] = []
    probes: list[float] = []
    setups: list[float] = []
    attempted = 0

    reqs[0].run()  # warm-up, untimed and unchecked
    start = clock()
    deadline = start + seconds
    passes = traced_passes = 0
    order = list(range(n))
    while True:
        traced = trace and passes % 2 == 1
        if traced:
            tracing.install()
        pass_start = clock()
        rng.shuffle(order)
        for i in order:
            req = reqs[i]
            if setup and len(setups) < SETUP_SAMPLES and clock() >= start + len(setups) * seconds / SETUP_SAMPLES:
                setups.append(setup())
            # the probe runs after the previous request's output is freed, so
            # the probes before and after a request see the same heap state
            gc.collect()
            probes.append(probe())
            if traced:
                tracing.begin(req.name)
            t0 = clock()
            try:
                result = req.run()
            except Exception as exc:  # a failed request is data, not a crash
                result = exc
            t1 = clock()
            if traced:
                layers[i].append(tracing.end())
            probed[traced][i].append(len(probes) - 1)
            latency[traced][i].append(t1 - t0)
            attempted += 1
            problem = _verify(req, result, checked[i])
            if problem:
                failures.append(f"{req.name}: {problem}")
            del result
        if traced:
            tracing.uninstall()
            traced_passes += 1
        passes += 1
        enough = passes - traced_passes >= MIN_PASSES and traced_passes >= (MIN_TRACED_PASSES if trace else 0)
        if enough and clock() + (clock() - pass_start) > deadline:
            break
    while setup and len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    gc.collect()
    probes.append(probe())
    relative = {
        traced: [[t / ((probes[j] + probes[j + 1]) / 2) for t, j in zip(latency[traced][i], probed[traced][i])]
                 for i in range(n)]
        for traced in (False, True)
    }

    out = {
        "passes": passes,
        "traced_passes": traced_passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "wall_s": _sum_medians(latency[False]),
        "wall_ref": _sum_medians(relative[False]),
        "probe_ms": statistics.median(probes) * 1e3,
        "probe_count": len(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_samples": setups,
        "requests": [
            {"name": r.name, "median_s": statistics.median(latency[False][i]),
             "median_ref": statistics.median(relative[False][i]), "samples_s": latency[False][i],
             "probes_around_s": [(probes[j], probes[j + 1]) for j in probed[False][i]]}
            for i, r in enumerate(reqs)
        ],
    }
    if trace:
        # in probe units, so that machine drift between passes does not land in
        # the difference; converted to seconds at the run's median probe time
        overhead = (_sum_medians(relative[True]) - out["wall_ref"]) * statistics.median(probes)
        out["layers"] = _layer_metrics([t[0] for t in tracer.TARGETS], tracer.count_names(), layers,
                                       overhead)
        if spans_path:
            tracing.write(spans_path)
    return out


def _layer_metrics(names, counts, layers, overhead: float) -> dict[str, float]:
    """Self times: per request the median over traced passes, summed.
    Counts: from the first traced pass (they repeat exactly pass to pass)."""
    metrics: dict[str, float] = dict.fromkeys(counts, 0)
    for per_pass in layers:
        for name in names:
            key = f"{name}.self_s"
            metrics[key] = metrics.get(key, 0.0) + statistics.median(s.get(name, 0.0) for s, _ in per_pass)
        for key, value in per_pass[0][1].items():
            metrics[key] += value
    returned = metrics.get("engine.recurrent_sections.returned", 0)
    metrics["engine.closure_yield"] = metrics.get("engine.compute_nucleus.kept", 0) / returned if returned else 0.0
    metrics["trace.overhead_s"] = overhead
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    reqs = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    setup = None if args.trace else lambda: setup_seconds(args.workload, args.seed)
    out = measure(reqs, random.Random(f"order {args.seed}"), args.seconds, bool(args.trace),
                  args.spans, setup)
    out["numpy"] = numpy.__version__
    out["selfsim"] = selfsim.__version__
    out["blas_threads"] = {v: os.environ.get(v) for v in ONE_THREAD}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
