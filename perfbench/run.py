"""Benchmark of selfsim: closed-loop workloads timed end to end and per layer.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process (one client, one request at a
time) with BLAS and OpenMP held to one thread. With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json: the worker's wall_ref
and peak_rss_mb, and setup_s, the median time from spawning a worker to its
first request being ready over the setup-only workers it spawned. With
--trace 1 it reports the per-layer metrics from a traced worker. Both also
print the raw wall_s. Every request is checked; a failure is counted, and
the run exits 1. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. A results file with the environment record
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER_TIMEOUT_S = 170
REQUIRED = ("BENCHMARK.json", "src/selfsim/__init__.py", "tests/_oracles.py")
# eigvalsh rounds differently with more BLAS threads, so frozen spectrum
# digests hold only under this setting
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict[str, str]:
    return {**os.environ, **ONE_THREAD, "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT)))}


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err.strip()}")
    return out


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the results record."""
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.json"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--spans", str(spans)] if trace else [])
    proc = _spawn(args)
    lines = _finish(proc).splitlines()
    if not lines or lines[0] != "ready":
        raise BenchError(f"unexpected worker output: {lines[:1]}")
    worker = json.loads(lines[-1])
    if not trace:
        worker["setup_s"] = statistics.median(worker["setup_samples"])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": {**environment(), "numpy": worker.pop("numpy"),
                              "blas_threads": worker.pop("blas_threads")}, **worker}
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def metrics_of(record: dict, declared: list[dict]) -> dict[str, dict]:
    source = record.get("layers", record)
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        raise BenchError(f"{record['workload']}: no value for {', '.join(missing)}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}


def report(record: dict, metrics: dict[str, dict]) -> None:
    env = record["environment"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  ({record['seconds']:g} s requested)")
    print(f"   sha {env['git_sha']}  cpu {env['cpu_model']}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  blas threads {env['blas_threads']}")
    print(f"   probe median {record['probe_ms']:.3f} ms over {record['probe_count']} probes")
    for name, m in metrics.items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"   {'wall_s':<40} {record['wall_s']:>16.6g} s (untraced; moves with machine speed, "
          "so BENCHMARK.json bounds wall_ref instead)")
    share = record["failed"] / record["attempted"]
    print(f"   {'failed_share':<40} {share:>16.6g} ratio "
          f"({record['failed']} failed / {record['attempted']} requests attempted)")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    print(f"   results: {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="selfsim benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"error: {', '.join(absent)} not found under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    chosen = names if args.workload == "all" else [args.workload]
    merged: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in chosen:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
            metrics = metrics_of(record, declared)
            report(record, metrics)
            attempted += record["attempted"]
            failed += record["failed"]
            prefix = "" if len(chosen) == 1 else workload + "."
            merged.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
