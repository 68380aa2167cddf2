"""Self-test of the benchmark at tiny sizes; takes a few seconds.

    python3 perfbench/selftest.py

It shows that the correctness gate passes clean outputs and counts each
corrupted one as failed, that two traced runs give identical counts, that
the tracer restores every function it patched, and that BENCHMARK.json
declares exactly the per-layer metrics the tracer reports.
"""

import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from run import ONE_THREAD  # noqa: E402

os.environ.update(ONE_THREAD)  # the frozen spectrum digests assume one BLAS thread

import selfsim  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(command, check):
    return wl.Request(command, wl._cli_run(command.split(" ")), wl._cli_fingerprint, check)


def _replace(old, new):
    def corrupt(result):
        code, text = result
        assert old in text, (old, text)
        return code, text.replace(old, new, 1)

    return corrupt


def _flip_last(result):
    code, text = result
    return code, text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]


def cases():
    """(request, corruption) pairs: every check kind of every workload, at tiny sizes."""
    digests = json.loads(wl.DIGESTS.read_text())
    rng = random.Random(0)
    words = wl._word_session("basilica", 12, 4, False, True, rng)
    aleshin = wl._word_session("aleshin", 3, 4, True, True, rng)

    def swap_first(result):
        els, invs, prods = result
        return [els[1], els[0], *els[2:]], invs, prods

    return [
        (wl._cli_request("nucleus --catalog basilica", wl._check_contracting("basilica"), digests),
         _flip_last),
        (wl._cli_request("equiv --catalog odometer 0^w 1^w", wl._check_equivalent, digests), _flip_last),
        (_cli("nucleus --catalog z2", wl._check_contracting("z2")),
         _replace("elements: 9", "elements: 8")),
        (_cli("nucleus --catalog aleshin --max-elements 20", wl._check_bounded("aleshin", 20)),
         _replace("seen: 21", "seen: 20")),
        (_cli("equiv --catalog z2 0^w 1^w", wl._check_equivalent),
         _replace("witness validated: true", "")),
        (_cli("spectrum --catalog basilica --level 4", wl._check_spectrum("basilica", 4)),
         _replace("1.000000000000", "0.999999000000")),
        (wl._components_request("identity", 4), lambda r: (r[0], r[1][:-1])),
        (words, swap_first),
        (aleshin, lambda r: (r[0], r[1][::-1], r[2])),
    ]


def corrupted(req, corrupt):
    run = req.run
    return wl.Request(req.name, lambda: corrupt(run()), req.fingerprint, req.check, req.expected)


def main() -> int:
    pairs = cases()
    reqs = [req for req, _ in pairs]

    clean = worker.measure(reqs, random.Random(0), 0, False, None)
    assert clean["failed"] == 0, clean["failures"]
    print(f"PASS clean tiny outputs: 0 failed of {clean['attempted']}")

    for req, corrupt in pairs:
        bad = worker.measure([corrupted(req, corrupt)], random.Random(0), 0, False, None)
        assert bad["failed"] == bad["attempted"] > 0, (req.name, bad)
        print(f"PASS corrupted output counted as failed: {req.name} "
              f"({bad['failed']} of {bad['attempted']}: {bad['failures'][0][:90]})")

    originals = {name: getattr(owner, attr) for name, owner, attr, _, _ in tracer.TARGETS}
    first = worker.measure(reqs, random.Random(0), 0, True, None)["layers"]
    second = worker.measure(reqs, random.Random(0), 0, True, None)["layers"]
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["engine.canonicalize.calls"] > 0 and first["schreier.build_schreier.calls"] > 0
    print(f"PASS two traced runs give identical counts ({len(counts)} counts)")
    assert all(getattr(owner, attr) is originals[name] for name, owner, attr, _, _ in tracer.TARGETS)
    assert selfsim.build_schreier is originals["schreier.build_schreier"]
    print("PASS the tracer restores every patched function")

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(declared) == sorted(first), set(declared) ^ set(first)
    print(f"PASS BENCHMARK.json declares the {len(declared)} per-layer metrics the tracer reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
