"""Write digests.json: the stdout digest of every CLI request in the workloads.

The committed file was written at the commit that added the benchmark, so
every later commit is held to byte-identical output. Rewrite it only when a
change of output is intended, and say so in the change.

    python3 perfbench/freeze_digests.py
"""

import collections
import json
import os
import sys

from run import ONE_THREAD, ROOT

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

os.environ.update(ONE_THREAD)  # before numpy loads its BLAS

import workloads  # noqa: E402


def main() -> None:
    digests = {}
    for workload in workloads.BUILDERS:
        for req in workloads.build(workload, seed=0, digests=collections.defaultdict(str)):
            if req.expected is not None:  # a CLI request
                digests[req.name] = req.fingerprint(req.run())
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
