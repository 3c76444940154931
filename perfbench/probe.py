"""Set-up probe: a fresh process that imports algwatch and makes one call.

Usage (from the root of a checkout): python3 perfbench/probe.py WORKLOAD SEED WORKDIR

The caller times the whole process, so import-time work, table builds and
cache fills all count. The last line of standard output is a JSON object
with the call's output and the process's peak resident set size in MiB.
"""

import json
import resource
import sys

sys.path.insert(0, "src")

from workloads import WORKLOADS  # noqa: E402  (after the path is set)


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    output = WORKLOADS[name].call(seed, workdir)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"output": output, "peak_rss_mb": peak_kib / 1024}))


if __name__ == "__main__":
    main()
