"""Starts the benchmark's child processes, one at a time, from a small process.

Linux reports a child's peak RSS (``ru_maxrss``) as at least the peak of the
process it was started from, because ``exec`` carries the old address
space's high-water mark over.  The benchmark holds its generated inputs in
memory, so it starts children through this process instead, which stays
small.

The launcher also times a fixed pure-Python loop on request.  Shared hosts
run the same work up to twice as slow from one minute to the next; the loop
time, taken next to each round of cpamm processes, tells the benchmark how
fast the host was running during that round.

Protocol: one JSON request per stdin line, either ``{"argv", "out", "err"}``
(the child's stdout and stderr go to those files), answered with
``{"code", "wall_s", "rss_kb"}``, or ``{"reference": true}``, answered with
``{"reference_s"}``.  Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

#: Time the reference loop takes at nominal host speed.  On a 2-vCPU Intel
#: Xeon VM at 2.1 GHz with Python 3.11 it took about 0.07 s most of the time,
#: and anywhere from 0.045 to 0.14 s as the load from other tenants changed.
REFERENCE_NOMINAL_S = 0.07


def reference_s() -> float:
    """Wall time of a fixed loop of float arithmetic, tuple building and dict stores."""
    start = time.perf_counter()
    x, table = 0.0, {}
    for i in range(250_000):
        x += (i * 1.0001) / (i + 1.0)
        table[i & 1023] = (i, x)
    return time.perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("reference"):
            reply = {"reference_s": reference_s()}
        else:
            with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            reply = {"code": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
