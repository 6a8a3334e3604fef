"""Run one command; print its exit code, wall time and peak RSS as JSON.

Usage: python3 launch.py TIMEOUT_S LOG_PATH CMD [ARG ...]

The benchmark starts every CLI run through this small process.  On Linux
a child spawned with vfork inherits its parent's RSS high-water mark at
exec, so spawning the CLI straight from the benchmark, which holds whole
output files in memory, would report the benchmark's peak instead of the
CLI's.  The wall time runs from spawning the command to its exit.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, log, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit_code": proc.returncode, "wall_s": wall,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
