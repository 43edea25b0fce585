"""Run one command and record its wall time, CPU time and peak RSS.

    python3 -I bench/launch.py RESULT.json COMMAND [ARG ...]

The command inherits this process's stdin, stdout and stderr.  RESULT.json
gets {"wall_s", "cpu_s", "maxrss_kb", "code"}: wall time from spawn to
reap, and the child's user + system CPU time and ru_maxrss from wait4.
A child's ru_maxrss also counts the memory
of the process it was forked from, so the benchmark starts commands through
this small launcher instead of from its own large process.  The command is
killed after TIMEOUT_S.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def main(argv) -> int:
    result_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss, "code": proc.returncode},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
