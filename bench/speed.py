"""Machine-speed probe, so that timings on a shared host compare.

On a few vCPUs of a shared virtual machine, wall time of the same work
swings by up to 2x in phases of seconds to about a minute, for two
reasons.  The host takes the vCPU away for a while (steal time), which CPU
time does not count; and the vCPU runs slower while its host core is busy
with other work, which CPU time does count.  The benchmark therefore times
CPU seconds, and measures the second effect with a short fixed probe of
pure-Python and numpy work, itself timed in CPU seconds on the same pinned
CPU.

A `Prober` is a separate process that runs the probe every INTERVAL_S for
as long as the benchmark runs, beside whatever is being measured, and
appends each probe's time to a file.  `Prober.factor(start, end)` converts
a sample taken between `start` and `end` to "reference CPU seconds": the
CPU time it would take at the speed at which one probe takes
REFERENCE_PROBE_S.  The probe does not touch qnoise, so a change to the
program moves scaled times exactly as it moves raw ones.

    python3 bench/speed.py OUT_FILE     # the prober's own loop
"""

import bisect
import math
import os
import subprocess
import sys
import time
from typing import List

# Median probe time on the 2-vCPU Intel Xeon host the bounds were measured
# on.  Any fixed value works: it sets the scale, not the comparison.
REFERENCE_PROBE_S = 0.005
# Wall time between probes.
INTERVAL_S = 0.1
# A sample shorter than a few probe intervals uses the nearest probes.
MIN_PROBES = 3
# Longest wait for the probe process's first probe.
START_TIMEOUT_S = 60.0


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to the first CPU
    it may use, so that the probe runs on the CPU the measured work runs
    on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


class Prober:
    """The probe process and the probes it has written so far."""

    def __init__(self, path: str):
        self.path = path
        self.times: List[float] = []
        self.probes: List[float] = []
        self._read_to = 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path])
        # wait for the first probe, so that every sample has one nearby
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not self._read():
            if self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("the speed probe did not start")
            time.sleep(INTERVAL_S)

    def _read(self) -> int:
        """Take in the whole lines the prober has written since the last
        read; returns how many probes there are."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                handle.seek(self._read_to)
                text = handle.read()
        except FileNotFoundError:
            return 0
        end = text.rfind("\n") + 1
        for line in text[:end].splitlines():
            stamp, seconds = line.split()
            self.times.append(float(stamp))
            self.probes.append(float(seconds))
        self._read_to += end
        return len(self.probes)

    def factor(self, start: float, end: float) -> float:
        """Multiplier from CPU seconds to reference CPU seconds for a
        sample that ran from `start` to `end` (perf_counter): reference
        probe time over the median probe in that window, widened to the
        MIN_PROBES nearest probes if it holds fewer."""
        self._read()
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        while high - low < MIN_PROBES and (low > 0 or
                                           high < len(self.times)):
            if low > 0:
                low -= 1
            if high < len(self.times) and high - low < MIN_PROBES:
                high += 1
        return REFERENCE_PROBE_S / _median(self.probes[low:high])

    def close(self):
        self.proc.terminate()
        self.proc.wait()


def _probe_work():
    """Pure-Python float, complex, dict and string work, then numpy
    solves and array maths of the sizes qnoise uses."""
    import numpy as np
    rng = np.random.default_rng(0)
    matrix = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal(
        (40, 40)) + 10.0 * np.eye(40))
    rhs = np.ones(40, dtype=complex)
    values = rng.standard_normal(20000)

    def work():
        acc, table = 0.0, {}
        for i in range(2500):
            x = math.tanh(i * 1e-4) + 1.0 / (i + 1.0)
            z = complex(math.cos(x), math.sin(x)) * (x + 0.5j)
            table[i & 255] = (x, z)
            acc += abs(z)
        acc += len(",".join(f"{x:.6g}" for x, _ in table.values()))
        for i in range(15):
            acc += abs(np.linalg.solve(matrix + i * 1e-3, rhs).sum())
            acc += float(np.tanh(values * (1.0 + i)).sum())
        return acc

    return work


def main(argv) -> int:
    """Probe every INTERVAL_S until the parent process goes away or this
    one is terminated; one line "perf_counter cpu_seconds" per probe."""
    work = _probe_work()
    parent = os.getppid()
    with open(argv[0], "w", encoding="utf-8") as out:
        while os.getppid() == parent:
            stamp = time.perf_counter()
            start = time.thread_time()
            work()
            out.write(f"{stamp:.6f} {time.thread_time() - start:.9g}\n")
            out.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
