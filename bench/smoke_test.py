"""Smoke test for the benchmark itself.

    python3 bench/smoke_test.py

Runs every workload at tiny sizes (`--smoke`), untraced and traced, and
checks that each run exits 0; that its last stdout line is a result object
with exactly the keys correct, attempted, failed and metrics, and exactly
the metrics BENCHMARK.json declares for the mode, with their units; that every
declared metric is also printed on a line of its own; and that the outputs
were judged correct.  Then checks that a directory holding only
BENCHMARK.json and bench/ makes the benchmark exit non-zero without a
result.  Takes about two minutes; exits 1 on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int):
    done = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n" \
                                 f"{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: outputs judged wrong"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    if workload != "corpus":
        assert result["failed"] == 0, f"{where}: {result['failed']} failed"
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{where}: metrics differ from BENCHMARK.json: " \
                         f"{sorted(set(got) ^ set(units))}"
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert set(units) <= printed, \
        f"{where}: not printed: {sorted(set(units) - printed)}"
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if not trace:
            assert value > 0, f"{where}: {name} is {value}"
    print(f"ok  {where}: {result['attempted']} runs, "
          f"{result['failed']} failed, {len(units)} metrics")


def check_bare_copy():
    """Without the program's sources the benchmark must fail cleanly."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = bench(tmp, "ladder", 0)
    assert done.returncode != 0, "bare copy exited 0"
    last = (done.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{"), "bare copy printed a result"
    print(f"ok  bare copy: exit {done.returncode}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_run(spec, workload, trace)
        check_bare_copy()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
