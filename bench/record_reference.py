"""Record the reference outputs the benchmark compares against.

    python3 bench/record_reference.py [workload ...]

Runs each workload's netlists once through `python -m qnoise.cli run` at
the default seed and full size, and writes a fingerprint of every
successful run's spectra.csv and budget.csv (see check.fingerprint) to
bench/reference/<workload>.json.  Record only from a commit whose outputs
are known to be right; netlists that fail get no reference.
"""

import json
import os
import sys

import check
import run
import workloads


def record(name: str) -> dict:
    wl = run.Workload(name, run.DEFAULT_SEED, "full", {})
    fingerprints = {}
    for netlist in sorted(wl.netlists, key=lambda n: n.name):
        if not netlist.expect_ok:
            continue
        out_dir = wl.out_dir("cli", netlist)
        stem = os.path.join(wl.work, "logs", netlist.name.replace("/", "__"))
        result = run.run_cli(netlist.path, out_dir, stem)
        if result.code != 0:
            print(f"{name}: {netlist.name} exits {result.code}; no reference",
                  file=sys.stderr)
            continue
        with open(os.path.join(out_dir, "spectra.csv"),
                  encoding="utf-8") as handle:
            spectra = handle.read()
        with open(os.path.join(out_dir, "budget.csv"),
                  encoding="utf-8") as handle:
            budget = handle.read()
        errors = check.invariant_errors(spectra, budget)
        if errors:
            raise SystemExit(f"{name}: {netlist.name} breaks an invariant: "
                             f"{errors[0]}")
        fingerprints[netlist.name] = check.fingerprint(spectra, budget)
    return {"seed": run.DEFAULT_SEED, "rtol": check.REF_RTOL,
            "environment": run.environment(), "netlists": fingerprints}


def main(argv) -> int:
    for name in argv or workloads.WORKLOADS:
        path = os.path.join(run.HERE, "reference", f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record(name), handle, indent=0)
            handle.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
