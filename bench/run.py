"""Benchmark for `qnoise run`: end-to-end metrics and a per-module trace.

    python3 bench/run.py --workload ladder|active|corpus|all --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from anywhere; paths resolve against the checkout that holds this
file.  All load comes from this process, and CLI subprocesses run one at a
time.  With `--trace 0` the run measures, for the workload's netlists:

    setup_s      fresh interpreter: import qnoise.cli + read and parse
    run_cpu_s    `python -m qnoise.cli run` subprocesses, one pass
    sweep_s      in-process `qnoise.cli.run(doc, out)`, one pass, warm
    points_per_s (frequency points x measures) per pass / sweep_s
    peak_rss_mb  largest CLI subprocess peak RSS in a pass

Every timing is CPU time, scaled to reference speed with a machine-speed
probe that a separate process runs every 0.1 s on the one CPU that this
process and everything it starts are pinned to (see speed.py).

With `--trace 1` it reports per-module self times and call counts from
spans recorded around the names `qnoise.cli` and `qnoise.accelerometer`
bind (see spans.py), and the tracing overhead.  Every output is checked
(see check.py).  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its unit, sample count and upper percentile, the failure
share and the environment.  A fuller record of the run goes to
`bench/out/results/`.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path[:0] = [HERE, SRC]
import check      # noqa: E402
import launch     # noqa: E402
import speed      # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
# Fresh-interpreter set-up samples taken in each measurement round.
SETUP_PER_ROUND = 6
# The traced run alternates untraced and traced blocks of in-process
# passes, each at least this long.
BLOCK_S = 8.0
CLI_TIMEOUT_S = launch.TIMEOUT_S

SETUP_CODE = """\
import json, sys, time
t0 = time.process_time()
import qnoise.cli as cli
t1 = time.process_time()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        cli.parse_netlist(text)
    except cli.NetlistParseError:
        pass
t2 = time.process_time()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
"""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    """Machine, interpreter and source identity recorded with each result."""
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qnoise")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, or 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------- samples

def summary(values: List[float], higher_is_better: bool = False) -> dict:
    """Median of `values` with their count, and the highest percentile on
    the worse side that has at least ten samples beyond it; None below 20
    samples."""
    tail = sorted(values, reverse=higher_is_better)
    out = {"median": statistics.median(values), "n": len(values),
           "pct": None, "pct_value": None}
    if len(tail) >= 20:
        rank = len(tail) - 10
        out["pct"] = round(100.0 * rank / len(tail), 1)
        out["pct_value"] = tail[rank - 1]
    return out


# ---------------------------------------------------------------- CLI runs

class CliResult:
    def __init__(self, cpu_s, rss_mb, code, stderr, start, end):
        self.cpu_s = cpu_s          # not scaled
        self.rss_mb = rss_mb
        self.code = code
        self.stderr = stderr
        self.start, self.end = start, end     # perf_counter


def run_cli(path: str, out_dir: str, log_stem: str) -> CliResult:
    """One `python -m qnoise.cli run` subprocess, started through
    launch.py, which reads its CPU time and peak RSS."""
    command = [sys.executable, "-I", os.path.join(HERE, "launch.py"),
               log_stem + ".json", sys.executable, "-m", "qnoise.cli", "run",
               path, "--out", out_dir]
    with open(log_stem + ".err", "w+b") as err:
        # no timeout here: launch.py kills the CLI after CLI_TIMEOUT_S, and
        # waiting with a timeout polls, which delays every return
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, stderr=err, check=True)
        end = time.perf_counter()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    with open(log_stem + ".json", encoding="utf-8") as handle:
        launched = json.load(handle)
    return CliResult(launched["cpu_s"], launched["maxrss_kb"] / 1024.0,
                     launched["code"], stderr, start, end)


def sampled(call, prober: speed.Prober):
    """call(); returns its result, its CPU time and the factor to
    reference seconds."""
    start, start_cpu = time.perf_counter(), time.process_time()
    result = call()
    cpu = time.process_time() - start_cpu
    return result, cpu, prober.factor(start, time.perf_counter())


def measure_setup(paths: List[str]) -> dict:
    """Fresh-interpreter import + parse times."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S, check=True)
    return json.loads(done.stdout)


# ----------------------------------------------------------- output checks

class OutputChecker:
    """Checks a run's spectra.csv / budget.csv once per distinct content:
    invariants always, the recorded reference where one applies."""

    def __init__(self, references: Dict[str, dict]):
        self.references = references
        self._seen: Dict[bytes, List[str]] = {}

    def errors(self, name: str, out_dir: str) -> List[str]:
        try:
            with open(os.path.join(out_dir, "spectra.csv"),
                      encoding="utf-8") as handle:
                spectra = handle.read()
            with open(os.path.join(out_dir, "budget.csv"),
                      encoding="utf-8") as handle:
                budget = handle.read()
        except OSError as exc:
            return [f"missing output: {exc}"]
        key = hashlib.sha256(
            f"{name}\0{spectra}\0{budget}".encode()).digest()
        if key not in self._seen:
            found = check.invariant_errors(spectra, budget)
            reference = self.references.get(name)
            if not found and reference is not None:
                found = check.reference_errors(spectra, budget, reference)
            self._seen[key] = found
        return self._seen[key]


def load_references(workload: str, seed: int, size: str) -> Dict[str, dict]:
    """Reference fingerprints that apply to this run: the corpus files for
    any seed, generated netlists only at the recorded seed and size."""
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if workload != "corpus" and (seed != recorded["seed"] or size != "full"):
        return {}
    return recorded["netlists"]


class Ledger:
    """Operations attempted and failed, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_names = set()
        self.correct = True
        self.messages: Dict[str, int] = {}

    def record(self, name: str, failure: Optional[str], wrong: bool = False):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failed_names.add(name)
            self.note(f"{name}: {failure}")
        if wrong:
            self.correct = False

    def note(self, message: str):
        self.messages[message] = self.messages.get(message, 0) + 1


def judge_cli(netlist, result: CliResult, out_dir: str,
              checker: OutputChecker, ledger: Ledger):
    """An expected-ok netlist must exit 0 and write correct outputs; a
    malformed one must exit 1 with one `qnoise:` line and no outputs."""
    traceback = "Traceback" in result.stderr
    if netlist.expect_ok:
        if result.code != 0 or traceback:
            last = result.stderr.strip().splitlines()[-1:] or [""]
            ledger.record(netlist.name, f"exit {result.code}: {last[0]}")
            return
        found = checker.errors(netlist.name, out_dir)
        ledger.record(netlist.name, "; ".join(found[:3]) or None,
                      wrong=bool(found))
        return
    lines = result.stderr.strip().splitlines()
    if result.code == 0 or os.path.exists(out_dir):
        ledger.record(netlist.name, "malformed input accepted", wrong=True)
    elif result.code != 1 or traceback or len(lines) != 1 \
            or not lines[0].startswith("qnoise: "):
        ledger.record(netlist.name,
                      f"exit {result.code} with {len(lines)} stderr lines")
    else:
        ledger.record(netlist.name, None)


# ----------------------------------------------------------------- workload

class Workload:
    """Inputs, parsed documents and output directories of one run."""

    def __init__(self, name: str, seed: int, size: str,
                 references: Dict[str, dict]):
        import qnoise.cli
        self.name = name
        self.work = os.path.join(OUT, "work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("inputs", "cli", "inproc", "logs"):
            os.makedirs(os.path.join(self.work, sub))
        self.netlists = workloads.build(name, seed, ROOT,
                                        os.path.join(self.work, "inputs"),
                                        size)
        self.texts = {}
        for netlist in self.netlists:
            with open(netlist.path, encoding="utf-8") as handle:
                self.texts[netlist.name] = handle.read()
        # (netlist, document) for every netlist that parses
        self.docs = []
        for netlist in self.netlists:
            try:
                doc = qnoise.cli.parse_netlist(self.texts[netlist.name])
            except qnoise.cli.NetlistParseError:
                continue
            self.docs.append((netlist, doc))
        self.checker = OutputChecker(references)

    def out_dir(self, kind: str, netlist) -> str:
        return os.path.join(self.work, kind, netlist.name.replace("/", "__"))

    def points(self, raised: Dict[str, str]) -> int:
        """Frequency points x estimators that the last in-process pass
        wrote: spectra.csv rows times budget.csv TOTAL rows."""
        total = 0
        for netlist, _ in self.docs:
            if netlist.name in raised:
                continue
            out_dir = self.out_dir("inproc", netlist)
            with open(os.path.join(out_dir, "spectra.csv"),
                      encoding="utf-8") as handle:
                rows = sum(1 for _ in handle) - 1
            with open(os.path.join(out_dir, "budget.csv"),
                      encoding="utf-8") as handle:
                estimators = sum(1 for line in handle
                                 if line.split(",")[1:2] == ["TOTAL"])
            total += rows * estimators
        return total

    def cli_pass(self, ledger: Ledger, prober: speed.Prober):
        """Every netlist through the CLI; returns (CPU s at reference
        speed, peak RSS MB)."""
        cpu, rss = 0.0, 0.0
        for netlist in self.netlists:
            out_dir = self.out_dir("cli", netlist)
            shutil.rmtree(out_dir, ignore_errors=True)
            stem = os.path.join(self.work, "logs",
                                netlist.name.replace("/", "__"))
            result = run_cli(netlist.path, out_dir, stem)
            cpu += result.cpu_s * prober.factor(result.start, result.end)
            rss = max(rss, result.rss_mb)
            judge_cli(netlist, result, out_dir, self.checker, ledger)
        return cpu, rss

    def sweep_pass(self):
        """`qnoise.cli.run` on every parsed document; returns (elapsed s,
        {name: exception text} for runs that raised)."""
        import qnoise.cli
        raised = {}
        start = time.perf_counter()
        for netlist, doc in self.docs:
            try:
                qnoise.cli.run(doc, self.out_dir("inproc", netlist))
            except Exception as exc:  # a crash is a result to report
                raised[netlist.name] = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, raised

    def sweep_outcomes(self, raised: Dict[str, str]):
        """(name, failure or None, wrong output?) for each in-process run
        of the last pass."""
        outcomes = []
        for netlist, _ in self.docs:
            if netlist.name in raised:
                outcomes.append((netlist.name, raised[netlist.name], False))
                continue
            found = self.checker.errors(netlist.name,
                                        self.out_dir("inproc", netlist))
            outcomes.append((netlist.name, "; ".join(found[:3]) or None,
                             bool(found)))
        return outcomes

    def bytes_written(self, raised) -> int:
        total = 0
        for netlist, _ in self.docs:
            if netlist.name not in raised:
                out_dir = self.out_dir("inproc", netlist)
                total += sum(os.path.getsize(os.path.join(out_dir, f))
                             for f in ("spectra.csv", "budget.csv"))
        return total


class Rounds:
    """Measurement rounds for about `seconds`: the first always runs, and a
    further one starts only if it would end less than half a round late."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.last = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self.last is not None and now + (now - self.last) / 2 >= \
                self.deadline:
            return False
        self.last = now
        return True


def setup_samples(paths: List[str], prober: speed.Prober) -> List[dict]:
    """SETUP_PER_ROUND fresh-interpreter samples, each at reference speed."""
    samples = []
    for _ in range(SETUP_PER_ROUND):
        sample, _, factor = sampled(lambda: measure_setup(paths), prober)
        samples.append({k: v * factor for k, v in sample.items()})
    return samples


def sweep_passes(wl: Workload, ledger: Ledger, expected: Dict[str, str],
                 prober: speed.Prober, until: float) -> List[float]:
    """Untraced in-process passes until `until` (perf_counter; at least
    one).  Returns the pass CPU times at reference speed; checks each pass
    raised for the same netlists as `expected`."""
    times = []
    while True:
        (_, raised), cpu, factor = sampled(wl.sweep_pass, prober)
        times.append(cpu * factor)
        if raised.keys() != expected.keys():
            ledger.correct = False
            ledger.note(f"in-process failures changed: {sorted(raised)}")
        if time.perf_counter() >= until:
            return times


def run_untraced(wl: Workload, seconds: float, prober: speed.Prober):
    """Rounds of set-up samples, one CLI pass and in-process passes for as
    long as the CLI pass took, until `seconds`; in-process passes fill the
    time left after the last round."""
    ledger = Ledger()
    paths = [n.path for n in wl.netlists]
    measure_setup(paths)               # warm-up
    _, raised = wl.sweep_pass()        # warm-up
    setup, runs, rss, passes = [], [], [], []
    rounds = Rounds(seconds)
    while rounds.another():
        setup.extend(setup_samples(paths, prober))
        began = time.perf_counter()
        cpu, peak = wl.cli_pass(ledger, prober)
        runs.append(cpu)
        rss.append(peak)
        now = time.perf_counter()
        passes.extend(sweep_passes(wl, ledger, raised, prober,
                                   now + (now - began)))
        # in-process runs are not operations here; wrong output still counts
        for name, failure, wrong in wl.sweep_outcomes(raised):
            if wrong:
                ledger.correct = False
                ledger.note(f"{name} (in-process): {failure}")
    if time.perf_counter() < rounds.deadline:
        passes.extend(sweep_passes(wl, ledger, raised, prober,
                                   rounds.deadline))
    if set(raised) - ledger.failed_names:
        ledger.correct = False
        ledger.note(f"in-process run raised where the CLI did not: "
                    f"{sorted(set(raised) - ledger.failed_names)}")
    points = wl.points(raised)
    metrics = {
        "setup_s": summary([s["import_s"] + s["parse_s"] for s in setup]),
        "run_cpu_s": summary(runs),
        "sweep_s": summary(passes),
        "points_per_s": summary([points / p for p in passes], True),
        "peak_rss_mb": summary(rss),
    }
    return ledger, metrics, None


def run_traced(wl: Workload, seconds: float, prober: speed.Prober):
    """Rounds of an untraced block, a traced parse pass and a traced block
    of in-process passes until `seconds`; per-layer values per pass, with
    every time at reference speed."""
    import qnoise.cli
    from spans import LAYERS, Tracer
    ledger = Ledger()
    paths = [n.path for n in wl.netlists]
    tracer = Tracer()
    measure_setup(paths)               # warm-up
    _, expected = wl.sweep_pass()      # warm-up

    def parse_all():
        start = time.perf_counter()
        for netlist in wl.netlists:
            try:
                qnoise.cli.parse_netlist(wl.texts[netlist.name])
            except qnoise.cli.NetlistParseError:
                pass
        return time.perf_counter() - start

    setup, untraced, traced, per_pass = [], [], [], []
    rounds = Rounds(seconds)
    while rounds.another():
        setup.extend(setup_samples(paths, prober))
        untraced.extend(sweep_passes(wl, ledger, expected, prober,
                                     time.perf_counter() + BLOCK_S))

        tracer.reset()
        with tracer.installed():
            elapsed, cpu, factor = sampled(parse_all, prober)
        # spans are wall times and include steal time and the probe's
        # turns on the CPU: take out that share, and scale to reference
        # speed
        factor *= cpu / elapsed
        parse = {"netlist.parse_s": tracer.self_s["netlist.parse"] * factor,
                 "netlist.parse_calls": tracer.calls["netlist.parse"],
                 "netlist.decls": sum(len(getattr(doc, "declarations", ()))
                                      for _, doc in wl.docs)}

        began = time.perf_counter()
        while True:
            tracer.reset()
            with tracer.installed():
                (elapsed, raised), cpu, factor = sampled(wl.sweep_pass,
                                                         prober)
            traced.append(cpu * factor)
            factor *= cpu / elapsed      # as for the parse spans
            for outcome in wl.sweep_outcomes(raised):
                ledger.record(*outcome)
            values = {f"{layer}_s": tracer.self_s[layer] * factor
                      for layer in LAYERS}
            values.update({f"{layer}_calls": tracer.calls[layer]
                           for layer in LAYERS})
            values.update(parse)
            values["cli.self_s"] = tracer.self_s["cli.run"] * factor
            values["cli.run_s"] = factor * sum(
                end - start for layer, start, end, _, _ in tracer.spans
                if layer == "cli.run")
            values["cli.bytes_written"] = wl.bytes_written(raised)
            solves = tracer.calls["network.solve"]
            values["network.solve_useful_ratio"] = (
                len(tracer.solve_keys) / solves if solves else 0.0)
            occupations = tracer.calls["spectra.occupation"]
            values["spectra.occupations_per_call"] = (
                tracer.occupation_elements / occupations
                if occupations else 0.0)
            per_pass.append(values)
            if time.perf_counter() - began >= BLOCK_S:
                break

    metrics = {name: summary([v[name] for v in per_pass])
               for name in per_pass[0]}
    metrics["cli.import_s"] = summary([s["import_s"] for s in setup])
    metrics["trace.untraced_sweep_s"] = summary(untraced)
    metrics["trace.traced_sweep_s"] = summary(traced)
    overhead = summary(traced)
    overhead["median"] -= metrics["trace.untraced_sweep_s"]["median"]
    overhead["pct"] = overhead["pct_value"] = None
    metrics["trace.overhead_s"] = overhead
    return ledger, metrics, tracer.spans


# -------------------------------------------------------------------- main

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str, spec: dict, env: dict) -> dict:
    wl = Workload(name, seed, size, load_references(name, seed, size))
    runner = run_traced if trace else run_untraced
    prober = speed.Prober(os.path.join(wl.work, "probes.txt"))
    try:
        ledger, metrics, spans = runner(wl, seconds, prober)
    finally:
        prober.close()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: "
                           f"{sorted(missing)}")

    print(f"# workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} size={size}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric in declared:
        s = metrics[metric["name"]]
        tail = (f"p{s['pct']:g}={s['pct_value']:.6g}"
                if s["pct"] is not None else "no percentile with 10 beyond")
        print(f"{metric['name']:32s} {s['median']:<14.6g} {metric['unit']:10s}"
              f" median of {s['n']}; {tail}")
    share = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"{'fail_share':32s} {share:<14.6g} {'ratio':10s} "
          f"failed {ledger.failed} of {ledger.attempted} netlist runs")
    probes = prober.probes
    probe = summary(probes)
    print(f"# speed probe median {probe['median']:.6g} s of {probe['n']} "
          f"(min {min(probes):.6g}, max {max(probes):.6g}); CPU times above "
          f"are scaled to {speed.REFERENCE_PROBE_S:g} s per probe")
    for message, count in list(ledger.messages.items())[:10]:
        print(f"#   {count} x {message}")
    print(f"{'correct':32s} {str(ledger.correct).lower()}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(trace)}")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "env": env,
              "correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "fail_share": share,
              "messages": ledger.messages, "probe_s": probe,
              "reference_probe_s": speed.REFERENCE_PROBE_S,
              "metrics": {k: dict(v, unit=units[k])
                          for k, v in metrics.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans is not None:
        # spans of the last traced pass: layer,start,end,parent,run_id
        with gzip.open(stem + "-spans.csv.gz", "wt", compresslevel=1,
                       encoding="utf-8") as handle:
            handle.write("layer,start_s,end_s,parent,run_id\n")
            for layer, start, end, parent, run_id in spans:
                handle.write(f"{layer},{start:.9f},{end:.9f},{parent},"
                             f"{run_id}\n")
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k]["median"], "unit": units[k]}
                    for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qnoise", "cli.py")):
        print(f"bench: no qnoise sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin_to_one_cpu()      # before numpy starts its threads
    env = environment()
    env.update(nproc=nproc, pinned_cpu=cpu)
    size = "smoke" if args.smoke else "full"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), size, spec, env)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name in names:
            print(json.dumps(results[name]))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
