"""Seeded workload inputs for the benchmark.

Each workload is a list of `Netlist` entries: a file the CLI reads plus the
outcome a correct program gives for it (exit 0 with outputs, or a clean
parse rejection).  Generated netlists keep their topology fixed and draw
element values from the seed; the `corpus` files are fixed and only their
order depends on the seed.
"""

import glob
import os
import random
from dataclasses import dataclass
from typing import List

WORKLOADS = ("ladder", "active", "corpus")

# Sizes used by the benchmark and by its smoke test.
LADDER_SIZE = {"full": (40, 500), "smoke": (9, 20)}       # (lines, points)
ACTIVE_POINTS = {"full": 10000, "smoke": 200}              # per netlist


@dataclass(frozen=True)
class Netlist:
    name: str          # unique within the workload
    path: str          # file the CLI reads
    expect_ok: bool    # True: exit 0 with outputs; False: exit 1, one line


def _jitter(rng: random.Random, nominal: float, spread: float = 0.2) -> float:
    return nominal * rng.uniform(1.0 - spread, 1.0 + spread)


def ladder_text(seed: int, n_lines: int, n_points: int) -> str:
    """ROADMAP ladder recipe: line l<i> (R=50, T=1+i), a 1n cap between
    neighbours, a 1u inductor from each line to ground, a gain G=10 on l0,
    a 1k..100M log sweep and a measure on every 8th line with the last
    line as signal.  Values are jittered by +-20% from the seed."""
    rng = random.Random(seed)
    out = [f"# ladder N={n_lines} F={n_points} seed={seed}"]
    for i in range(n_lines):
        out.append(f"line l{i} R={_jitter(rng, 50.0):.6g} "
                   f"T={_jitter(rng, 1.0 + i):.6g}")
    for i in range(n_lines - 1):
        out.append(f"cap c{i} C={_jitter(rng, 1e-9):.6g} "
                   f"ports=(l{i},l{i + 1})")
    for i in range(n_lines):
        out.append(f"ind i{i} L={_jitter(rng, 1e-6):.6g} ports=(l{i},gnd)")
    out.append(f"gain g0 in=l0 G={_jitter(rng, 10.0):.6g} "
               f"T_b={_jitter(rng, 1.0):.6g}")
    out.append(f"sweep 1k 100M {n_points} log")
    for i in range(0, n_lines, 8):
        out.append(f"measure l{i} as m{i} signal=l{n_lines - 1}")
    return "\n".join(out) + "\n"


def opamp_text(seed: int, n_points: int) -> str:
    """docs/opamp_readout.qn with seeded values and a longer sweep."""
    rng = random.Random(seed)
    return "\n".join([
        f"# opamp readout seed={seed}",
        f"line sig R={_jitter(rng, 150e3):.6g} T={rng.uniform(0.0, 2.0):.6g}",
        f"line det R={_jitter(rng, 150e3):.6g} T={rng.uniform(0.0, 2.0):.6g}",
        f"opamp u1 left=sig right=det Zf=cap:{_jitter(rng, 10.6e-15):.6g} "
        f"R_a={_jitter(rng, 150e3):.6g} Theta_a={_jitter(rng, 1.5):.6g}",
        f"sweep 10k 1M {n_points} log",
        "measure det as readout signal=sig",
    ]) + "\n"


def muscope_text(seed: int, n_points: int) -> str:
    """docs/muscope.qn with seeded preset overrides and a longer sweep."""
    rng = random.Random(seed + 1_000_003)
    return "\n".join([
        f"# muscope seed={seed}",
        f"preset muscope mass={_jitter(rng, 0.27):.6g} "
        f"bath_temperature={_jitter(rng, 306.0):.6g} "
        f"amp_temperature={_jitter(rng, 1.5):.6g} "
        f"loop_gain={1e3 * 10 ** rng.uniform(-1.0, 1.0):.6g}",
        f"sweep 1e-4 1e-3 {n_points} log",
        "measure muscope as acc signal=force",
    ]) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def corpus_files(root: str) -> List[Netlist]:
    """The 4 docs netlists, 20 valid and 20 malformed parser-corpus files,
    sorted by path."""
    entries = []
    for pattern, ok in (("docs/*.qn", True),
                        ("tests/data/valid/*.qn", True),
                        ("tests/data/malformed/*.qn", False)):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            rel = os.path.relpath(path, root)
            entries.append(Netlist(rel.replace(os.sep, "/"), path, ok))
    return entries


def build(workload: str, seed: int, root: str, input_dir: str,
          size: str = "full") -> List[Netlist]:
    """Write the workload's generated netlists under `input_dir` and return
    the netlists in the order they run."""
    if workload == "ladder":
        n_lines, n_points = LADDER_SIZE[size]
        path = _write(os.path.join(input_dir, "ladder.qn"),
                      ladder_text(seed, n_lines, n_points))
        return [Netlist("ladder.qn", path, True)]
    if workload == "active":
        n_points = ACTIVE_POINTS[size]
        return [
            Netlist("opamp_readout.qn", _write(
                os.path.join(input_dir, "opamp_readout.qn"),
                opamp_text(seed, n_points)), True),
            Netlist("muscope.qn", _write(
                os.path.join(input_dir, "muscope.qn"),
                muscope_text(seed, n_points)), True),
        ]
    if workload == "corpus":
        files = corpus_files(root)
        if len(files) != 44:
            raise RuntimeError(f"expected 44 corpus netlists under {root}, "
                               f"found {len(files)}")
        random.Random(seed).shuffle(files)
        return files
    raise ValueError(f"unknown workload {workload!r}")
