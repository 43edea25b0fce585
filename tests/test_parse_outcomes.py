"""Recorded parse outcomes of seeded netlist mutations.

Each case takes one netlist of docs/, tests/data/valid/ or
tests/data/malformed/ and makes one mutation: it drops, inserts or
replaces a token, replaces the value after a `key=`, or duplicates or
deletes a line.  The outcome is `str(exc)` of the NetlistParseError, or
`ok` and the first 16 hex digits of the sha256 of `format_netlist(doc)`.
tests/data/parse_outcomes.txt holds one outcome per line, so every parse
message, position and canonical text is pinned.

`python tests/test_parse_outcomes.py` rewrites the record.
"""

import hashlib
import random
import re
from pathlib import Path

from qnoise.netlist import NetlistParseError, format_netlist, parse_netlist

DATA = Path(__file__).parent / "data"
SOURCES = (sorted((DATA.parents[1] / "docs").glob("*.qn"))
           + sorted((DATA / "valid").glob("*.qn"))
           + sorted((DATA / "malformed").glob("*.qn")))
RECORD = DATA / "parse_outcomes.txt"
SEED = 20260
CASES = 2000

#: tokens and `key=` values beyond the corpus: reserved words, bad numbers
#: and the shapes each field checks
EXTRA_TOKENS = ["gnd", "muscope", "force", "as", "sweep", "preset", "line",
                "LINE", "wire", "1x", "-1", "0", "1e999", "7.5", "lin", "log",
                "exp", "=", "R=", "key=1", "mass=1", "mass=", "bogus=2",
                "signal=force", "ports=(a,b)"]
EXTRA_VALUES = ["", "0", "-1", "1e999", "1k", "2.5f", "0.5", "1.5-0.5i",
                "2+3j", "1e999i", "0.5i", "gnd", "muscope", "force", "x",
                "9a", "cap:1p", "cap:0", "cap:", "res:1k", "(a,b)", "(a,gnd)",
                "(gnd,gnd)", "(a,a)", "(a)", "a,b", "1.5k", "3M"]


def mutate(rng, text, tokens, values):
    """`text` with one seeded mutation."""
    lines = text.split("\n")
    i = rng.choice([n for n, line in enumerate(lines)
                    if line.split("#", 1)[0].split()])
    words = lines[i].split("#", 1)[0].split()
    op = rng.choice(["drop", "insert", "replace", "value", "duplicate",
                     "delete"])
    keyed = [k for k, w in enumerate(words) if "=" in w]
    if op == "value" and not keyed:
        op = "replace"
    if op == "drop":
        del words[rng.randrange(len(words))]
    elif op == "insert":
        words.insert(rng.randrange(len(words) + 1), rng.choice(tokens))
    elif op == "replace":
        words[rng.randrange(len(words))] = rng.choice(tokens)
    elif op == "value":
        k = rng.choice(keyed)
        words[k] = words[k].split("=", 1)[0] + "=" + rng.choice(values)
    if op == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif op == "delete":
        del lines[i]
    else:
        lines[i] = " ".join(words)
    return "\n".join(lines)


def outcome(text):
    try:
        doc = parse_netlist(text)
    except NetlistParseError as exc:
        return str(exc)
    canonical = format_netlist(doc).encode()
    return "ok " + hashlib.sha256(canonical).hexdigest()[:16]


def cases():
    texts = [path.read_text() for path in SOURCES]
    words = [w for text in texts for line in text.split("\n")
             for w in line.split("#", 1)[0].split()]
    tokens = sorted(set(words)) + EXTRA_TOKENS
    values = sorted({w.split("=", 1)[1] for w in words if "=" in w}) \
        + EXTRA_VALUES
    rng = random.Random(SEED)
    return [mutate(rng, rng.choice(texts), tokens, values)
            for _ in range(CASES)]


def outcomes():
    return [outcome(text) for text in cases()]


def shape(line):
    """Message of an outcome with its position, token and quoted names
    masked."""
    message = re.sub(r"^\d+:\d+: (.*) \(at .*\)$", r"\1", line)
    return re.sub(r"'[^']*'", "'_'", message)


def test_sources_are_the_corpus():
    assert len(SOURCES) == 4 + 20 + 20


def test_outcomes_match_record():
    recorded = RECORD.read_text().split("\n")[:-1]
    got = outcomes()
    assert len(recorded) == CASES
    diff = [(n, r, g) for n, (r, g) in enumerate(zip(recorded, got))
            if r != g]
    assert not diff, f"{len(diff)} outcomes differ, first: {diff[:3]}"


def test_outcomes_cover_many_messages():
    recorded = RECORD.read_text().split("\n")[:-1]
    shapes = {shape(line) for line in recorded if not line.startswith("ok ")}
    assert len(shapes) >= 50, sorted(shapes)
    assert sum(line.startswith("ok ") for line in recorded) >= 50


if __name__ == "__main__":
    RECORD.write_text("\n".join(outcomes()) + "\n")
