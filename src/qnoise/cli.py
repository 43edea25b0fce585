"""Command-line front: parse a netlist, then hand it to the sweep driver.

`qnoise run <file> [--out DIR] [--json] [--set key=value ...]`

The front imports only the standard library and the stdlib-only netlist
parser.  It reads the file, parses it and the `--set` overrides, and only
then imports `qnoise.sweep`, which loads numpy and the numeric engine and
writes the outputs; a rejected netlist never loads them.  `run` is
re-exported from `qnoise.sweep`.

Exit codes: 0 success, 1 parse error or non-UTF-8 file, 2 numeric/model
error (including a non-finite budget cell; nothing is written then).
"""

import argparse
import sys
from typing import Dict, List, Optional

from .errors import QNoiseError
from .netlist import PRESET_KEYS, NetlistParseError, parse_netlist, \
    parse_number

__all__ = ["run", "main"]


def __getattr__(name: str):
    if name == "run":
        from . import sweep
        return sweep.run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_set(values: List[str]) -> Dict[str, float]:
    out = {}
    for item in values:
        key, sep, raw = item.partition("=")
        if not sep or key not in PRESET_KEYS:
            raise QNoiseError(f"bad --set {item!r}: expected key=value with "
                              f"key in {', '.join(PRESET_KEYS)}")
        if key in out:
            raise QNoiseError(f"duplicate --set key {key!r}")
        try:
            out[key] = parse_number(raw)
        except ValueError as exc:
            raise QNoiseError(f"bad --set value {raw!r}: {exc}") from None
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qnoise",
        description="Frequency-domain quantum/thermal noise network solver")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a netlist sweep")
    run_p.add_argument("file", help="netlist file")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--json", action="store_true",
                       help="also write budget.json")
    run_p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a preset parameter")
    args = parser.parse_args(argv)

    try:
        # skip a byte-order mark here: "utf-8-sig" would shift error offsets
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read().removeprefix("\ufeff")
    except OSError as exc:
        print(f"qnoise: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"qnoise: {args.file}: not UTF-8 at byte offset {exc.start} "
              f"({exc.reason})", file=sys.stderr)
        return 1

    try:
        doc = parse_netlist(text)
    except NetlistParseError as exc:
        print(f"qnoise: {args.file}:{exc}", file=sys.stderr)
        return 1

    try:
        overrides = _parse_set(args.set)
        from . import sweep
        paths = sweep.run(doc, args.out, json_mirror=args.json,
                          overrides=overrides or None)
    except QNoiseError as exc:
        print(f"qnoise: {exc}", file=sys.stderr)
        return 2
    for path in paths.values():
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
