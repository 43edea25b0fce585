"""Netlist front end: a small line-oriented grammar for noise networks.

One declaration per line, `#` starts a comment, keywords are
case-sensitive.  `_GRAMMAR` at the end of this module is the grammar: each
keyword maps to its record and the fields of its line in order, which
`parse_netlist` reads and `format_netlist` writes back.  The record is made
from that row: a named tuple of the values its fields keep, under the
names they give.  Numbers accept
scientific notation and SI suffixes k M G m u n p f, and must be finite.
Parsing is single pass, first error wins; errors carry 1-based line and
column positions into the source text.
"""

import math
import re
from collections import namedtuple
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .errors import QNoiseError

__all__ = [
    "NetlistParseError",
    "NetlistDocument",
    "LineDecl", "CapDecl", "IndDecl", "OpAmpDecl", "GainDecl",
    "SweepDecl", "MeasureDecl", "PresetDecl",
    "parse_netlist",
    "parse_number",
    "format_netlist",
]

_SI_SUFFIXES = {
    "k": 1e3, "M": 1e6, "G": 1e9,
    "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15,
}

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([kMGmunpf])?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)"
    r"((?P<im>[+-](\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)[ij])?$")

PRESET_KEYS = (
    "mass", "mech_damping", "measure_freq_hz", "carrier_freq_hz",
    "amp_impedance", "amp_temperature", "bath_temperature",
    "readout_impedance", "loop_gain", "transducer_coupling",
    "feedback_capacitance",
)


class NetlistParseError(QNoiseError):
    """First parse error of a netlist, with 1-based source position."""

    def __init__(self, line: int, column: int, token: str, message: str):
        self.line = line
        self.column = column
        self.token = token
        self.message = message
        super().__init__(f"{line}:{column}: {message} (at {token!r})")


class _Token(NamedTuple):
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[List[_Token]]:
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = [_Token(match.group(0), lineno, match.start() + 1)
                  for match in re.finditer(r"\S+", raw.partition("#")[0])]
        if tokens:
            rows.append(tokens)
    return rows


def _err(tok: _Token, message: str) -> NetlistParseError:
    return NetlistParseError(tok.line, tok.column, tok.text, message)


def _after(tok: _Token, text: str) -> _Token:
    """Token `text` just past the end of `tok`."""
    return _Token(text, tok.line, tok.column + len(tok.text))


def parse_number(text: str) -> float:
    """Value of a netlist number: scientific notation with an optional SI
    suffix.  Raises ValueError for other text and for non-finite values."""
    match = _NUMBER_RE.match(text)
    if not match:
        raise ValueError("expected a number (scientific notation and "
                         "suffixes k M G m u n p f allowed)")
    value = float(match.group(1)) * _SI_SUFFIXES.get(match.group(2), 1.0)
    if not math.isfinite(value):
        raise ValueError("number out of range (must be finite)")
    return value


def _parse_number(tok: _Token, text: str) -> float:
    try:
        return parse_number(text)
    except ValueError as exc:
        raise _err(tok, str(exc)) from None


def _parse_name(tok: _Token, phrase: str) -> str:
    if not _NAME_RE.match(tok.text):
        raise _err(tok, f"expected {phrase} (letters, digits, underscore)")
    return tok.text


class _Parser:
    def __init__(self):
        self.declarations: List[object] = []
        self.names: Set[str] = set()
        self.line_names: Set[str] = set()
        self.labels: Set[str] = set()
        self.opamp_lines: Dict[str, str] = {}  # line name -> opamp name
        self.sweep_seen: Optional[_Token] = None
        self.preset_seen: Optional[_Token] = None

    def declare(self, tok: _Token, name: str):
        if name in ("gnd", "muscope", "force"):
            raise _err(tok, f"reserved name {name!r} (gnd, muscope, force)")
        if name in self.names:
            raise _err(tok, f"duplicate name {name!r}")
        self.names.add(name)

    def require_line(self, tok: _Token, name: str) -> str:
        if name not in self.line_names:
            raise _err(tok, f"unknown line {name!r} (must be declared first)")
        return name

    def require_port(self, tok: _Token, name: str) -> str:
        return name if name == "gnd" else self.require_line(tok, name)

    def parse_decl(self, tokens: List[_Token]):
        """One declaration: its keyword, then the fields `_GRAMMAR` lists
        for it, in order."""
        head, rest = tokens[0], iter(tokens[1:])
        if head.text not in _GRAMMAR:
            raise _err(head, "expected one of: " + " ".join(_GRAMMAR))
        record, fields = _GRAMMAR[head.text]
        values = []
        for field in fields:
            if field.key is _REST:
                items = []
                for tok in rest:
                    items.append(field.parse(self, tok, tok.text, items))
                values.append(tuple(items))
                continue
            tok = next(rest, None)
            if tok is None:
                raise _err(_after(tokens[-1], "<end of line>"),
                           f"expected {field.phrase}")
            text = tok.text
            if field.key is not None:
                key, sep, text = tok.text.partition("=")
                if key != field.key or not sep:
                    raise _err(tok, f"expected {field.key}=<value>")
                if not text:
                    raise _err(tok, f"expected a value after {key}=")
            if field.attr is None:  # a literal
                if text != field.phrase:
                    raise _err(tok, f"expected {field.phrase!r}")
                continue
            values.append(field.parse(self, tok, text, values))
        tok = next(rest, None)
        if tok is not None:
            raise _err(tok, "unexpected trailing token")
        self.declarations.append(record(*values))

    def finish(self, rows: List[List[_Token]]) -> "NetlistDocument":
        eof = _after(rows[-1][-1], "<end of file>") if rows \
            else _Token("<end of file>", 1, 1)
        if self.preset_seen is None:
            if self.sweep_seen is None:
                raise _err(eof, "missing sweep declaration")
            if not self.labels:
                raise _err(eof, "missing measure declaration")
        return NetlistDocument(tuple(self.declarations))


#: key of the field that takes every remaining token of its line
_REST = object()


class _Field(NamedTuple):
    """One field of a declaration line.  `attr` names its value in the
    record.  `key` is the `key=` prefix of its token, None for a bare
    token, or _REST.  `phrase` is what an "expected ..." message names.
    `parse(parser, token, text, values)` checks the text after the prefix
    against the values parsed so far (for _REST, the items so far) and
    returns the value; `show(value)` writes it back.  A field without
    `attr` is the literal `phrase` and keeps no value."""

    attr: Optional[str]
    key: object
    phrase: str
    parse: Optional[Callable]
    show: Optional[Callable] = None


def _bounded(tok: _Token, text: str, what: str, strict: bool = True):
    """Number that must be positive, or >= 0 if not `strict`."""
    value = _parse_number(tok, text)
    if strict and not value > 0.0:
        raise _err(tok, f"{what} must be positive")
    if value < 0.0:
        raise _err(tok, f"{what} must be >= 0")
    return value


def _quantity(attr: str, key: str, unit: str, strict: bool = True) -> _Field:
    return _Field(attr, key, f"{key}=<{unit}>", lambda p, tok, text, values:
                  _bounded(tok, text, key, strict), repr)


def _name(phrase: str, line: bool = False) -> _Field:
    """Field of a declared name; a `line` name is also a line."""
    def parse(p: _Parser, tok: _Token, text: str, values) -> str:
        p.declare(tok, _parse_name(tok, phrase))
        if line:
            p.line_names.add(text)
        return text
    return _Field("name", None, phrase, parse, str)


def _ports(p: _Parser, tok: _Token, text: str, values) -> Tuple[str, str]:
    match = re.match(r"^\((\w+),(\w+)\)$", text)
    if not match:
        raise _err(tok, "expected ports=(<p1>,<p2>)")
    p1 = p.require_port(tok, match.group(1))
    p2 = p.require_port(tok, match.group(2))
    if p1 == p2:  # one line's element would be stamped as grounded
        raise _err(tok, "at least one port must be a line" if p1 == "gnd"
                   else "the two ports must differ")
    return p1, p2


def _opamp_line(p: _Parser, tok: _Token, text: str, values) -> str:
    p.require_port(tok, text)
    if text == "gnd":
        raise _err(tok, "op-amp ports must be lines")
    if text in p.opamp_lines:
        raise _err(tok, f"line {text!r} already terminates op-amp "
                        f"{p.opamp_lines[text]!r}")
    if len(values) == 2:  # the right line: both lines are checked now
        if text == values[1]:
            raise _err(tok, "left and right lines must differ")
        p.opamp_lines[values[1]] = p.opamp_lines[text] = values[0]
    return text


def _feedback(p: _Parser, tok: _Token, text: str, values) -> float:
    if not text.startswith("cap:"):
        raise _err(tok, "only capacitive feedback Zf=cap:<farad> is supported")
    return _bounded(tok, text[4:], "Zf cap")


def _gain(p: _Parser, tok: _Token, text: str, values) -> complex:
    match = _COMPLEX_RE.match(text)
    if not match:
        raise _err(tok, "expected a complex number like 2 or 1.5-0.5i")
    imag = match.group("im")
    gain = complex(_parse_number(tok, match.group("re")),
                   _parse_number(tok, imag) if imag else 0.0)
    modulus = math.hypot(gain.real, gain.imag)
    if not math.isfinite(modulus):
        raise _err(tok, "number out of range (|G| must be finite)")
    if modulus < 1.0:
        raise _err(tok, "|G| must be >= 1 (model attenuation passively)")
    return gain


def _show_gain(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def _f_min(p: _Parser, tok: _Token, text: str, values) -> float:
    if p.sweep_seen is not None:
        raise _err(tok, "duplicate sweep (exactly one allowed)")
    p.sweep_seen = tok
    return _bounded(tok, text, "f_min")


def _f_max(p: _Parser, tok: _Token, text: str, values) -> float:
    f_max = _bounded(tok, text, "f_max")
    if f_max < values[0]:
        raise _err(tok, "f_max must be >= f_min")
    return f_max


def _n_points(p: _Parser, tok: _Token, text: str, values) -> int:
    n_value = _parse_number(tok, text)
    if n_value != int(n_value) or int(n_value) < 1:
        raise _err(tok, "n_points must be a positive integer")
    return int(n_value)


def _scale(p: _Parser, tok: _Token, text: str, values) -> str:
    if text not in ("lin", "log"):
        raise _err(tok, "expected lin or log")
    return text


def _measured_line(p: _Parser, tok: _Token, text: str, values) -> str:
    _parse_name(tok, "a line name")
    if text != "muscope":
        p.require_line(tok, text)
    elif p.preset_seen is None:
        raise _err(tok, "measure muscope requires the muscope preset")
    return text


def _label(p: _Parser, tok: _Token, text: str, values) -> str:
    _parse_name(tok, "an estimator label")
    if text in p.labels:
        raise _err(tok, f"duplicate estimator label {text!r}")
    p.labels.add(text)
    return text


def _signal(p: _Parser, tok: _Token, text: str, values) -> str:
    if values[0] == "muscope" and text != "force":
        raise _err(tok, "measure muscope takes only signal=force")
    if text == "force":
        if values[0] != "muscope":
            raise _err(tok, "builtin signal 'force' only applies to the "
                            "muscope preset")
    elif not _NAME_RE.match(text):
        raise _err(tok, "expected a line name or builtin")
    else:
        p.require_line(tok, text)
    return text


def _preset(p: _Parser, tok: _Token, text: str, values) -> str:
    if text != "muscope":
        raise _err(tok, "unknown preset (available: muscope)")
    if p.preset_seen is not None:
        raise _err(tok, "duplicate preset")
    p.preset_seen = tok
    return text


def _override(p: _Parser, tok: _Token, text: str, items) -> Tuple[str, float]:
    if "=" not in text:
        raise _err(tok, "expected key=value override")
    key, _, raw = text.partition("=")
    if key not in PRESET_KEYS:
        raise _err(tok, f"unknown preset parameter {key!r} "
                        f"(one of: {' '.join(PRESET_KEYS)})")
    if key in dict(items):
        raise _err(tok, f"duplicate override {key!r}")
    if not raw:
        raise _err(tok, f"expected a value after {key}=")
    return key, _parse_number(tok, raw)


def _same_kind(a, b) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)


def _record(typename: str, fields: List[_Field], defaults=()) -> tuple:
    """A row of `_GRAMMAR`: the record `typename`, a named tuple of the
    values of `fields` in order, and `fields`.  A record equals only a
    record of its own kind (as tuples, a CapDecl would equal the IndDecl
    with the same values); object.__ne__ inverts __eq__, and the hash stays
    the tuple's."""
    record = namedtuple(typename, [field.attr for field in fields
                                   if field.attr], defaults=defaults)
    record.__eq__, record.__ne__ = _same_kind, object.__ne__
    return record, fields


_PORTS = _Field("ports", "ports", "ports=(<p1>,<p2>)", _ports,
                lambda ports: "({},{})".format(*ports))

#: the grammar: keyword -> (record, fields of its line in order)
_GRAMMAR = {
    "line": _record("LineDecl", [
        _name("a line name", line=True), _quantity("resistance", "R", "ohm"),
        _quantity("temperature", "T", "kelvin", strict=False)]),
    "cap": _record("CapDecl", [_name("a capacitor name"),
                               _quantity("capacitance", "C", "farad"),
                               _PORTS]),
    "ind": _record("IndDecl", [_name("an inductor name"),
                               _quantity("inductance", "L", "henry"),
                               _PORTS]),
    "opamp": _record("OpAmpDecl", [
        _name("an op-amp name"),
        _Field("left", "left", "left=<line>", _opamp_line, str),
        _Field("right", "right", "right=<line>", _opamp_line, str),
        _Field("feedback_capacitance", "Zf", "Zf=cap:<farad>", _feedback,
               lambda c: f"cap:{c!r}"),
        _quantity("amp_impedance", "R_a", "ohm"),
        _quantity("amp_temperature", "Theta_a", "K")]),
    "gain": _record("GainDecl", [
        _name("a gain-stage name"),
        _Field("input_line", "in", "in=<line>", lambda p, tok, text, v:
               p.require_line(tok, text), str),
        _Field("gain", "G", "G=<complex>", _gain, _show_gain),
        _quantity("noise_temperature", "T_b", "kelvin", strict=False)]),
    "sweep": _record("SweepDecl", [
        _Field("f_min_hz", None, "<f_min_Hz>", _f_min, repr),
        _Field("f_max_hz", None, "<f_max_Hz>", _f_max, repr),
        _Field("n_points", None, "<n_points>", _n_points, str),
        _Field("scale", None, "lin|log", _scale, str)]),
    "measure": _record("MeasureDecl", [
        _Field("line", None, "a line to measure", _measured_line, str),
        _Field(None, None, "as", None),
        _Field("label", None, "an estimator label", _label, str),
        _Field("signal", "signal", "signal=<line or builtin>", _signal,
               str)]),
    "preset": _record("PresetDecl", [
        _Field("name", None, "a preset name", _preset, str),
        _Field("overrides", _REST, "key=value override", _override,
               lambda items: " ".join(f"{k}={v!r}" for k, v in items))],
        defaults=((),)),
}
(LineDecl, CapDecl, IndDecl, OpAmpDecl, GainDecl, SweepDecl, MeasureDecl,
 PresetDecl) = (record for record, _ in _GRAMMAR.values())
_KEYWORD = {record: keyword for keyword, (record, _) in _GRAMMAR.items()}


def _all_of(kind) -> property:
    """The declarations of `kind`, in order, as a document property."""
    return property(lambda doc: [d for d in doc.declarations
                                 if isinstance(d, kind)])


def _one_of(kind) -> property:
    """The declaration of `kind`, or None, as a document property."""
    return property(lambda doc: next((d for d in doc.declarations
                                      if isinstance(d, kind)), None))


class NetlistDocument(NamedTuple):
    declarations: Tuple[object, ...]
    lines = _all_of(LineDecl)
    caps = _all_of(CapDecl)
    inds = _all_of(IndDecl)
    opamps = _all_of(OpAmpDecl)
    gains = _all_of(GainDecl)
    sweep = _one_of(SweepDecl)
    measures = _all_of(MeasureDecl)
    preset = _one_of(PresetDecl)
    # equal only to a document, as a record is
    __eq__, __ne__, __hash__ = _same_kind, object.__ne__, tuple.__hash__


def parse_netlist(text: str) -> NetlistDocument:
    """Parse a netlist; raises NetlistParseError at the first error."""
    rows = _tokenize(text)
    parser = _Parser()
    for tokens in rows:
        parser.parse_decl(tokens)
    return parser.finish(rows)


def format_netlist(doc: NetlistDocument) -> str:
    """Canonical text of a document; reparses to an equal document."""
    out = []
    for decl in doc.declarations:
        if type(decl) not in _KEYWORD:
            raise TypeError(f"unknown declaration {decl!r}")
        keyword = _KEYWORD[type(decl)]
        values = iter(decl)
        parts = [keyword]
        for field in _GRAMMAR[keyword][1]:
            text = field.show(next(values)) if field.attr else field.phrase
            parts.append(text if field.key in (None, _REST)
                         else f"{field.key}={text}")
        out.append(" ".join(part for part in parts if part))
    return "\n".join(out) + "\n"
