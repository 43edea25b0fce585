"""Netlist front end: a small line-oriented grammar for noise networks.

Declarations (one per line, `#` starts a comment, keywords case-sensitive):

    line <name> R=<ohm> T=<kelvin>
    cap <name> C=<farad> ports=(<line|gnd>,<line|gnd>)
    ind <name> L=<henry> ports=(<line|gnd>,<line|gnd>)
    opamp <name> left=<line> right=<line> Zf=cap:<farad> R_a=<ohm> Theta_a=<K>
    gain <name> in=<line> G=<complex> T_b=<kelvin>
    sweep <f_min_Hz> <f_max_Hz> <n_points> <lin|log>
    measure <line> as <label> signal=<line or builtin>
    preset muscope [key=value ...]

Numbers accept scientific notation and SI suffixes k M G m u n p f, and
must be finite.
Parsing is single pass, first error wins; errors carry 1-based line and
column positions into the source text.
"""

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class LineDecl:
    name: str
    resistance: float
    temperature: float


@dataclass(frozen=True)
class CapDecl:
    name: str
    capacitance: float
    ports: Tuple[str, str]


@dataclass(frozen=True)
class IndDecl:
    name: str
    inductance: float
    ports: Tuple[str, str]


@dataclass(frozen=True)
class OpAmpDecl:
    name: str
    left: str
    right: str
    feedback_capacitance: float
    amp_impedance: float
    amp_temperature: float


@dataclass(frozen=True)
class GainDecl:
    name: str
    input_line: str
    gain: complex
    noise_temperature: float


@dataclass(frozen=True)
class SweepDecl:
    f_min_hz: float
    f_max_hz: float
    n_points: int
    scale: str  # "lin" | "log"


@dataclass(frozen=True)
class MeasureDecl:
    line: str
    label: str
    signal: str


@dataclass(frozen=True)
class PresetDecl:
    name: str
    overrides: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class NetlistDocument:
    declarations: Tuple[object, ...]

    def _of(self, kind):
        return [d for d in self.declarations if isinstance(d, kind)]

    @property
    def lines(self) -> List[LineDecl]:
        return self._of(LineDecl)

    @property
    def caps(self) -> List[CapDecl]:
        return self._of(CapDecl)

    @property
    def inds(self) -> List[IndDecl]:
        return self._of(IndDecl)

    @property
    def opamps(self) -> List[OpAmpDecl]:
        return self._of(OpAmpDecl)

    @property
    def gains(self) -> List[GainDecl]:
        return self._of(GainDecl)

    @property
    def sweep(self) -> Optional[SweepDecl]:
        sweeps = self._of(SweepDecl)
        return sweeps[0] if sweeps else None

    @property
    def measures(self) -> List[MeasureDecl]:
        return self._of(MeasureDecl)

    @property
    def preset(self) -> Optional[PresetDecl]:
        presets = self._of(PresetDecl)
        return presets[0] if presets else None


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[List[_Token]]:
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        tokens = []
        for match in re.finditer(r"\S+", raw):
            tokens.append(_Token(match.group(0), lineno, match.start() + 1))
        if tokens:
            rows.append(tokens)
    return rows


class _LineParser:
    """Cursor over the tokens of one declaration line."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _eol_error(self, expected: str) -> NetlistParseError:
        last = self.tokens[-1]
        return NetlistParseError(last.line, last.column + len(last.text),
                                 "<end of line>", f"expected {expected}")

    def take(self, expected: str) -> _Token:
        if self.pos >= len(self.tokens):
            raise self._eol_error(expected)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def done(self):
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise NetlistParseError(tok.line, tok.column, tok.text,
                                    "unexpected trailing token")


def _err(tok: _Token, message: str) -> NetlistParseError:
    return NetlistParseError(tok.line, tok.column, tok.text, message)


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


def _parse_number(tok: _Token, text: Optional[str] = None) -> float:
    try:
        return parse_number(tok.text if text is None else text)
    except ValueError as exc:
        raise _err(tok, str(exc)) from None


def _parse_complex(tok: _Token, text: str) -> complex:
    match = _COMPLEX_RE.match(text)
    if not match:
        raise _err(tok, "expected a complex number like 2 or 1.5-0.5i")
    real = _parse_number(tok, match.group("re"))
    imag = _parse_number(tok, match.group("im")) if match.group("im") else 0.0
    return complex(real, imag)


def _parse_name(tok: _Token, what: str = "name") -> str:
    if not _NAME_RE.match(tok.text):
        raise _err(tok, f"expected a {what} (letters, digits, underscore)")
    return tok.text


def _kv(tok: _Token, key: str) -> str:
    prefix = key + "="
    if not tok.text.startswith(prefix):
        raise _err(tok, f"expected {key}=<value>")
    value = tok.text[len(prefix):]
    if not value:
        raise _err(tok, f"expected a value after {key}=")
    return value


def _positive(tok: _Token, value: float, what: str) -> float:
    if not value > 0.0:
        raise _err(tok, f"{what} must be positive")
    return value


def _nonnegative(tok: _Token, value: float, what: str) -> float:
    if value < 0.0:
        raise _err(tok, f"{what} must be >= 0")
    return value


class _Parser:
    def __init__(self):
        self.declarations: List[object] = []
        self.names: Dict[str, _Token] = {}
        self.line_names: Dict[str, LineDecl] = {}
        self.labels: Dict[str, _Token] = {}
        self.opamp_lines: Dict[str, str] = {}  # line name -> opamp name
        self.sweep_seen: Optional[_Token] = None
        self.preset_seen: Optional[_Token] = None

    def declare(self, tok: _Token, name: str):
        if name in self.names or name == "gnd":
            raise _err(tok, f"duplicate name {name!r}")
        self.names[name] = tok

    def require_line(self, tok: _Token, name: str) -> LineDecl:
        decl = self.line_names.get(name)
        if decl is None:
            raise _err(tok, f"unknown line {name!r} (must be declared first)")
        return decl

    def require_port(self, tok: _Token, name: str) -> str:
        if name == "gnd":
            return name
        self.require_line(tok, name)
        if name in self.opamp_lines:
            raise _err(tok, f"line {name!r} already terminates op-amp "
                            f"{self.opamp_lines[name]!r}")
        return name

    def parse_decl(self, tokens: List[_Token]):
        lp = _LineParser(tokens)
        head = lp.take("a declaration keyword")
        handler = {
            "line": self._parse_line,
            "cap": self._parse_cap,
            "ind": self._parse_ind,
            "opamp": self._parse_opamp,
            "gain": self._parse_gain,
            "sweep": self._parse_sweep,
            "measure": self._parse_measure,
            "preset": self._parse_preset,
        }.get(head.text)
        if handler is None:
            raise _err(head, "expected one of: line cap ind opamp gain "
                             "sweep measure preset")
        handler(lp)
        lp.done()

    def _parse_line(self, lp: _LineParser):
        name_tok = lp.take("a line name")
        name = _parse_name(name_tok, "line name")
        self.declare(name_tok, name)
        r_tok = lp.take("R=<ohm>")
        resistance = _positive(r_tok, _parse_number(r_tok, _kv(r_tok, "R")),
                               "R")
        t_tok = lp.take("T=<kelvin>")
        temperature = _nonnegative(t_tok, _parse_number(t_tok, _kv(t_tok, "T")),
                                   "T")
        decl = LineDecl(name, resistance, temperature)
        self.line_names[name] = decl
        self.declarations.append(decl)

    def _parse_two_ports(self, lp: _LineParser) -> Tuple[str, str]:
        tok = lp.take("ports=(<p1>,<p2>)")
        value = _kv(tok, "ports")
        match = re.match(r"^\((\w+),(\w+)\)$", value)
        if not match:
            raise _err(tok, "expected ports=(<p1>,<p2>)")
        p1 = self.require_port(tok, match.group(1))
        p2 = self.require_port(tok, match.group(2))
        if p1 == "gnd" and p2 == "gnd":
            raise _err(tok, "at least one port must be a line")
        return p1, p2

    def _parse_cap(self, lp: _LineParser):
        name_tok = lp.take("a capacitor name")
        name = _parse_name(name_tok, "capacitor name")
        self.declare(name_tok, name)
        c_tok = lp.take("C=<farad>")
        value = _positive(c_tok, _parse_number(c_tok, _kv(c_tok, "C")), "C")
        ports = self._parse_two_ports(lp)
        self.declarations.append(CapDecl(name, value, ports))

    def _parse_ind(self, lp: _LineParser):
        name_tok = lp.take("an inductor name")
        name = _parse_name(name_tok, "inductor name")
        self.declare(name_tok, name)
        l_tok = lp.take("L=<henry>")
        value = _positive(l_tok, _parse_number(l_tok, _kv(l_tok, "L")), "L")
        ports = self._parse_two_ports(lp)
        self.declarations.append(IndDecl(name, value, ports))

    def _parse_opamp(self, lp: _LineParser):
        name_tok = lp.take("an op-amp name")
        name = _parse_name(name_tok, "op-amp name")
        self.declare(name_tok, name)
        left_tok = lp.take("left=<line>")
        left = _kv(left_tok, "left")
        self.require_port(left_tok, left)
        if left == "gnd":
            raise _err(left_tok, "op-amp ports must be lines")
        right_tok = lp.take("right=<line>")
        right = _kv(right_tok, "right")
        self.require_port(right_tok, right)
        if right == "gnd":
            raise _err(right_tok, "op-amp ports must be lines")
        if right == left:
            raise _err(right_tok, "left and right lines must differ")
        zf_tok = lp.take("Zf=cap:<farad>")
        zf_value = _kv(zf_tok, "Zf")
        if not zf_value.startswith("cap:"):
            raise _err(zf_tok, "only capacitive feedback Zf=cap:<farad> "
                               "is supported")
        c_f = _positive(zf_tok, _parse_number(zf_tok, zf_value[4:]), "Zf cap")
        ra_tok = lp.take("R_a=<ohm>")
        r_a = _positive(ra_tok, _parse_number(ra_tok, _kv(ra_tok, "R_a")),
                        "R_a")
        th_tok = lp.take("Theta_a=<K>")
        theta_a = _positive(th_tok,
                            _parse_number(th_tok, _kv(th_tok, "Theta_a")),
                            "Theta_a")
        self.opamp_lines[left] = name
        self.opamp_lines[right] = name
        self.declarations.append(
            OpAmpDecl(name, left, right, c_f, r_a, theta_a))

    def _parse_gain(self, lp: _LineParser):
        name_tok = lp.take("a gain-stage name")
        name = _parse_name(name_tok, "gain-stage name")
        self.declare(name_tok, name)
        in_tok = lp.take("in=<line>")
        input_line = _kv(in_tok, "in")
        self.require_line(in_tok, input_line)
        g_tok = lp.take("G=<complex>")
        gain = _parse_complex(g_tok, _kv(g_tok, "G"))
        if abs(gain) < 1.0:
            raise _err(g_tok, "|G| must be >= 1 (model attenuation passively)")
        tb_tok = lp.take("T_b=<kelvin>")
        t_b = _nonnegative(tb_tok, _parse_number(tb_tok, _kv(tb_tok, "T_b")),
                           "T_b")
        self.declarations.append(GainDecl(name, input_line, gain, t_b))

    def _parse_sweep(self, lp: _LineParser):
        head = self.sweep_seen
        tok_min = lp.take("<f_min_Hz>")
        if head is not None:
            raise _err(tok_min, "duplicate sweep (exactly one allowed)")
        f_min = _positive(tok_min, _parse_number(tok_min), "f_min")
        tok_max = lp.take("<f_max_Hz>")
        f_max = _positive(tok_max, _parse_number(tok_max), "f_max")
        if f_max < f_min:
            raise _err(tok_max, "f_max must be >= f_min")
        tok_n = lp.take("<n_points>")
        n_value = _parse_number(tok_n)
        if n_value != int(n_value) or int(n_value) < 1:
            raise _err(tok_n, "n_points must be a positive integer")
        tok_scale = lp.take("lin|log")
        if tok_scale.text not in ("lin", "log"):
            raise _err(tok_scale, "expected lin or log")
        self.sweep_seen = tok_min
        self.declarations.append(
            SweepDecl(f_min, f_max, int(n_value), tok_scale.text))

    def _parse_measure(self, lp: _LineParser):
        line_tok = lp.take("a line to measure")
        line = _parse_name(line_tok, "line name")
        if line == "muscope":
            if self.preset_seen is None:
                raise _err(line_tok, "measure muscope requires the muscope "
                                     "preset")
        else:
            self.require_line(line_tok, line)
        as_tok = lp.take("as")
        if as_tok.text != "as":
            raise _err(as_tok, "expected 'as'")
        label_tok = lp.take("an estimator label")
        label = _parse_name(label_tok, "estimator label")
        if label in self.labels:
            raise _err(label_tok, f"duplicate estimator label {label!r}")
        self.labels[label] = label_tok
        sig_tok = lp.take("signal=<line or builtin>")
        signal = _kv(sig_tok, "signal")
        if signal == "force":
            if line != "muscope":
                raise _err(sig_tok, "builtin signal 'force' only applies to "
                                    "the muscope preset")
        elif not _NAME_RE.match(signal):
            raise _err(sig_tok, "expected a line name or builtin")
        else:
            self.require_line(sig_tok, signal)
        self.declarations.append(MeasureDecl(line, label, signal))

    def _parse_preset(self, lp: _LineParser):
        name_tok = lp.take("a preset name")
        if name_tok.text != "muscope":
            raise _err(name_tok, "unknown preset (available: muscope)")
        if self.preset_seen is not None:
            raise _err(name_tok, "duplicate preset")
        self.preset_seen = name_tok
        overrides = []
        seen = set()
        while lp.pos < len(lp.tokens):
            tok = lp.take("key=value override")
            if "=" not in tok.text:
                raise _err(tok, "expected key=value override")
            key, _, raw = tok.text.partition("=")
            if key not in PRESET_KEYS:
                raise _err(tok, f"unknown preset parameter {key!r} "
                                f"(one of: {' '.join(PRESET_KEYS)})")
            if key in seen:
                raise _err(tok, f"duplicate override {key!r}")
            seen.add(key)
            if not raw:
                raise _err(tok, f"expected a value after {key}=")
            overrides.append((key, _parse_number(tok, raw)))
        self.declarations.append(PresetDecl("muscope", tuple(overrides)))

    def finish(self, rows: List[List[_Token]]) -> NetlistDocument:
        if rows:
            last = rows[-1][-1]
            eof = _Token("<end of file>", last.line,
                         last.column + len(last.text))
        else:
            eof = _Token("<end of file>", 1, 1)
        if self.preset_seen is None:
            if self.sweep_seen is None:
                raise _err(eof, "missing sweep declaration")
            if not self.labels:
                raise _err(eof, "missing measure declaration")
        return NetlistDocument(tuple(self.declarations))


def parse_netlist(text: str) -> NetlistDocument:
    """Parse a netlist; raises NetlistParseError at the first error."""
    rows = _tokenize(text)
    parser = _Parser()
    for tokens in rows:
        parser.parse_decl(tokens)
    return parser.finish(rows)


def _fmt_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def format_netlist(doc: NetlistDocument) -> str:
    """Canonical text of a document; reparses to an equal document."""
    out = []
    for decl in doc.declarations:
        if isinstance(decl, LineDecl):
            out.append(f"line {decl.name} R={decl.resistance!r} "
                       f"T={decl.temperature!r}")
        elif isinstance(decl, CapDecl):
            out.append(f"cap {decl.name} C={decl.capacitance!r} "
                       f"ports=({decl.ports[0]},{decl.ports[1]})")
        elif isinstance(decl, IndDecl):
            out.append(f"ind {decl.name} L={decl.inductance!r} "
                       f"ports=({decl.ports[0]},{decl.ports[1]})")
        elif isinstance(decl, OpAmpDecl):
            out.append(f"opamp {decl.name} left={decl.left} "
                       f"right={decl.right} "
                       f"Zf=cap:{decl.feedback_capacitance!r} "
                       f"R_a={decl.amp_impedance!r} "
                       f"Theta_a={decl.amp_temperature!r}")
        elif isinstance(decl, GainDecl):
            out.append(f"gain {decl.name} in={decl.input_line} "
                       f"G={_fmt_complex(decl.gain)} "
                       f"T_b={decl.noise_temperature!r}")
        elif isinstance(decl, SweepDecl):
            out.append(f"sweep {decl.f_min_hz!r} "
                       f"{decl.f_max_hz!r} {decl.n_points} "
                       f"{decl.scale}")
        elif isinstance(decl, MeasureDecl):
            out.append(f"measure {decl.line} as {decl.label} "
                       f"signal={decl.signal}")
        elif isinstance(decl, PresetDecl):
            parts = [f"preset {decl.name}"]
            parts.extend(f"{k}={v!r}" for k, v in decl.overrides)
            out.append(" ".join(parts))
        else:
            raise TypeError(f"unknown declaration {decl!r}")
    return "\n".join(out) + "\n"
