import re
from pathlib import Path

import pytest

from qnoise.netlist import (CapDecl, GainDecl, IndDecl, LineDecl, MeasureDecl,
                            NetlistParseError, OpAmpDecl, PresetDecl,
                            SweepDecl, _GRAMMAR, format_netlist,
                            parse_netlist)

DATA = Path(__file__).parent / "data"
VALID_FILES = sorted((DATA / "valid").glob("*.qn"))
MALFORMED_FILES = sorted((DATA / "malformed").glob("*.qn"))

MINIMAL_TAIL = "sweep 1 10 3 lin\nmeasure r1 as v signal=r1\n"


class TestNumbers:
    def test_si_suffix_expansion(self):
        doc = parse_netlist("line amp R=150k T=1.5\n" +
                            MINIMAL_TAIL.replace("r1", "amp"))
        decl = doc.lines[0]
        assert decl.resistance == 1.5e5
        assert decl.temperature == 1.5

    def test_all_suffixes(self):
        cases = {"k": 1e3, "M": 1e6, "G": 1e9, "m": 1e-3, "u": 1e-6,
                 "n": 1e-9, "p": 1e-12, "f": 1e-15}
        for suffix, scale in cases.items():
            doc = parse_netlist(f"line r1 R=2{suffix} T=0\n" + MINIMAL_TAIL)
            assert doc.lines[0].resistance == pytest.approx(2 * scale,
                                                            rel=1e-15)

    def test_scientific_notation(self):
        doc = parse_netlist("line r1 R=1.5e5 T=3E-1\n" + MINIMAL_TAIL)
        assert doc.lines[0].resistance == 1.5e5
        assert doc.lines[0].temperature == 0.3

    def test_negative_value_rejected_at_position(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=-3 T=0\n" + MINIMAL_TAIL)
        assert (exc.value.line, exc.value.column) == (1, 9)
        assert "positive" in exc.value.message


class TestDeclarations:
    def test_line_decl(self):
        doc = parse_netlist("line r1 R=50 T=300\n" + MINIMAL_TAIL)
        assert doc.lines == [LineDecl("r1", 50.0, 300.0)]

    def test_cap_and_ind(self):
        text = ("line a R=50 T=0\nline b R=50 T=0\n"
                "cap c1 C=1n ports=(a,b)\n"
                "ind l1 L=1m ports=(b,gnd)\n"
                "sweep 1 10 3 lin\nmeasure a as v signal=a\n")
        doc = parse_netlist(text)
        assert doc.caps == [CapDecl("c1", 1e-9, ("a", "b"))]
        assert doc.inds == [IndDecl("l1", 1e-3, ("b", "gnd"))]

    def test_opamp_decl(self):
        text = ("line sig R=150k T=0\nline det R=150k T=0\n"
                "opamp u1 left=sig right=det Zf=cap:10f R_a=150k "
                "Theta_a=1.5\n"
                "sweep 1 10 3 lin\nmeasure det as v signal=sig\n")
        doc = parse_netlist(text)
        decl = doc.opamps[0]
        assert (decl.name, decl.left, decl.right) == ("u1", "sig", "det")
        # suffix expansion multiplies, so compare to 10 * 1e-15 exactly
        assert decl.feedback_capacitance == 10 * 1e-15
        assert decl.amp_impedance == 1.5e5
        assert decl.amp_temperature == 1.5

    def test_gain_decl_complex(self):
        text = ("line a R=50 T=0\ngain g1 in=a G=1.5-0.5i T_b=4.2\n"
                "sweep 1 10 3 lin\nmeasure a as v signal=a\n")
        doc = parse_netlist(text)
        assert doc.gains == [GainDecl("g1", "a", 1.5 - 0.5j, 4.2)]

    def test_sweep_and_measure(self):
        doc = parse_netlist("line r1 R=50 T=0\n"
                            "sweep 1m 10k 101 log\n"
                            "measure r1 as noise signal=r1\n")
        assert doc.sweep == SweepDecl(1e-3, 1e4, 101, "log")
        assert doc.measures == [MeasureDecl("r1", "noise", "r1")]

    def test_preset_with_overrides(self):
        doc = parse_netlist("preset muscope mass=0.54 loop_gain=1e4\n")
        assert doc.preset == PresetDecl("muscope",
                                        (("mass", 0.54), ("loop_gain", 1e4)))

    def test_comments_ignored(self):
        doc = parse_netlist("# header\nline r1 R=50 T=0  # inline\n"
                            + MINIMAL_TAIL)
        assert len(doc.lines) == 1


class TestErrors:
    def test_missing_sweep_reported_at_end(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=50 T=300\n")
        assert exc.value.token == "<end of file>"
        assert "sweep" in exc.value.message

    def test_missing_field_reported_at_end_of_line(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=50\n")
        assert exc.value.token == "<end of line>"
        assert (exc.value.line, exc.value.column) == (1, 13)

    def test_first_error_wins(self):
        # both lines are bad; the earlier one must be reported
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=0 T=0\nline r2 R=-1 T=0\n")
        assert exc.value.line == 1

    def test_trailing_token(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=50 T=0 extra\n" + MINIMAL_TAIL)
        assert "trailing" in exc.value.message
        assert exc.value.token == "extra"

    def test_message_carries_position(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=-3 T=0\n")
        assert str(exc.value).startswith("1:9:")

    def test_case_sensitive_keywords(self):
        with pytest.raises(NetlistParseError):
            parse_netlist("LINE r1 R=50 T=0\n" + MINIMAL_TAIL)

    def test_measure_muscope_requires_preset(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("sweep 1 10 3 lin\n"
                          "measure muscope as acc signal=force\n")
        assert "preset" in exc.value.message

    @pytest.mark.parametrize("name", ["gnd", "muscope", "force"])
    @pytest.mark.parametrize("decl", ["line {} R=50 T=0",
                                      "cap {} C=1n ports=(a,gnd)",
                                      "gain {} in=a G=2 T_b=0"])
    def test_reserved_names_rejected_where_declared(self, decl, name):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line a R=50 T=0\n" + decl.format(name) + "\n"
                          + MINIMAL_TAIL.replace("r1", "a"))
        assert (exc.value.line, exc.value.token) == (2, name)
        assert exc.value.message.startswith(f"reserved name {name!r}")

    @pytest.mark.parametrize("signal", ["b", "force2", "gnd"])
    def test_measure_muscope_takes_only_signal_force(self, signal):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("preset muscope\nline b R=50 T=0\n"
                          f"measure muscope as m signal={signal}\n")
        assert (exc.value.line, exc.value.column) == (3, 22)
        assert exc.value.message == "measure muscope takes only signal=force"

    @pytest.mark.parametrize("decl, phrase", [
        ("ind 1l L=1m ports=(a,gnd)", "an inductor name"),
        ("opamp 1u left=a right=b Zf=cap:1p R_a=1k Theta_a=2",
         "an op-amp name"),
        ("measure a as 1x signal=a", "an estimator label"),
    ])
    def test_name_messages_read_an(self, decl, phrase):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line a R=50 T=0\nline b R=50 T=0\n" + decl + "\n")
        assert exc.value.message == \
            f"expected {phrase} (letters, digits, underscore)"

    def test_unknown_preset_key(self):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("preset muscope bogus=1\n")
        assert "unknown preset parameter" in exc.value.message

    @pytest.mark.parametrize("element", ["cap c2 C=1n", "ind c2 L=1u"])
    def test_element_ports_must_differ(self, element):
        # one line's element would be stamped once on the diagonal, as if
        # it went to gnd
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line r1 R=50 T=0\nline b R=50 T=0\n"
                          "cap c1 C=1n ports=(r1,b)\n"
                          f"{element} ports=(r1,r1)\n" + MINIMAL_TAIL)
        assert (exc.value.line, exc.value.column) == (4, 13)
        assert exc.value.message == "the two ports must differ"

    @pytest.mark.parametrize("ports, column", [("left=gnd right=b", 10),
                                               ("left=a right=gnd", 17)])
    def test_opamp_ports_must_be_lines(self, ports, column):
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist("line a R=50 T=0\nline b R=50 T=0\n"
                          f"opamp u1 {ports} Zf=cap:1p R_a=1k Theta_a=2\n")
        assert (exc.value.line, exc.value.column) == (3, column)
        assert exc.value.message == "op-amp ports must be lines"


class TestCanonicalFormat:
    def test_round_trip_equality(self):
        text = ("line a R=150k T=1.5\nline b R=1M T=0\n"
                "cap c1 C=2.5f ports=(a,b)\n"
                "gain g1 in=b G=2-1i T_b=0.1\n"
                "sweep 1m 10 7 log\nmeasure b as x signal=a\n")
        doc = parse_netlist(text)
        canonical = format_netlist(doc)
        assert parse_netlist(canonical) == doc

    def test_format_is_a_fixed_point(self):
        doc = parse_netlist("line a R=50 T=300\n" +
                            MINIMAL_TAIL.replace("r1", "a"))
        once = format_netlist(doc)
        assert format_netlist(parse_netlist(once)) == once

    def test_suffixes_expand_in_canonical_form(self):
        doc = parse_netlist("line a R=150k T=0\n" +
                            MINIMAL_TAIL.replace("r1", "a"))
        assert "R=150000.0" in format_netlist(doc)


class TestRecords:
    def test_names_and_fields_in_order(self):
        # made from the grammar table; callers read these attributes
        assert {record.__name__: record._fields for record in (
            LineDecl, CapDecl, IndDecl, OpAmpDecl, GainDecl, SweepDecl,
            MeasureDecl, PresetDecl)} == {
            "LineDecl": ("name", "resistance", "temperature"),
            "CapDecl": ("name", "capacitance", "ports"),
            "IndDecl": ("name", "inductance", "ports"),
            "OpAmpDecl": ("name", "left", "right", "feedback_capacitance",
                          "amp_impedance", "amp_temperature"),
            "GainDecl": ("name", "input_line", "gain", "noise_temperature"),
            "SweepDecl": ("f_min_hz", "f_max_hz", "n_points", "scale"),
            "MeasureDecl": ("line", "label", "signal"),
            "PresetDecl": ("name", "overrides")}
        assert PresetDecl("muscope").overrides == ()

    def test_kinds_with_equal_fields_differ(self):
        cap = CapDecl("c", 1e-9, ("a", "b"))
        ind = IndDecl("c", 1e-9, ("a", "b"))
        assert cap != ind and not cap == ind
        assert cap == CapDecl("c", 1e-9, ("a", "b"))
        assert cap != ("c", 1e-9, ("a", "b"))

    def test_documents_differ_in_one_declaration_kind(self):
        text = ("line a R=50 T=0\nline b R=50 T=0\ncap x C=1n ports=(a,b)\n"
                "sweep 1 10 3 lin\nmeasure a as v signal=b\n")
        doc = parse_netlist(text)
        other = parse_netlist(text.replace("cap x C=", "ind x L="))
        assert doc != other and not doc == other
        assert doc == parse_netlist(text)

    def test_records_are_immutable_and_hashable(self):
        doc = parse_netlist("line a R=50 T=0\n" +
                            MINIMAL_TAIL.replace("r1", "a"))
        with pytest.raises(AttributeError):
            doc.lines[0].resistance = 60.0
        with pytest.raises(AttributeError):
            doc.declarations = ()
        assert hash(doc) == hash(parse_netlist(format_netlist(doc)))
        assert len({decl: None for decl in doc.declarations}) == 3


class TestCorpus:
    @pytest.mark.parametrize("path", VALID_FILES, ids=lambda p: p.stem)
    def test_valid_files_parse_and_round_trip(self, path):
        doc = parse_netlist(path.read_text())
        assert parse_netlist(format_netlist(doc)) == doc

    @pytest.mark.parametrize("path", MALFORMED_FILES, ids=lambda p: p.stem)
    def test_malformed_files_report_annotated_position(self, path):
        text = path.read_text()
        match = re.match(r"# expect line=(\d+) col=(\d+)", text)
        assert match, f"{path} is missing its expectation header"
        with pytest.raises(NetlistParseError) as exc:
            parse_netlist(text)
        assert (exc.value.line, exc.value.column) == \
            (int(match.group(1)), int(match.group(2)))

    def test_corpus_is_populated(self):
        assert len(VALID_FILES) == 20
        assert len(MALFORMED_FILES) == 20


def test_readme_grammar_block_follows_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Netlist grammar\n.*?```\n(.*?)```", readme,
                      re.S).group(1)
    rows = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert [row[0] for row in rows] == list(_GRAMMAR)
    for keyword, *words in rows:
        keys = [w.split("=", 1)[0] for w in words if re.match(r"\w+=", w)]
        assert keys == [field.key for field in _GRAMMAR[keyword][1]
                        if isinstance(field.key, str)], keyword
