import random

import pytest

from easic import parse_blif, emit_blif, stats
from easic.netlist import (
    BlifError,
    Cell,
    LutMask,
    MODE_RE,
    MODE_ST,
    Netlist,
    NetlistError,
)

from circuits import (AND2, BUF1, INV1, ff, isomorphic, lut, netlist,
                      random_comb_netlist)


def test_parse_and_gate_mask():
    nl = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
    cell = nl.cells["y"]
    assert cell.kind == "LUT"
    assert cell.mode == MODE_RE
    assert cell.mask == LutMask(2, 0x8)


def test_parse_or_gate_mask():
    nl = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n")
    assert nl.cells["y"].mask == LutMask(2, 0xE)


def test_parse_constant_one_becomes_tie():
    nl = parse_blif(".model m\n.outputs y\n.names y\n1\n.end\n")
    assert nl.cells["y"].kind == "TIE1"


def test_parse_constant_zero_empty_cover():
    nl = parse_blif(".model m\n.outputs y\n.names y\n.end\n")
    assert nl.cells["y"].kind == "TIE0"


def test_parse_offset_cover():
    # cover listed with output 0 describes the complement
    nl = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n")
    assert nl.cells["y"].mask == LutMask(2, 0x7)


def test_parse_dont_care_expansion():
    nl = parse_blif(
        ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-0 1\n.end\n"
    )
    # a=1, c=0, b free: minterms 1 and 3
    assert nl.cells["y"].mask.bits == (1 << 1) | (1 << 3)


def _expand_cube(pattern):
    """Minterm indices a cube covers (in_0 = first char = LSB)."""
    indices = [0]
    for pos, ch in enumerate(pattern):
        if ch == "1":
            indices = [i | 1 << pos for i in indices]
        elif ch == "-":
            indices += [i | 1 << pos for i in indices]
    return indices


def test_covers_match_minterm_expansion():
    rng = random.Random(11)
    for _ in range(300):
        width = rng.randint(0, 6)
        value = rng.choice("01")
        rows = ["".join(rng.choice("01--") for _ in range(width))
                for _ in range(rng.randint(0, 5))]
        want = 0
        for pattern in rows:
            for index in _expand_cube(pattern):
                want |= 1 << index
        if rows and value == "0":
            want ^= (1 << (1 << width)) - 1
        ins = [f"i{k}" for k in range(width)]
        text = "".join([
            ".model m\n",
            f".inputs {' '.join(ins)}\n" if ins else "",
            ".outputs y\n",
            f".names {' '.join([*ins, 'y'])}\n",
            *(f"{p} {value}\n" if width else f"{value}\n" for p in rows),
            ".end\n",
        ])
        cell = parse_blif(text).cells["y"]
        if width:
            assert cell.mask == LutMask(width, want)
        else:
            assert cell.kind == ("TIE1" if want else "TIE0")


@pytest.mark.parametrize("rows, error", [
    (["1x 1", "1 0"], "line 5: cover mixes output values"),
    (["1x 1", "1 1"], "line 5: bad cube character 'x'"),
    (["11 1", "1 1", "x1 1"], "line 6: cube width 1 does not match"),
    (["1x0 1"], "line 5: cube width 3 does not match"),
])
def test_cover_errors_keep_their_precedence(rows, error):
    text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n"
    with pytest.raises(BlifError) as info:
        parse_blif(text + "\n".join(rows) + "\n.end\n")
    assert str(info.value).startswith(error)


_HEAD = ".model m\n.inputs a b d\n.outputs y\n"  # lines 1-3


@pytest.mark.parametrize("body, line, message", [
    pytest.param(".model n\n", 4, "multiple .model directives",
                 id="multiple-model"),
    pytest.param(".bogus x\n", 4, "unsupported directive .bogus",
                 id="unsupported-directive"),
    pytest.param("hello world\n", 4, "unexpected text 'hello world'",
                 id="unexpected-text"),
    pytest.param(".names\n", 4, ".names without an output",
                 id="names-without-output"),
    pytest.param(".names a b y\n11\n", 5, "bad cover row '11'",
                 id="bad-cover-row"),
    pytest.param(".names y\n1 1\n", 5, "bad cover row '1 1'",
                 id="bad-constant-row"),
    pytest.param(".names a b y\n11 2\n", 5, "bad cover output '2'",
                 id="bad-cover-output"),
    pytest.param(".names a b y\n1x 1\n11 0\n11\n", 7, "bad cover row '11'",
                 id="row-shape-before-cover-errors"),
    pytest.param(".names a b y\n11\n.bogus\n", 5, "bad cover row '11'",
                 id="block-before-next-directive"),
    pytest.param("# @static XOR2\n.names a b y\n11 1\n", 5,
                 "unknown @static kind XOR2", id="unknown-static-kind"),
    pytest.param("# @static XOR2\n.names a b y\n1x 1\n", 6,
                 "bad cube character 'x'", id="cover-before-static-kind"),
    pytest.param("# @static INV\n.names a b y\n11 1\n", 5,
                 "@static INV expects 1 inputs, got 2", id="static-arity"),
    pytest.param("# @static AND2\n.names y\n1\n", 5,
                 "@static AND2 does not match constant block TIE1",
                 id="constant-under-wrong-mark"),
    pytest.param("# @static LUT\n.latch d y 0\n", 5,
                 "@static mark before .latch", id="mark-before-latch"),
    pytest.param(".latch d\n", 4, ".latch needs input and output",
                 id="latch-without-output"),
    pytest.param(".latch d y 5\n", 4, "bad latch init value 5",
                 id="latch-bad-init"),
    pytest.param(".latch d y xx clk\n", 4, "unknown latch type xx",
                 id="latch-bad-type"),
    pytest.param(".latch d y re clk 7\n", 4, "bad latch init value 7",
                 id="latch-bad-typed-init"),
    pytest.param(".latch d y re clk 0 1\n", 4, "too many .latch fields",
                 id="latch-too-many-fields"),
    pytest.param(".latch a y re clkA 0\n.latch b z re clkB 0\n", 5,
                 "multiple clocks: clkA and clkB", id="multiple-clocks"),
    pytest.param(".names a y\n1 1\n.names b y\n1 1\n", 6,
                 "duplicate cell name y", id="duplicate-cell"),
    pytest.param(".names a b y\n11 1\n# @static OR2\n.names a b z\n11 1\n", 7,
                 "cover 0x8 does not match OR2 truth table 0xe",
                 id="repeated-cover-under-wrong-mark"),
    pytest.param(".names a b y\n1- 1\n# @static LUT\n-1 1\n", 7,
                 "unexpected text '-1 1'", id="mark-ends-the-block"),
    pytest.param(".inputs c \\\n e\n.bogus \\\n x\n", 6,
                 "unsupported directive .bogus", id="continued-line"),
    # rows are read through a table of the rows that passed: a bad row
    # fails at its own line, in the same precedence, however its pattern
    # or text was seen before
    pytest.param(".names a b y\n11 1\n.names a b z\n11 2\n", 7,
                 "bad cover output '2'", id="bad-output-after-its-pattern"),
    pytest.param(".names a b y\n11 1\n11 2\n", 6, "bad cover output '2'",
                 id="bad-output-after-its-pattern-in-one-cover"),
    pytest.param(".names a b y\n11 1\n.names a b z\n11 1 1\n", 7,
                 "bad cover row '11 1 1'", id="bad-shape-after-its-pattern"),
    pytest.param(".names a b y\n11 1\n.names a b z\n11 0\n11 1\n", 7,
                 "cover mixes output values 0 and 1",
                 id="mixed-after-its-rows"),
    pytest.param(".names a b y\n1- 1\n.names a b z\n1- 1\n1x 1\n", 8,
                 "bad cube character 'x'", id="bad-cube-after-a-seen-row"),
    pytest.param(".names a b y\n11 1\n10 0\n1 1 1\n", 7,
                 "bad cover row '1 1 1'", id="shape-after-mixed"),
    pytest.param(".names a b y\n11 1\n1 1 1\n10 0\n", 6,
                 "bad cover row '1 1 1'", id="shape-before-mixed"),
    pytest.param(".names a b y\n11 1\n.names a b z\n11 1\n10 0\n11\n", 9,
                 "bad cover row '11'", id="shape-after-seen-rows-and-mixed"),
    pytest.param(".names a b y\n1x 1\n11 0\n", 5,
                 "cover mixes output values 0 and 1", id="mixed-before-cube"),
    pytest.param(".names a b y\n11 1\n.names a b z\n111 1\n11 1\n", 7,
                 "cube width 3 does not match 2 inputs",
                 id="bad-cube-before-a-seen-row"),
])
def test_reader_errors(body, line, message):
    with pytest.raises(BlifError) as info:
        parse_blif(_HEAD + body + ".end\n")
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)


def test_reader_numbers_lines_past_the_first_piece(monkeypatch):
    # \r\n line ends, a continued line and a blank line over pieces of
    # about 8 characters; the bad row is on line 9
    text = (".model m\r\n.inputs a \\\r\n b\r\n\r\n.outputs y\r\n"
            ".names a b y\r\n11 1\r\n.names a z\r\n1 1 1\r\n.end\r\n")
    for piece in (1 << 16, 8):
        monkeypatch.setattr("easic.netlist._PIECE", piece)
        with pytest.raises(BlifError) as info:
            parse_blif(text)
        assert (str(info.value), info.value.line) == (
            "line 9: bad cover row '1 1 1'", 9)


@pytest.mark.parametrize("text", ["", ".inputs a\n"])
def test_missing_model_is_reported_at_line_1(text):
    with pytest.raises(BlifError) as info:
        parse_blif(text)
    assert (str(info.value), info.value.line) == (
        "line 1: missing .model directive", 1)


def test_text_after_end_is_ignored():
    nl = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
                    ".end\ngarbage\n# @static XOR2\n.bogus\n")
    assert nl.cells["y"].mask == LutMask(1, 0x2)


def test_static_mark_is_a_line_of_its_own():
    # after other text, "# @static KIND" is an ordinary comment
    nl = parse_blif(_HEAD + ".names a b y # @static AND2\n11 1\n.end\n")
    cell = nl.cells["y"]
    assert (cell.kind, cell.mode, cell.mask) == ("LUT", MODE_RE, LutMask(2, 0x8))
    nl = parse_blif(_HEAD + "  #  @static AND2  \n.names a b y\n11 1\n.end\n")
    assert nl.cells["y"].kind == "AND2"


def test_parse_line_continuation_and_comments():
    text = (
        ".model m\n.inputs a \\\nb\n.outputs y\n"
        "# a comment\n.names a b y\n11 1\n.end\n"
    )
    nl = parse_blif(text)
    assert nl.inputs == ["a", "b"]


def test_parse_latch_forms():
    nl = parse_blif(
        ".model m\n.inputs d\n.outputs q\n.latch d q re clk 0\n.end\n"
    )
    cell = nl.cells["q"]
    assert cell.kind == "FF"
    assert cell.inputs == ("d", "clk")
    assert nl.clock == "clk"

    nl2 = parse_blif(".model m\n.inputs d\n.outputs q\n.latch d q 1\n.end\n")
    assert nl2.cells["q"].init == 1


def test_parse_rejects_seven_inputs():
    cover = ".names a b c d e f g y\n1111111 1\n"
    text = ".model m\n.inputs a b c d e f g\n.outputs y\n" + cover + ".end\n"
    with pytest.raises(BlifError) as err:
        parse_blif(text)
    assert "7 inputs" in str(err.value)
    assert err.value.line == 4


def test_parse_rejects_multiple_drivers():
    text = (
        ".model m\n.inputs a b\n.outputs y\n"
        ".names a y\n1 1\n.names b y\n1 1\n.end\n"
    )
    with pytest.raises(BlifError, match="duplicate cell|multiply driven"):
        parse_blif(text)


def test_parse_rejects_undriven_net():
    text = ".model m\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n"
    with pytest.raises(BlifError, match="ghost"):
        parse_blif(text)


def test_parse_rejects_combinational_cycle():
    text = (
        ".model m\n.inputs a\n.outputs y\n"
        ".names a y x\n11 1\n.names x y\n1 1\n.end\n"
    )
    with pytest.raises(BlifError, match="cycle"):
        parse_blif(text)


def test_parse_rejects_multiple_clocks():
    text = (
        ".model m\n.inputs d1 d2\n.outputs q1 q2\n"
        ".latch d1 q1 re clkA 0\n.latch d2 q2 re clkB 0\n.end\n"
    )
    with pytest.raises(BlifError, match="clock"):
        parse_blif(text)


def test_parse_error_reports_line_number():
    with pytest.raises(BlifError, match="line 3"):
        parse_blif(".model m\n.inputs a\n.bogus\n.end\n")


def test_roundtrip_corpus(designs):
    for nl in designs.values():
        again = parse_blif("".join(emit_blif(nl)))
        assert isomorphic(nl, again)


def test_roundtrip_preserves_static_cells():
    text = (
        ".model m\n.inputs a b s\n.outputs y z t w v\n"
        "# @static AND2\n.names a b y\n11 1\n"
        "# @static MUX2\n.names s a b z\n01- 1\n1-1 1\n"
        "# @static TIE1\n.names t\n1\n"
        "# @static NAND2\n.names a b w\n0- 1\n-0 1\n"
        "# @static NOR2\n.names a b v\n00 1\n.end\n"
    )
    nl = parse_blif(text)
    assert nl.cells["y"].kind == "AND2"
    assert nl.cells["z"].kind == "MUX2"
    assert nl.cells["t"].kind == "TIE1"
    assert nl.cells["w"].kind == "NAND2"
    assert nl.cells["v"].kind == "NOR2"
    assert isomorphic(nl, parse_blif("".join(emit_blif(nl))))


def test_static_annotation_must_match_truth_table():
    text = ".model m\n.inputs a b\n.outputs y\n# @static AND2\n.names a b y\n1- 1\n.end\n"
    with pytest.raises(BlifError, match="truth table"):
        parse_blif(text)


def test_static_lut_mode_roundtrip():
    nl = netlist("m", ["a", "b"], ["y"],
                 [lut("y", ("a", "b"), LutMask(2, 0x9), mode=MODE_ST)])
    again = parse_blif("".join(emit_blif(nl)))
    assert again.cells["y"].mode == MODE_ST
    assert isomorphic(nl, again)


def test_mask_canonicality_random_masks():
    rng = random.Random(7)
    for _ in range(200):
        width = rng.randint(1, 6)
        bits = rng.getrandbits(1 << width)
        ins = [f"i{k}" for k in range(width)]
        nl = netlist("m", ins, ["y"], [lut("y", ins, LutMask(width, bits))])
        again = parse_blif("".join(emit_blif(nl)))
        assert again.cells["y"].mask.bits == bits


def test_roundtrip_hybrid_after_obfuscation(designs, lib):
    from easic import ObfuscationConfig, run_obfuscation

    res = run_obfuscation(designs["cmp4"],
                          ObfuscationConfig(obf_percent=50, library=lib))
    again = parse_blif("".join(emit_blif(res.netlist)))
    assert isomorphic(res.netlist, again)


def test_stats_counts(designs):
    st = stats(designs["sbm29"])
    assert st.lut_total == 29
    assert st.lut_re == 29 and st.lut_st == 0
    assert st.ff_count == 19
    assert st.input_count == 10

    empty = netlist("empty", ["a"], [], [])
    st0 = stats(empty)
    assert st0.lut_total == 0 and st0.ff_count == 0 and st0.gate_count == 0


def test_lutmask_invariants():
    with pytest.raises(NetlistError):
        LutMask(0, 0)
    with pytest.raises(NetlistError):
        LutMask(7, 0)
    with pytest.raises(NetlistError):
        LutMask(2, 0x10)  # five bits in a 4-bit table
    assert LutMask(2, 0x6).lifted(3) == LutMask(3, 0x66)
    assert LutMask(1, 0x2).lifted(2) == LutMask(2, 0xA)


def test_lutmask_eval():
    # (in_0, in_1) = (1, 1) reads bit 3, (1, 0) reads bit 1
    mask = LutMask(2, 0x8)
    assert (mask.bits >> 0b11) & 1 == 1
    assert (mask.bits >> 0b01) & 1 == 0


def test_cell_arity_checks():
    with pytest.raises(NetlistError):
        Cell("x", "AND2", ("a",))
    with pytest.raises(NetlistError, match="mode"):
        Cell("x", "AND2", ("a", "b"), mode=MODE_RE)
    with pytest.raises(NetlistError):
        Cell("x", "LUT", ("a", "b"), mask=LutMask(3, 0))


def test_driver_uniqueness_in_constructed_netlist():
    # a cell drives the net it is named by: one named like a primary
    # input is a second driver of that net
    nl = netlist("m", ["a"], ["y"], [lut("y", ("a",), BUF1)])
    nl.add_cell(lut("a", ("y",), INV1))
    with pytest.raises(NetlistError, match="multiply driven"):
        nl.validate()


def _unchecked(inputs, outputs, cells, clock=None):
    nl = Netlist(name="m", inputs=list(inputs), outputs=list(outputs),
                 clock=clock)
    for cell in cells:
        nl.add_cell(cell)
    return nl


@pytest.mark.parametrize("nl, message", [
    pytest.param(_unchecked(["a", "a"], ["y", "y"], [lut("y", ("b",), BUF1)]),
                 "duplicate primary input", id="duplicate-pi"),
    pytest.param(_unchecked(["a"], ["y", "y"], [lut("a", ("b",), BUF1)]),
                 "duplicate primary output", id="duplicate-po"),
    pytest.param(_unchecked(["a", "b"], ["y"], [lut("a", ("b",), BUF1),
                                                ff("q", "x", "c1"),
                                                ff("r", "x", "c2")]),
                 "net a is multiply driven (by a and a primary input)",
                 id="cell-named-like-pi"),
    pytest.param(_unchecked(["a", "b", "c"], [], [lut("c", ("a",), BUF1),
                                                  lut("clk", ("a",), BUF1),
                                                  lut("b", ("a",), BUF1)],
                            clock="clk"),
                 "net b is multiply driven (by b and a primary input)",
                 id="smallest-clash-first"),
    pytest.param(_unchecked(["a"], [], [lut("clk", ("a",), BUF1),
                                        ff("q", "a", "clk"),
                                        ff("r", "a", "c2")], clock="clk"),
                 "net clk is multiply driven (by clk and a primary input)",
                 id="cell-named-like-clock"),
    pytest.param(_unchecked(["a"], ["z"], [ff("q", "x", "c2"),
                                           ff("r", "x", "c1")], clock="c3"),
                 "multiple clocks: ['c1', 'c2']", id="multiple-clocks"),
    pytest.param(_unchecked(["a"], ["z"], [ff("q", "x", "other")],
                            clock="clk"),
                 "clock mismatch: clk vs other", id="clock-mismatch"),
    pytest.param(_unchecked(["a"], ["z"], [ff("q", "x", "g"),
                                           lut("g", ("a",), BUF1)]),
                 "clock net g driven by cell g", id="inferred-clock-driven"),
    pytest.param(_unchecked(["a"], ["z"], [lut("y", ("a", "ghost"), AND2),
                                           lut("w", ("w",), BUF1)]),
                 "net ghost used by cell y has no driver", id="undriven-input"),
    pytest.param(_unchecked(["a"], ["z"], [ff("q", "ghost")], clock="clk"),
                 "net ghost used by cell q has no driver", id="undriven-ff-d"),
    pytest.param(_unchecked(["a"], ["y", "z"], [lut("y", ("y",), BUF1)]),
                 "primary output z has no driver", id="undriven-po"),
    pytest.param(_unchecked(["a"], ["y"], [lut("y", ("x",), BUF1),
                                           lut("x", ("a", "y"), AND2),
                                           lut("v", ("a",), BUF1)]),
                 "combinational cycle through ['x', 'y']", id="cycle"),
])
def test_validate_errors(nl, message):
    """Each validate() error by its full message.  Every case but the
    last also holds the next error down the list, so it pins which one
    wins."""
    with pytest.raises(NetlistError) as info:
        nl.validate()
    assert str(info.value) == message


def test_validate_counts_an_inferred_clock_as_a_source():
    nl = _unchecked(["a"], ["y"], [ff("q", "a", "clk"),
                                   lut("y", ("clk",), BUF1)])
    order = nl.validate()
    assert nl.clock == "clk"
    assert [c.name for c in order] == ["y"]
    assert nl.validate() == order


def test_a_driven_inferred_clock_fails_the_same_way_twice():
    nl = _unchecked(["a"], ["z"], [ff("q", "x", "g"), lut("g", ("a",), BUF1)])
    for _ in range(2):
        with pytest.raises(NetlistError) as info:
            nl.validate()
        assert str(info.value) == "clock net g driven by cell g"
    assert nl.clock is None


@pytest.mark.parametrize("model", ["\\", "m\\"])
def test_a_model_name_ending_in_a_backslash_is_refused(model):
    # emit_blif writes the name last on its line, where a backslash
    # would join the next line to it
    with pytest.raises(BlifError) as info:
        parse_blif(f".model {model} top\n.end\n")
    assert str(info.value) == (f"line 1: model name {model!r} ends in a "
                               "backslash")


def test_emit_blif_checks_before_the_first_chunk():
    nl = _unchecked(["a"], ["y"], [lut("y", ("ghost",), BUF1)])
    with pytest.raises(NetlistError, match="net ghost used by cell y"):
        emit_blif(nl)


def test_emit_blif_deterministic(designs):
    text1 = "".join(emit_blif(designs["adder8"]))
    text2 = "".join(emit_blif(designs["adder8"]))
    assert text1 == text2
    assert text1.endswith(".end\n")


def test_random_netlists_roundtrip():
    rng = random.Random(3)
    for k in range(20):
        nl = random_comb_netlist(rng, n_pis=5, n_cells=15, name=f"r{k}")
        assert isomorphic(nl, parse_blif("".join(emit_blif(nl))))
