"""Property tests over random LUT DAGs (hypothesis)."""

import contextlib
import copy
import io
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from easic import (  # noqa: E402
    EquivalencePolicy, ObfuscationConfig, blank_state, build_and_time,
    check_equivalence, decompose_lut, default_library, emit_blif, find_critical,
    load_library, lut_support, parse_blif, program, prove_by_cuts, report,
    run_obfuscation, serialize, sweep)
from easic.cli import main as cli_main  # noqa: E402
from easic.bitstream import (  # noqa: E402
    Bitstream, BitstreamError, read_bitstream, write_bitstream)
from easic import netlist as netlist_module  # noqa: E402
from easic.netlist import BlifError, Cell, LutMask, NetlistError  # noqa: E402
from easic.obfuscate import _splice_network  # noqa: E402
from easic.techlib import _DEFAULT_CONFIG  # noqa: E402
from easic.timing import _first_reconfigurable  # noqa: E402

from circuits import (  # noqa: E402
    BUF1, isomorphic, lut, lut6_dag, netlist, random_comb_netlist,
    random_seq_netlist, random_timing_dag)

LIB = default_library()


@st.composite
def lut_dags(draw):
    """LUTs of widths 1..6 over primary inputs and earlier LUTs; some
    LUTs may drive nothing, which exercises the fallback order."""
    pis = [f"i{k}" for k in range(draw(st.integers(1, 6)))]
    nets = list(pis)
    cells = []
    for k in range(draw(st.integers(1, 24))):
        width = draw(st.integers(1, min(6, len(nets))))
        ins = draw(st.lists(st.sampled_from(nets), min_size=width,
                            max_size=width, unique=True))
        bits = draw(st.integers(0, (1 << (1 << width)) - 1))
        cells.append(lut(f"n{k}", ins, LutMask(width, bits)))
        nets.append(f"n{k}")
    outs = draw(st.lists(st.sampled_from(nets[len(pis):]), min_size=1,
                         max_size=4, unique=True))
    return netlist("hyp", pis, outs, cells)


levels = st.lists(st.sampled_from([0, 12.5, 33, 50, 71, 86, 99, 100]),
                  min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(lut_dags(), levels)
def test_every_level_is_a_prefix_of_the_full_run(nl, sweep_levels):
    full = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=LIB))
    rows = sweep(nl, sweep_levels, library=LIB)
    for level, row in zip(sweep_levels, rows):
        res = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                    library=LIB))
        assert res.trace == full.trace[:len(res.trace)]
        assert row["lut_st"] == len(res.l_st)
        assert row["lut_re"] == len(res.l_re)
        assert row["area_st_um2"] == res.area_report().area_st
        rep = report(res.graph)
        assert (row["cp_ns"], row["sum_cp_ns"]) == (rep.cp / rep.unit,
                                                    rep.sum_cp / rep.unit)


@settings(max_examples=40, deadline=None)
@given(lut_dags(), st.data())
def test_splices_match_a_rebuild(nl, data):
    """LUTs converted one by one in a random order and spliced into the
    graph in place: arrivals equal a fresh build's, and the search on
    the graph, which keeps the candidates of the endpoints a splice did
    not reach, equals the search on a fresh build."""
    graph = build_and_time(nl, LIB)
    taken = nl.nets | set(nl.cells)
    order = data.draw(st.permutations(sorted(nl.cells)))
    for name in order:
        lut = nl.cells[name]
        network = decompose_lut(lut.mask, LIB)
        new_cells = _splice_network(nl, lut, network, taken)
        graph.splice(lut, new_cells)
        fresh = build_and_time(nl, LIB)
        assert graph.arrival == fresh.arrival
        assert report(graph) == report(fresh)
        # converted LUTs leave paths without a reconfigurable LUT, which
        # the search passes over into the deviations
        assert find_critical(graph) == find_critical(fresh)


def splice_constant_chain(nl, old, length, taken):
    """Replace LUT ``old`` by a TIE1 feeding ``length`` reconfigurable
    LUT1 buffers into an AND2 with its first input, so the constant
    source is often the slot's slowest input; returns the new cell
    names, as _splice_network does."""
    nl.remove_cell(old.name)
    names = []
    for k in range(length + 1):
        name = f"{old.name}_k{k}"
        while name in taken:
            name += "_"
        taken.add(name)
        nl.add_cell(lut(name, names[-1:], BUF1) if names
                    else Cell(name, "TIE1", ()))
        names.append(name)
    nl.add_cell(Cell(old.name, "AND2", (names[-1], old.inputs[0])))
    return [*names, old.name]


def searched_alone(graph):
    """find_critical without bounds or kept answers: the worst of every
    endpoint's answer, ties to the endpoint id."""
    found = [path for path in (_first_reconfigurable(graph, triple)
                               for triple in graph.endpoints())
             if path is not None]
    return min(found, key=lambda p: (-p.delay, p.endpoint), default=None)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["comb", "lut6", "seq"]), st.integers(0, 2 ** 32),
       st.sampled_from([100, 60, 30]), st.data())
def test_folded_slots_match_a_rebuild(kind, seed, level, data):
    """Random splices, of gate networks and of constant chains, into a
    random DAG or a sequential hybrid, each LUT spliced in a slot maybe
    spliced over again: after every splice, the search and the walks
    over slots left stale, and then the arrivals, equal a fresh
    build's, and the search equals its unbounded form."""
    rng = random.Random(seed)
    if kind == "comb":
        nl = random_comb_netlist(rng, rng.randint(1, 6), rng.randint(1, 30))
    elif kind == "lut6":
        nl = lut6_dag(rng, rng.randint(4, 30))
    else:
        nl = random_seq_netlist(rng, n_cells=rng.randint(1, 30))
    nl = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                               library=LIB)).netlist
    graph = build_and_time(nl, LIB)
    taken = nl.nets | set(nl.cells)
    for _ in range(data.draw(st.integers(1, 8))):
        luts = sorted(c.name for c in nl.cells.values()
                      if c.is_reconfigurable)
        if not luts:
            break
        old = nl.cells[data.draw(st.sampled_from(luts))]
        if data.draw(st.booleans()):
            new_cells = splice_constant_chain(
                nl, old, data.draw(st.integers(1, 4)), taken)
        else:
            new_cells = _splice_network(nl, old, decompose_lut(old.mask, LIB),
                                        taken)
        graph.splice(old, new_cells)
        fresh = build_and_time(nl, LIB)
        # the arrivals last: reading them retimes every stale slot
        assert find_critical(graph) == searched_alone(fresh)
        assert report(graph) == report(fresh)
        assert graph.arrival == fresh.arrival


def decimal_library(rng):
    """(library, exact): a library of random 3-decimal values, and the
    values of its decimal strings as Fractions: (ns, um^2) per gate
    kind, LUT width and "FF", and ns for "setup"."""
    def decimal(low, high):
        k = rng.randint(low, high)
        return f"{k // 1000}.{k % 1000:03d}"

    def delay():
        return decimal(0, 2000)

    def area():
        return decimal(1, 500000)

    config = copy.deepcopy(_DEFAULT_CONFIG)
    exact = {}
    for section in ("gates", "luts"):
        for key, entry in config[section].items():
            ns, um2 = delay(), area()
            entry.update(delay_ns=float(ns), area_um2=float(um2))
            key = int(key) if section == "luts" else key
            exact[key] = Fraction(ns), Fraction(um2)
    clk2q, setup, um2 = delay(), delay(), area()
    config["ff"] = {"clk2q_ns": float(clk2q), "setup_ns": float(setup),
                    "area_um2": float(um2)}
    exact["FF"] = Fraction(clk2q), Fraction(um2)
    exact["setup"] = Fraction(setup)
    return load_library(config), exact


def exact_arrivals(nl, exact):
    """Test-side oracle: every net's arrival in ns, as a Fraction."""
    arrival = {net: 0 for net in [*nl.inputs, nl.clock] if net is not None}
    for cell in nl.cells.values():
        if cell.is_ff:
            arrival[cell.name] = exact["FF"][0]
    for cell in nl.validate():
        pins = ([cell.inputs[i] for i in sorted(lut_support(cell.mask))]
                if cell.is_lut else cell.inputs)
        key = cell.mask.width if cell.is_lut else cell.kind
        arrival[cell.name] = (max(arrival[net] for net in pins)
                              + exact[key][0]) if pins else 0
    return arrival


def exact_area(cells, exact):
    return sum(exact[c.mask.width if c.is_lut else c.kind][1] for c in cells)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([0, 50, 86]))
def test_times_and_areas_are_exact_decimal_sums(seed, level):
    """The engine's conversions, replayed one splice at a time: after
    every splice each arrival is the exact decimal sum of library values
    in 1/time_unit ns, and every time and area that trace.json,
    timing.json and area.json write is that exact value, rounded once."""
    rng = random.Random(seed)
    lib, exact = decimal_library(rng)
    nl = random_timing_dag(rng, max_cells=60)
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                library=lib))
    nl = nl.copy()
    graph = build_and_time(nl, lib)
    taken = nl.nets | set(nl.cells)

    def endpoint_arrivals():
        arrival = exact_arrivals(nl, exact)
        assert graph.arrival == {net: t * lib.time_unit
                                 for net, t in arrival.items()}
        return [arrival[net] + (exact["setup"] if end.endswith("/D") else 0)
                for end, net, _ in graph.endpoints()]

    ends = endpoint_arrivals()
    for record in res.trace:
        assert record.cp_before == float(max(ends, default=0))
        old = nl.cells[record.lut]
        new = _splice_network(nl, old, decompose_lut(old.mask, lib), taken)
        graph.splice(old, new)
        ends = endpoint_arrivals()
        assert record.cp_after == float(max(ends, default=0))
        network = [nl.cells[name] for name in new]
        assert record.network_area == float(exact_area(network, exact))
        within = {}
        for cell in network:
            within[cell.name] = exact[cell.kind][0] + max(
                (within.get(net, 0) for net in cell.inputs), default=0)
        assert record.network_delay == float(within[new[-1]])

    timing = report(res.graph).to_json_dict()
    assert [e["arrival_ns"] for e in timing["endpoints"]] == \
        [float(t) for t in ends]
    assert timing["cp_ns"] == float(max(ends, default=0))
    assert timing["sum_cp_ns"] == float(sum(ends))
    cells = res.netlist.cells
    replaced = {name for c in res.trace for name in c.cells}
    static = set(cells) - res.l_re - replaced
    assert res.area_report().to_json_dict() == {
        key: float(exact_area([cells[n] for n in names], exact))
        for key, names in (("area_re_um2", res.l_re),
                           ("area_st_um2", replaced),
                           ("other_static_um2", static))}


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 2**32), st.sampled_from([0, 50, 86, 100]),
       st.data())
def test_cut_check_proves_hybrids_and_never_passes_a_refuted_flip(
        sequential, seed, level, data):
    """A programmed hybrid is proved; a configuration bit flip that
    simulation refutes is never proved."""
    rng = random.Random(seed)
    nl = (random_seq_netlist(rng, n_cells=rng.randint(4, 14)) if sequential
          else random_comb_netlist(rng, n_cells=rng.randint(4, 20)))
    hybrid = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                   library=LIB)).netlist
    stream = serialize(hybrid)
    assert prove_by_cuts(nl, program(blank_state(hybrid), stream)).proved
    if not stream.total_len:
        return
    policy = EquivalencePolicy(seed=seed, n_cycles=200)
    for index in data.draw(st.lists(st.integers(0, stream.total_len - 1),
                                    min_size=1, max_size=4, unique=True)):
        device = program(blank_state(hybrid),
                         Bitstream(stream.design, stream.chain,
                                   stream.key ^ 1 << index))
        if not check_equivalence(nl, device, policy).equivalent:
            assert not prove_by_cuts(nl, device).proved


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 2**32), st.sampled_from([0, 50, 100]))
def test_blif_emit_parse_is_an_isomorphism(sequential, seed, level):
    """Emitting a netlist or its hybrid and parsing the text back gives
    the same netlist, and emitting that gives the same text."""
    rng = random.Random(seed)
    nl = (random_seq_netlist(rng, n_cells=rng.randint(4, 14)) if sequential
          else random_comb_netlist(rng, n_cells=rng.randint(4, 20)))
    hybrid = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                   library=LIB)).netlist
    for design in (nl, hybrid):
        text = "".join(emit_blif(design))
        again = parse_blif(text)
        assert isomorphic(design, again)
        assert (again.name, again.clock) == (design.name, design.clock)
        assert "".join(emit_blif(again)) == text


@st.composite
def bitstreams(draw):
    """A design name and a chain of distinct LUT names (any UTF-8
    text) with widths 1..6, holding a random key."""
    names = draw(st.lists(st.text(max_size=6), max_size=5, unique=True))
    chain = tuple((name, draw(st.integers(1, 6))) for name in names)
    total = sum(1 << width for _, width in chain)
    return Bitstream(draw(st.text(max_size=6)), chain,
                     draw(st.integers(0, (1 << total) - 1)))


@settings(max_examples=60, deadline=None)
@given(bitstreams())
def test_ebs_write_read_is_the_identity(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("ebs") / "key.ebs"
    data = write_bitstream(stream, path)
    assert path.read_bytes() == data
    assert read_bitstream(path) == stream
    cut = path.with_name("cut.ebs")
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(BitstreamError):
            read_bitstream(cut)


# a letter, a space, and every line boundary str.splitlines() knows
LINE_ALPHABET = ["a", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LINE_ALPHABET), max_size=40).map("".join),
       st.integers(1, 8))
def test_piecewise_split_is_splitlines(text, piece):
    with mock.patch.object(netlist_module, "_PIECE", piece):
        assert list(netlist_module._split_lines(text)) == text.splitlines()


REPO = Path(__file__).resolve().parents[1]
# the corpus designs and the reader's rarer paths, as lines
MUTATION_SOURCES = [
    path.read_text(encoding="utf-8").splitlines()
    for path in (*sorted((REPO / "designs").glob("*.blif")),
                 REPO / "scripts" / "reader_paths.blif")]
MUTATION_TOKENS = [".names", ".latch", ".inputs", ".outputs", ".end", "\\",
                   "#", "# @static AND2", "# @static LUT", "-", "0", "1", "2",
                   "11", "1-", "\t", "\r", ""]


@st.composite
def blif_mutants(draw):
    """A corpus design or reader_paths.blif with one to three lines
    changed: a token of the line replaced, deleted or preceded by a
    mutation token, or a line of one mutation token added after it."""
    lines = list(draw(st.sampled_from(MUTATION_SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        k = draw(st.integers(0, len(tokens) - 1))
        token = draw(st.sampled_from(MUTATION_TOKENS))
        op = draw(st.sampled_from(["replace", "insert", "delete", "append"]))
        if op == "replace":
            tokens[k] = token
        elif op == "insert":
            tokens.insert(k, token)
        elif op == "delete":
            del tokens[k]
        else:
            lines.insert(at + 1, token)
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(blif_mutants())
def test_a_mutated_blif_fails_cleanly_or_round_trips(text):
    """The reader refuses a mutant with a BlifError or a NetlistError
    and nothing else; what it accepts, emit_blif writes back as text
    that reads as the same netlist."""
    try:
        nl = parse_blif(text)
    except (BlifError, NetlistError):
        return
    emitted = "".join(emit_blif(nl))
    again = parse_blif(emitted)
    assert isomorphic(nl, again)
    assert (again.name, again.clock) == (nl.name, nl.clock)
    assert "".join(emit_blif(again)) == emitted


def fold_oracle(width, cubes, value):
    """A cover's truth table, minterm by minterm and literal by literal."""
    bits = 0
    for idx in range(1 << width):
        if any(all(ch == "-" or int(ch) == (idx >> j) & 1
                   for j, ch in enumerate(cube)) for cube in cubes):
            bits |= 1 << idx
    if cubes and value == "0":
        bits ^= (1 << (1 << width)) - 1
    return bits


SPACES = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def covers(draw):
    """(width, cubes, value, row texts) of a cover: width 0..6, cubes
    with don't-cares and repeats, one output value, and rows spaced
    with blanks and tabs."""
    width = draw(st.integers(0, 6))
    pool = draw(st.lists(st.text("01-", min_size=width, max_size=width),
                         min_size=1, max_size=4))
    cubes = draw(st.lists(st.sampled_from(pool), max_size=6))
    value = draw(st.sampled_from("01"))
    rows = [draw(st.sampled_from(["", " ", "\t"])) + cube
            + (draw(SPACES) if width else "") + value
            + draw(st.sampled_from(["", " ", "\t"])) for cube in cubes]
    return width, cubes, value, rows


@settings(max_examples=150, deadline=None)
@given(st.lists(covers(), min_size=1, max_size=8),
       st.sampled_from(["\n", "\r\n"]))
def test_covers_fold_to_their_truth_tables(blocks, newline):
    """Covers read in one text, which share rows, patterns and row
    tables, each fold to the oracle's truth table."""
    pis = [f"i{k}" for k in range(6)]
    lines = [".model covers", ".inputs " + " ".join(pis),
             ".outputs " + " ".join(f"y{k}" for k in range(len(blocks)))]
    for k, (width, _, _, rows) in enumerate(blocks):
        lines.append(f".names {' '.join(pis[:width])} y{k}")
        lines += rows
    lines.append(".end")
    nl = parse_blif(newline.join(lines) + newline)
    for k, (width, cubes, value, _) in enumerate(blocks):
        cell = nl.cells[f"y{k}"]
        bits = fold_oracle(width, cubes, value)
        if width:
            assert (cell.kind, cell.mask.bits) == ("LUT", bits)
        else:
            assert cell.kind == ("TIE1" if bits else "TIE0")


# library values: numbers no float carries through the engine's sums and
# quotients, numbers at and past the bounds the loader allows, ordinary
# numbers, and values that are no numbers at all
LIB_NUMBERS = st.one_of(
    st.sampled_from([1e308, 5e-324, 10**400, "DIGITS", 0, 1e-9, 1e9, 1e-10,
                     1e10]),
    st.floats(min_value=0, allow_infinity=False), st.integers(0, 10**30))
LIB_VALUES = st.one_of(
    LIB_NUMBERS, LIB_NUMBERS,
    st.sampled_from([-0.05, float("inf"), float("nan"), "0.05", "", None,
                     True, [], {}]))


def json_paths(value, path=()):
    """The key path of every entry of nested JSON objects and arrays,
    parents first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from json_paths(item, path + (key,))


def json_at(document, path):
    """(the object or array that holds the entry at ``path``, its key)."""
    for key in path[:-1]:
        document = document[key]
    return document, path[-1]


@st.composite
def library_mutants(draw):
    """The built-in library as JSON text with one to three changes: an
    entry (a value, a gate or LUT entry, or a section) replaced by a
    value or deleted, a key added next to it, or every delay or every
    area set to one value.  "DIGITS" becomes an int of 5000 digits, too
    long to read."""
    config = copy.deepcopy(_DEFAULT_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(config))
        if not paths:
            break
        table, key = json_at(config, draw(st.sampled_from(paths)))
        value = draw(LIB_VALUES)
        op = draw(st.sampled_from(["set", "delete", "add", "all"]))
        if op == "set":
            table[key] = value
        elif op == "delete":
            del table[key]
        elif op == "add":
            table[draw(st.sampled_from(["7", "XOR9", "delay_ns"]))] = value
        else:
            suffix = draw(st.sampled_from(["_ns", "area_um2"]))
            for path in paths:
                if path[-1].endswith(suffix):
                    table, key = json_at(config, path)
                    table[key] = value
    return json.dumps(config).replace('"DIGITS"', "1" * 5000)


@settings(max_examples=60, deadline=None)
@given(library_mutants())
def test_a_mutated_library_exits_cleanly(tmp_path_factory, text):
    """obfuscate and sweep with a mutated --lib exit 0, or 3 with a
    message, and raise nothing."""
    work = tmp_path_factory.mktemp("lib")
    (work / "lib.json").write_text(text)
    adder8 = REPO / "designs" / "adder8.blif"
    for args in (("obfuscate", "--input", adder8, "--obf", "50"),
                 ("sweep", "--input", adder8, "--levels", "100,50,0")):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main([*map(str, args), "--lib", str(work / "lib.json"),
                             "--out", str(work / args[0])])
        assert code in (0, 3)
        if code == 3:
            assert err.getvalue().startswith("error: ")


RUN_DESIGNS = ("adder8", "counter8", "cmp4")
# the run-directory files that verify and the attacks read
RUN_FILES = ("easic.blif", "easic.ebs", "trace.json")


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """(runs, corpus): each RUN_DESIGNS design obfuscated at 50% into
    runs/<design>, and the histogram corpus of every design."""
    runs = tmp_path_factory.mktemp("runs")
    designs = REPO / "designs"
    with contextlib.redirect_stdout(io.StringIO()):
        for name in RUN_DESIGNS:
            assert cli_main(["obfuscate", "--input",
                             str(designs / f"{name}.blif"), "--obf", "50",
                             "--out", str(runs / name)]) == 0
        assert cli_main(["attack", "corpus", "--inputs",
                         *map(str, sorted(designs.glob("*.blif"))),
                         "--out", str(runs / "corpus")]) == 0
    return runs, runs / "corpus"


def mutate_run_file(draw, data, json_file):
    """``data`` with a byte flipped, cut short, a line deleted or
    repeated, or, in a JSON file, two values swapped or one made an int
    of 5000 digits, too long to read."""
    ops = ["flip", "truncate", "delete-line", "repeat-line"]
    ops += ["swap", "digits"] if json_file else []
    op = draw(st.sampled_from(ops))
    if op == "flip":
        at = draw(st.integers(0, len(data) - 1))
        flipped = data[at] ^ draw(st.integers(1, 255))
        return data[:at] + bytes([flipped]) + data[at + 1:]
    if op == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if op in ("delete-line", "repeat-line"):
        lines = data.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = [] if op == "delete-line" else [lines[at]] * 2
        return b"".join(lines)
    document = json.loads(data)
    # the numbers, strings, bools and nulls: swapping an array with an
    # entry of its own would make the document a cycle
    leaves = [(table, key) for table, key in
              (json_at(document, path) for path in json_paths(document))
              if not isinstance(table[key], (dict, list))]
    first, key = draw(st.sampled_from(leaves))
    if op == "digits":
        first[key] = "DIGITS"
        return json.dumps(document).replace('"DIGITS"', "7" * 5000).encode()
    second, other = draw(st.sampled_from(leaves))
    first[key], second[other] = second[other], first[key]
    return json.dumps(document).encode()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RUN_DESIGNS), st.sampled_from(RUN_FILES), st.data())
def test_a_mutated_run_directory_exits_cleanly(tmp_path_factory, run_dirs,
                                               design, name, data):
    """verify, attack composition and attack structural (the static
    portion with a trendline, and the reconfigurable portion) on a run
    directory with one mutated file each exit 0, 2, 3 or 5, and raise
    nothing."""
    runs, corpus = run_dirs
    work = tmp_path_factory.mktemp("mutant")
    run = work / "run"
    shutil.copytree(runs / design, run)
    (run / name).write_bytes(mutate_run_file(
        data.draw, (run / name).read_bytes(), name.endswith(".json")))
    commands = [
        ["verify", "--golden", REPO / "designs" / f"{design}.blif",
         "--easic", run],
        ["attack", "composition", "--victim", run, "--corpus", corpus],
        ["attack", "structural", "--input", run, "--scope", "static-portion",
         "--degree", "2"],
        ["attack", "structural", "--input", run, "--scope",
         "reconfigurable-portion"],
    ]
    for k, args in enumerate(commands):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([*map(str, args), "--out", str(work / f"o{k}")])
        assert code in (0, 2, 3, 5), args
