"""Property tests over random LUT DAGs (hypothesis)."""

import random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from easic import (  # noqa: E402
    EquivalencePolicy, ObfuscationConfig, blank_state, build_and_time,
    check_equivalence, decompose_lut, default_library, emit_blif, find_critical,
    parse_blif, program, prove_by_cuts, report, run_obfuscation, serialize,
    sweep)
from easic.bitstream import (  # noqa: E402
    Bitstream, BitstreamError, read_bitstream, write_bitstream)
from easic import netlist as netlist_module  # noqa: E402
from easic.netlist import LutMask  # noqa: E402
from easic.obfuscate import _splice_network  # noqa: E402

from circuits import (  # noqa: E402
    isomorphic, lut, netlist, random_comb_netlist, random_seq_netlist)

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
        assert (row["cp_ns"], row["sum_cp_ns"]) == (rep.cp, rep.sum_cp)


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
