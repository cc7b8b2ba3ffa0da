import random

import pytest

from easic import (
    EquivalencePolicy,
    Evaluator,
    ObfuscationConfig,
    blank_state,
    check_equivalence,
    program,
    prove_by_cuts,
    run_obfuscation,
    serialize,
)
from easic.netlist import GATE_TRUTH, Cell, LutMask, NetlistError
from easic.sim import SimError, _input_pattern

from circuits import (CUT_REFUSALS, INV1, cut_golden, ff, lut, netlist,
                      random_comb_netlist, replay_counterexample)


def and_lut_netlist():
    return netlist("andy", ["a", "b"], ["y"],
                   [lut("y", ("a", "b"), LutMask(2, 0x8))])


def eval_vector(nl, vector):
    """Outputs of one input vector (ordered like nl.inputs) in the
    power-up state."""
    (outputs,) = Evaluator(nl).run([dict(zip(nl.inputs, vector))])
    return outputs


def test_eval_comb_and_lut():
    nl = and_lut_netlist()
    assert eval_vector(nl, (1, 1)) == (1,)
    assert eval_vector(nl, (1, 0)) == (0,)


def test_eval_tie_only_netlist():
    nl = netlist("tie", ["a"], ["y"], [Cell("y", "TIE1", ())])
    for a in (0, 1):
        assert eval_vector(nl, (a,)) == (1,)


def test_static_version_matches_exhaustively(lib):
    rng = random.Random(2)
    nl = random_comb_netlist(rng, n_pis=8, n_cells=25, name="r8")
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=lib))
    vectors = [{net: (v >> i) & 1 for i, net in enumerate(nl.inputs)}
               for v in range(256)]
    assert list(Evaluator(nl).run(vectors)) == \
        list(Evaluator(res.netlist).run(vectors))


def test_packed_evaluation_matches_lutmask_eval():
    # every gate kind and random LUT masks of widths 1..6 (plus the two
    # constants), packed over all 64 vectors of six inputs
    rng = random.Random(19)
    pis = [f"x{i}" for i in range(6)]
    cells = {}
    for kind, (arity, truth) in GATE_TRUTH.items():
        name = f"g_{kind}"
        # a TIE is a one-input function that ignores its input
        cells[name] = (Cell(name, kind, pis[:arity]),
                       LutMask(max(arity, 1), truth * 3 if arity == 0 else truth))
    for width in range(1, 7):
        full = (1 << (1 << width)) - 1
        for k, bits in enumerate([0, full] + [rng.getrandbits(1 << width)
                                              for _ in range(30)]):
            name = f"l{width}_{k}"
            mask = LutMask(width, bits)
            cells[name] = (lut(name, pis[:width], mask), mask)
    nl = netlist("every", pis, sorted(cells), [cell for cell, _ in cells.values()])
    values = Evaluator(nl).eval_packed(
        {net: _input_pattern(i, 64) for i, net in enumerate(pis)}, 64)
    for name, (cell, mask) in cells.items():
        for v in range(64):
            # in_i reads bit i of v
            index = v & (mask.table_size - 1)
            assert (values[name] >> v) & 1 == (mask.bits >> index) & 1, (name, v)


def test_toggle_register():
    cells = [lut("d", ("q",), INV1), ff("q", "d")]
    nl = netlist("tog", [], ["q"], cells, clock="clk")
    seen = [outs[0] for outs in Evaluator(nl).run([{}] * 4)]
    assert seen == [0, 1, 0, 1]


def test_ff_chain_from_constant():
    cells = [
        Cell("one", "TIE1", ()),
        ff("q1", "one"),
        ff("q2", "q1"),
    ]
    nl = netlist("chain2", [], ["q2"], cells, clock="clk")
    seen = [outs[0] for outs in Evaluator(nl).run([{}] * 4)]
    assert seen == [0, 0, 1, 1]


def test_step_respects_ff_init():
    cells = [lut("d", ("q",), INV1), ff("q", "d", init=1)]
    nl = netlist("tog1", [], ["q"], cells, clock="clk")
    (outs,) = Evaluator(nl).run([{}])
    assert outs == (1,)
    # packed: every lane starts from the init value
    assert list(Evaluator(nl).run([{}] * 2, 3)) == [(0b111,), (0,)]


def test_equivalence_self(designs):
    rep = check_equivalence(designs["cmp4"], designs["cmp4"])
    assert rep.equivalent
    assert rep.mode == "exhaustive"


def test_equivalence_and_vs_or_counterexample():
    a = and_lut_netlist()
    b = netlist("andy", ["a", "b"], ["y"],
                [lut("y", ("a", "b"), LutMask(2, 0xE))])
    rep = check_equivalence(a, b)
    assert not rep.equivalent
    vec = rep.counterexample["vector"]
    assert (vec["a"], vec["b"]) in {(1, 0), (0, 1)}
    assert replay_counterexample(a, b, rep)


def test_equivalence_port_mismatch():
    a = and_lut_netlist()
    b = netlist("other", ["a", "c"], ["y"],
                [lut("y", ("a", "c"), LutMask(2, 0x8))])
    with pytest.raises(SimError, match="port mismatch"):
        check_equivalence(a, b)


def test_policy_auto_selection(designs):
    rep = check_equivalence(designs["adder8"], designs["adder8"])
    assert rep.mode == "exhaustive"  # 16 PIs is within the limit
    rep = check_equivalence(designs["mux16"], designs["mux16"])
    assert rep.mode == "random"      # 20 PIs forces sampling
    rep = check_equivalence(designs["counter8"], designs["counter8"])
    assert rep.mode == "sequential"


def test_unprogrammed_device_is_an_error(designs):
    state = blank_state(designs["cmp4"])
    with pytest.raises(SimError, match="unprogrammed LUT"):
        Evaluator(state)


def test_programmed_device_lock_step(designs, lib):
    nl = designs["sbm29"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=60, library=lib))
    state = program(blank_state(res.netlist), serialize(res.netlist))
    rep = check_equivalence(nl, state,
                            EquivalencePolicy(seed=5, n_cycles=1000))
    assert rep.equivalent
    assert rep.mode == "sequential"
    assert rep.cycles == 1000


def test_seed_determinism(designs):
    a = check_equivalence(designs["mux16"], designs["mux16"],
                          EquivalencePolicy(seed=42))
    b = check_equivalence(designs["mux16"], designs["mux16"],
                          EquivalencePolicy(seed=42))
    assert a == b


def test_sequential_counterexample_replays(designs, lib):
    nl = designs["counter8"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=50, library=lib))
    stream = serialize(res.netlist)
    # flip one support bit of the first chained LUT
    from easic import lut_support

    first_name, first_width = stream.chain[0]
    mask = res.netlist.cells[first_name].mask
    support = sorted(lut_support(mask))
    flip_index = support[0]  # minterm 0 vs its neighbor along a support axis
    from easic.bitstream import Bitstream

    broken = Bitstream(stream.design, stream.chain,
                       stream.key ^ 1 << (1 << flip_index))
    state = program(blank_state(res.netlist), broken)
    rep = check_equivalence(nl, state, EquivalencePolicy(seed=3))
    if not rep.equivalent:
        assert replay_counterexample(nl, state, rep)


def test_counterexample_replay_rejects_equivalent_report(designs):
    rep = check_equivalence(designs["cmp4"], designs["cmp4"])
    assert replay_counterexample(designs["cmp4"], designs["cmp4"], rep) is False


def test_tie_nets_hold_constants_in_every_state():
    cells = [
        Cell("k1", "TIE1", ()),
        Cell("k0", "TIE0", ()),
        lut("y", ("k1", "k0"), LutMask(2, 0x6)),
    ]
    nl = netlist("ties", [], ["y"], cells)
    ev = Evaluator(nl)
    values = ev.eval_packed({}, 4)
    assert values["k1"] == 0b1111
    assert values["k0"] == 0
    assert values["y"] == 0b1111


def test_cut_check_proves_obfuscated_hybrids(lib):
    golden = cut_golden()
    for level in (0, 50, 100):
        res = run_obfuscation(golden, ObfuscationConfig(obf_percent=level,
                                                        library=lib))
        state = program(blank_state(res.netlist), serialize(res.netlist))
        check = prove_by_cuts(golden, state)
        assert check.proved, check.mismatches
        assert (check.cells, check.ffs, check.patterns) == (3, 1, 12)


@pytest.mark.parametrize("edit", sorted(CUT_REFUSALS))
def test_cut_check_refuses_structural_changes(edit):
    change, named = CUT_REFUSALS[edit]
    device = cut_golden()
    change(device)
    assert prove_by_cuts(cut_golden(), device).mismatches == named


def test_cut_check_reads_the_registers_not_the_masks(designs, lib):
    nl = designs["cmp4"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=50, library=lib))
    stream = serialize(res.netlist)
    lut_name, _ = stream.chain[0]
    from easic.bitstream import Bitstream

    state = program(blank_state(res.netlist),
                    Bitstream(stream.design, stream.chain, stream.key ^ 1))
    assert prove_by_cuts(nl, state).mismatches == [lut_name]
    with pytest.raises(SimError, match="unprogrammed LUT"):
        prove_by_cuts(nl, blank_state(res.netlist))


@pytest.mark.parametrize("compare", [prove_by_cuts, check_equivalence])
def test_comparisons_check_designs_handed_without_orders(compare):
    golden = and_lut_netlist()
    device = and_lut_netlist()
    device.cells["y"].inputs = ("a", "ghost")
    with pytest.raises(NetlistError, match="net ghost used by cell y"):
        compare(golden, device)
    with pytest.raises(NetlistError, match="net ghost used by cell y"):
        compare(device, golden)
