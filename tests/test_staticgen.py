import random

import pytest

from easic import build_bdd, decompose_lut
from easic.netlist import MAX_LUT_WIDTH, LutMask, _input_pattern
from easic.staticgen import GateNetwork

from circuits import random_mask


def brute_force_eval(mask, bdd):
    for idx in range(mask.table_size):
        ref = bdd.root
        while ref > 1:
            var, lo, hi = bdd.node(ref)
            ref = hi if (idx >> var) & 1 else lo
        if ref != (mask.bits >> idx) & 1:
            return False
    return True


def test_bdd_constant_one_is_terminal():
    bdd = build_bdd(LutMask(6, (1 << 64) - 1))
    assert bdd.root == 1
    assert len(bdd.nodes) == 0


def test_bdd_projection_single_node():
    bdd = build_bdd(LutMask(2, 0xA))  # f = in0
    assert len(bdd.nodes) == 1
    assert bdd.node(bdd.root) == (0, 0, 1)


def test_bdd_reduced_and_ordered():
    rng = random.Random(11)
    for _ in range(100):
        mask = random_mask(rng, 6)
        bdd = build_bdd(mask)
        seen = set()
        for ref, (var, lo, hi) in enumerate(bdd.nodes, start=2):
            assert lo != hi
            assert (var, lo, hi) not in seen
            seen.add((var, lo, hi))
            for child in (lo, hi):
                if child > 1:
                    assert bdd.node(child)[0] > var


def test_bdd_eval_matches_mask_exhaustively():
    rng = random.Random(5)
    for _ in range(100):
        mask = random_mask(rng, 6)
        assert brute_force_eval(mask, build_bdd(mask))


def test_and_maps_to_single_gate(lib):
    net = decompose_lut(LutMask(2, 0x8), lib)
    assert [g.kind for g in net.cells] == ["AND2"]


def test_inverter_mask(lib):
    net = decompose_lut(LutMask(1, 0x1), lib)
    assert [g.kind for g in net.cells] == ["INV"]


def test_xor_within_three_gates(lib):
    net = decompose_lut(LutMask(2, 0x6), lib)
    assert len(net.cells) <= 3
    assert net.eval_table() == 0x6


def test_constant_masks(lib):
    zero = decompose_lut(LutMask(6, 0), lib)
    assert [g.kind for g in zero.cells] == ["TIE0"]
    assert zero.delay == 0

    one = decompose_lut(LutMask(3, 0xFF), lib)
    assert [g.kind for g in one.cells] == ["TIE1"]


def test_buffer_mask_minimal(lib):
    net = decompose_lut(LutMask(1, 0x2), lib)
    assert [g.kind for g in net.cells] == ["BUF"]
    assert net.area <= lib.area_q["BUF"]


def test_peephole_or_with_inverted_select(lib):
    # f(in0, in1) = in1 or not in0: lo cofactor is constant 1
    mask = LutMask(2, 0xD)
    net = decompose_lut(mask, lib)
    assert net.eval_table() == 0xD
    kinds = sorted(g.kind for g in net.cells)
    assert kinds == ["INV", "OR2"]


def test_all_masks_n_le_3_equivalent(lib):
    for width in (1, 2, 3):
        for bits in range(1 << (1 << width)):
            net = decompose_lut(LutMask(width, bits), lib)
            assert net.eval_table() == bits


def test_random_wide_masks_equivalent(lib):
    rng = random.Random(23)
    for width in (5, 6):
        for _ in range(300):
            mask = random_mask(rng, width)
            net = decompose_lut(mask, lib)
            assert net.eval_table() == mask.bits


def test_equal_masks_identical_networks(lib):
    rng = random.Random(9)
    for _ in range(50):
        mask = random_mask(rng, 5)
        a = decompose_lut(mask, lib)
        b = decompose_lut(mask, lib)
        assert a.cells == b.cells
        assert a.output == b.output


def test_mux_class_gates_bounded_by_bdd_nodes(lib):
    # AND2/OR2/MUX2 realize BDD nodes one-for-one; INV/BUF/TIE plumbing
    # sits on top (a NOR-style mask needs input inverters, so raw gate
    # count can exceed the node count)
    rng = random.Random(31)
    for _ in range(300):
        mask = random_mask(rng, 6)
        bdd = build_bdd(mask)
        net = decompose_lut(mask, lib)
        assert sum(1 for g in net.cells if g.kind in ("AND2", "OR2", "MUX2")) \
            <= max(len(bdd.nodes), 1)


def test_delay_bounded_by_lut_delay(lib):
    rng = random.Random(17)
    for width in range(1, 7):
        for _ in range(150):
            net = decompose_lut(random_mask(rng, width), lib)
            assert net.delay <= lib.delay_q[width]


def network_depth(net):
    """Gates on the longest path through a network."""
    depth = {}
    for gate in net.cells:
        depth[gate.name] = 1 + max((depth.get(s, 0) for s in gate.inputs),
                                     default=0)
    return max(depth.values(), default=0)


def test_network_depth_bounded_by_width(lib):
    rng = random.Random(29)
    for width in range(1, 7):
        for _ in range(100):
            net = decompose_lut(random_mask(rng, width), lib)
            # one MUX level per variable, plus at most one input inverter
            assert network_depth(net) <= width + 1


def test_shared_nodes_share_gates(lib):
    # f = (in0 ? in2 : in1) xor nothing: the (in1,in2) subtrees repeat
    # under both in0 branches for a symmetric function
    mask_bits = 0
    for idx in range(8):
        a, b, c = idx & 1, (idx >> 1) & 1, (idx >> 2) & 1
        if (a ^ b) | (b & c):
            mask_bits |= 1 << idx
    net = decompose_lut(LutMask(3, mask_bits), lib)
    outs = [g.name for g in net.cells]
    assert len(outs) == len(set(outs))
    assert net.eval_table() == mask_bits


def test_corrupted_network_detected():
    wrong = GateNetwork(width=1, cells=(), output="i0", delay=0.0, area=0.0)
    assert wrong.eval_table() != 0x1
    with pytest.raises(KeyError):
        GateNetwork(width=1, cells=(), output="ghost", delay=0.0,
                    area=0.0).eval_table()


def test_decompose_records_mask(lib):
    # the mask a network implements is read off its truth table
    mask = LutMask(4, 0xBEEF)
    net = decompose_lut(mask, lib)
    assert LutMask(net.width, net.eval_table()) == mask


def full_bdd_mask(width):
    """(mask, nodes): a mask whose ROBDD has on every level as many
    nodes as a width-``width`` ROBDD can, and their number."""
    size = 1 << width
    ones = (1 << size) - 1
    below = [0, ones]   # the functions a node can branch to
    level = []          # the nodes one level down, each needs a parent
    nodes = 0
    for var in reversed(range(width)):
        pairs = [(level[j], level[j + 1] if j + 1 < len(level) else 0)
                 for j in range(0, len(level), 2)]
        for lo in below:
            for hi in below:
                if len(pairs) < 1 << var and lo != hi \
                        and (lo, hi) not in pairs:
                    pairs.append((lo, hi))
        pick = _input_pattern(var, size)
        level = [(lo & ~pick | hi & pick) & ones for lo, hi in pairs]
        below += level
        nodes += len(level)
    return LutMask(width, level[0]), nodes


def parity_mask(width):
    return LutMask(width, sum(1 << v for v in range(1 << width)
                              if bin(v).count("1") % 2))


def test_full_bdd_masks_are_full():
    for width in range(1, MAX_LUT_WIDTH + 1):
        mask, nodes = full_bdd_mask(width)
        assert len(build_bdd(mask).nodes) == nodes
    assert full_bdd_mask(6)[1] == 29


def test_every_network_has_one_gate_per_node_and_input(lib):
    """A width-w LUT becomes at most 2^w + w gates: one per ROBDD node
    (at most 2^w - 1), one inverter per input and one BUF or TIE."""
    rng = random.Random(41)
    masks = [LutMask(w, bits) for w in (1, 2, 3) for bits in range(1 << (1 << w))]
    for width in range(1, MAX_LUT_WIDTH + 1):
        masks += [random_mask(rng, width) for _ in range(300)]
        masks += [parity_mask(width), full_bdd_mask(width)[0]]
    for mask in masks:
        gates = len(decompose_lut(mask, lib).cells)
        assert gates <= (1 << mask.width) + mask.width
