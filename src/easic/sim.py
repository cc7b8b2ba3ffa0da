"""Functional simulation and equivalence checking.

Evaluation is bit-parallel: every net holds a Python int whose bit v is
the net's value under stimulus vector v, so one levelized pass scores
thousands of vectors at once.  Two-valued only; evaluating a blank
(unprogrammed) device is a hard error rather than an X.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bitstream import ChainState
from .netlist import KIND_FF, KIND_LUT, MODE_RE, Netlist, _input_pattern


class SimError(Exception):
    pass


@dataclass
class EquivalencePolicy:
    seed: int = 0
    n_vectors: int = 10000
    n_cycles: int = 1000


@dataclass
class EquivalenceReport:
    mode: str
    equivalent: bool
    seed: int | None = None
    vectors: int | None = None
    cycles: int | None = None
    counterexample: dict | None = None
    note: str = ""

    @property
    def method(self):
        """How the verdict was shown: a proof, every input vector, or a
        sample of vectors or cycles."""
        return {"cut-point": "cut-point-proof",
                "exhaustive": "exhaustive"}.get(self.mode, "sampled")

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "method": self.method,
            "verdict": "equivalent" if self.equivalent else "counterexample",
            "seed": self.seed,
            "vectors": self.vectors,
            "cycles": self.cycles,
            "counterexample": self.counterexample,
            "note": self.note,
        }


def mux_tree(leaves, selects):
    """Packed output of a multiplexer tree: leaf m (a packed value) is
    picked in the lanes where the selects spell m, selects[0] the LSB.
    Multiplexers that see equal halves fold away."""
    for s in selects:
        it = iter(leaves)
        leaves = [lo if lo == hi else lo ^ ((lo ^ hi) & s) for lo, hi in zip(it, it)]
    return leaves[0]


def _eval_mask(bits, ins, full):
    """Packed output of a LUT: Shannon expansion of the mask, one input
    at a time from in_0."""
    x = ins[0]
    pair = (0, x ^ full, x, full)   # the function of in_0 for two mask bits
    if len(ins) == 1:
        return pair[bits]
    s = ins[1]
    level = []
    for k in range(0, 1 << len(ins), 4):
        lo = pair[(bits >> k) & 3]
        hi = pair[(bits >> (k + 2)) & 3]
        level.append(lo if lo == hi else lo ^ ((lo ^ hi) & s))
    return mux_tree(level, ins[2:])


def eval_cells(cells, values, full, lut_bits=None):
    """Evaluate ``cells`` in order over packed net values (bit v = the
    value under vector v), adding each output to ``values``.

    A cell needs ``kind``, ``inputs`` and ``name``, the net it drives; a
    LUT cell takes its mask bits from ``lut_bits(cell)``.
    """
    for cell in cells:
        kind = cell.kind
        ins = cell.inputs
        if kind == KIND_LUT:
            out = _eval_mask(lut_bits(cell), [values[n] for n in ins], full)
        elif kind == "INV":
            out = values[ins[0]] ^ full
        elif kind == "BUF":
            out = values[ins[0]]
        elif kind == "AND2":
            out = values[ins[0]] & values[ins[1]]
        elif kind == "OR2":
            out = values[ins[0]] | values[ins[1]]
        elif kind == "NAND2":
            out = (values[ins[0]] & values[ins[1]]) ^ full
        elif kind == "NOR2":
            out = (values[ins[0]] | values[ins[1]]) ^ full
        elif kind == "MUX2":
            s = values[ins[0]]
            out = (s & values[ins[2]]) | ((s ^ full) & values[ins[1]])
        elif kind == "TIE0":
            out = 0
        elif kind == "TIE1":
            out = full
        else:
            raise SimError(f"cannot evaluate cell kind {kind}")
        values[cell.name] = out
    return values


def _design(design):
    """The netlist of a netlist or a programmed device, and the
    device's configuration registers (None for a netlist)."""
    if isinstance(design, ChainState):
        if not design.programmed:
            first = design.chain[0][0] if design.chain else "<none>"
            raise SimError(f"unprogrammed LUT {first}")
        return design.netlist, design.configs()
    if isinstance(design, Netlist):
        return design, None
    raise SimError(f"cannot evaluate a {type(design).__name__}")


def _lut_bits(configs):
    """The mask bits a design computes a LUT with: a reconfigurable
    LUT's come from its configuration register when there are any."""
    def bits(cell):
        if configs is not None and cell.mode == MODE_RE:
            return configs[cell.name]
        return cell.mask.bits
    return bits


class Evaluator:
    """Levelized evaluator over a netlist or a programmed device; given
    ``order``, the netlist's combinational cells as its ``validate``
    returns them, it does not validate the netlist again."""

    def __init__(self, design, order=None):
        self.netlist, configs = _design(design)
        self._mask_bits = _lut_bits(configs)
        self._order = self.netlist.validate() if order is None else order
        self._ffs = sorted(
            (c for c in self.netlist.cells.values() if c.is_ff),
            key=lambda c: c.name,
        )

    def eval_packed(self, pi_values: dict, count: int, ff_values=None) -> dict:
        """One combinational pass; returns all net values (packed ints)."""
        full = (1 << count) - 1
        values = dict(pi_values)
        if self.netlist.clock is not None:
            values.setdefault(self.netlist.clock, 0)
        for ff in self._ffs:
            values[ff.name] = (ff_values or {}).get(ff.name, 0) & full
        return eval_cells(self._order, values, full, self._mask_bits)

    def run(self, cycles, count=1):
        """Clock the design from power-up: ``cycles`` holds one dict of
        packed primary-input values per cycle, and each cycle yields the
        packed outputs (ordered like netlist.outputs), read before the
        FFs latch their D inputs."""
        full = (1 << count) - 1
        ff = {c.name: (full if c.init else 0) for c in self._ffs}
        for pis in cycles:
            values = self.eval_packed(pis, count, ff)
            yield tuple(values[net] for net in self.netlist.outputs)
            ff = {c.name: values[c.inputs[0]] for c in self._ffs}


def _ports_match(a: Netlist, b: Netlist):
    return a.inputs == b.inputs and a.outputs == b.outputs


@dataclass
class CutCheck:
    """What :func:`prove_by_cuts` showed; proved when nothing mismatches."""

    # golden cell names, or "<ports>" / "<clock>" for the interface
    mismatches: list = field(default_factory=list)
    cells: int = 0     # golden combinational cells compared
    ffs: int = 0       # golden FFs
    patterns: int = 0  # local input patterns evaluated: the sum of 2^k

    @property
    def proved(self):
        return not self.mismatches


def _cone(root, cells, stop, leaves):
    """Cells of the combinational cone of cell ``root`` of ``cells`` cut
    at the nets in ``stop``, in evaluation order; None when the cone runs
    into an FF or reads a ``stop`` net outside ``leaves``."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        cell, expanded = stack.pop()
        if expanded:
            order.append(cell)
            continue
        if cell.kind == KIND_FF:
            return None
        if cell.name in seen:
            continue
        seen.add(cell.name)
        stack.append((cell, True))
        for net in cell.inputs:
            if net in stop:
                if net not in leaves:
                    return None
            elif net not in seen:
                stack.append((cells[net], False))
    return order


def prove_by_cuts(golden, device, orders=None) -> CutCheck:
    """Prove ``device`` equivalent to ``golden`` cell by cell, or name
    the golden cells where the proof does not close.

    Both designs are validated, unless ``orders`` holds their
    combinational cells (golden first) as their ``validate`` returned
    them: then they were checked already.  The ports and the clock must
    match and the FFs must correspond one to one (names, D nets and init
    values).  Each golden combinational cell is then compared, over all
    2^k patterns of its k distinct input nets, with the device's cone of
    the same output net cut at golden nets; the cone may read only the
    cell's inputs.  Reconfigurable LUTs compute with the programmed
    configuration registers, never with the netlist masks.

    When every cell closes, both machines hold equal values on every
    golden net in every cycle from the same state, so this proves
    combinational and sequential equivalence alike: the cut-point method
    of Kuehlmann & Krohm (DAC 1997) with the induction step of register
    correspondence (van Eijk, IEEE TCAD 2000).  A mismatch is not a
    counterexample: a cell's inputs may never take the patterns that
    tell the cones apart.
    """
    g, g_configs = _design(golden)
    d, d_configs = _design(device)
    if orders is None:
        g.validate()
        d.validate()
    check = CutCheck()
    if not _ports_match(g, d):
        check.mismatches.append("<ports>")
        return check
    if g.clock != d.clock:
        check.mismatches.append("<clock>")
        return check
    g_ffs = {c.name: (c.inputs[0], c.init) for c in g.cells.values()
             if c.kind == KIND_FF}
    d_ffs = {c.name: (c.inputs[0], c.init) for c in d.cells.values()
             if c.kind == KIND_FF}
    check.ffs = len(g_ffs)
    check.mismatches += sorted(name for name in g_ffs.keys() | d_ffs.keys()
                               if g_ffs.get(name) != d_ffs.get(name))
    # the golden nets, all driven once validate() passed
    stop = {g.clock, *g.inputs, *g.cells}
    g_bits = _lut_bits(g_configs)
    d_bits = _lut_bits(d_configs)
    for cell in g.cells.values():
        if cell.kind == KIND_FF:
            continue
        nets = list(dict.fromkeys(cell.inputs))
        count = 1 << len(nets)
        check.cells += 1
        check.patterns += count
        root = d.cells.get(cell.name)
        cone = None if root is None else _cone(root, d.cells, stop, set(nets))
        if cone is None:
            check.mismatches.append(cell.name)
            continue
        full = (1 << count) - 1
        values = {net: _input_pattern(i, count) for i, net in enumerate(nets)}
        want = eval_cells([cell], dict(values), full, g_bits)[cell.name]
        if eval_cells(cone, values, full, d_bits)[cell.name] != want:
            check.mismatches.append(cell.name)
    return check


# sequential lock-step packs this many independent random streams per pass
_SEQ_LANES = 64


def check_equivalence(a, b, policy: EquivalencePolicy | None = None,
                      orders=None) -> EquivalenceReport:
    """Compare two designs (netlists or programmed devices).

    Sequential designs are cycled in lock step; combinational ones are
    simulated on every input vector when they have at most 16 inputs
    and on seeded random vectors otherwise.  Any reported counterexample
    is replayable.  Both designs are validated, unless ``orders`` holds
    their combinational cells (``a``'s first) as their ``validate``
    returned them.
    """
    policy = policy or EquivalencePolicy()
    order_a, order_b = (None, None) if orders is None else orders
    ea = Evaluator(a, order_a)
    eb = Evaluator(b, order_b)
    if not _ports_match(ea.netlist, eb.netlist):
        raise SimError(
            f"port mismatch: {ea.netlist.inputs}/{ea.netlist.outputs} vs "
            f"{eb.netlist.inputs}/{eb.netlist.outputs}"
        )
    pis = ea.netlist.inputs
    rng = random.Random(policy.seed)
    if ea.netlist.is_sequential or eb.netlist.is_sequential:
        count = min(_SEQ_LANES, max(1, policy.n_cycles))
        cycles = [{net: rng.getrandbits(count) for net in pis}
                  for _ in range(policy.n_cycles)]
        report = EquivalenceReport(
            mode="sequential", equivalent=True, seed=policy.seed,
            cycles=policy.n_cycles,
            note=f"{policy.n_cycles} lock-step cycles x {count} lanes, "
                 f"seed {policy.seed}")
    elif len(pis) <= 16:
        count = 1 << len(pis)
        cycles = [{net: _input_pattern(i, count) for i, net in enumerate(pis)}]
        report = EquivalenceReport(
            mode="exhaustive", equivalent=True, vectors=count,
            note=f"exhaustive over {count} vectors")
    else:
        count = policy.n_vectors
        cycles = [{net: rng.getrandbits(count) for net in pis}]
        report = EquivalenceReport(
            mode="random", equivalent=True, seed=policy.seed, vectors=count,
            note=f"{count} random vectors, seed {policy.seed}")
    found = _first_difference(ea, eb, cycles, count)
    if found is None:
        return report
    cycle, output, lane = found
    trace = [{net: (pis_at[net] >> lane) & 1 for net in pis}
             for pis_at in cycles[:cycle + 1]]
    report.equivalent = False
    if report.mode == "sequential":
        report.cycles = cycle + 1
        report.counterexample = {"output": output, "cycle": cycle,
                                 "inputs": trace}
        report.note = f"lock-step mismatch at cycle {cycle}"
    else:
        report.counterexample = {"output": output, "vector": trace[0]}
    return report


def _first_difference(ea, eb, cycles, count):
    """(cycle, output, lane) of the first output two evaluators disagree
    on when clocked in lock step through ``cycles``, or None."""
    runs = zip(ea.run(cycles, count), eb.run(cycles, count))
    for cycle, (outs_a, outs_b) in enumerate(runs):
        for output, va, vb in zip(ea.netlist.outputs, outs_a, outs_b):
            diff = va ^ vb
            if diff:
                return cycle, output, (diff & -diff).bit_length() - 1
    return None

