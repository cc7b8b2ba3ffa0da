"""LUT-to-static-logic decomposition.

A masking pattern is turned into an equivalent gate network by building
a reduced ordered BDD (fixed variable order in_0 < in_1 < ... ) and
mapping every internal node to a MUX2, with peephole simplifications
that strip constants and reuse shared nodes.  Every produced network is
verified exhaustively against its source mask before it leaves this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import LutMask, _input_pattern
from .sim import eval_cells
from .techlib import TechLibrary


class StaticGenError(Exception):
    """Internal failure: a generated network disagreed with its mask."""


@dataclass(frozen=True)
class Bdd:
    """Reduced ordered BDD.  Terminals are ids 0/1; internal node ids
    start at 2 and index ``nodes`` as (var, lo, hi) triples."""

    width: int
    nodes: tuple
    root: int

    def node(self, ref):
        return self.nodes[ref - 2]


def build_bdd(mask: LutMask) -> Bdd:
    """Shannon-expand the truth table into a reduced ordered BDD."""
    n = mask.width
    nodes = []
    unique = {}
    memo = {}

    def mk(var, lo, hi):
        if lo == hi:
            return lo
        key = (var, lo, hi)
        ref = unique.get(key)
        if ref is None:
            nodes.append(key)
            ref = len(nodes) + 1
            unique[key] = ref
        return ref

    def build(level, table):
        size = 1 << (n - level)
        if table == 0:
            return 0
        if table == (1 << size) - 1:
            return 1
        key = (level, table)
        ref = memo.get(key)
        if ref is not None:
            return ref
        half = size >> 1
        lo_t = 0
        hi_t = 0
        for i in range(half):
            pair = (table >> (2 * i)) & 3
            lo_t |= (pair & 1) << i
            hi_t |= (pair >> 1) << i
        ref = mk(level, build(level + 1, lo_t), build(level + 1, hi_t))
        memo[key] = ref
        return ref

    root = build(0, mask.bits)
    return Bdd(width=n, nodes=tuple(nodes), root=root)


@dataclass(frozen=True)
class NetGate:
    kind: str
    inputs: tuple   # signal names: "i<k>" for LUT pins, "t<k>" for internal
    name: str       # the signal it drives


@dataclass(frozen=True)
class GateNetwork:
    """Gate-level replacement for one LUT.

    Signals named ``i0..i{n-1}`` are the LUT data pins, ``t*`` are
    internal.  ``output`` is always driven by the last cell in ``cells``
    (a BUF/TIE is inserted when the function collapses to a wire or a
    constant), which keeps netlist splicing trivial.  ``delay`` counts
    1/time_unit ns and ``area`` 1/area_unit um^2 of the library.
    """

    width: int
    cells: tuple
    output: str
    delay: int
    area: int

    def eval_table(self) -> int:
        """Truth table of the network over all 2^width input vectors,
        computed bit-parallel (one int, bit v = output for vector v)."""
        size = 1 << self.width
        values = {f"i{i}": _input_pattern(i, size) for i in range(self.width)}
        return eval_cells(self.cells, values, (1 << size) - 1)[self.output]


def bdd_to_gates(bdd: Bdd, lib: TechLibrary) -> GateNetwork:
    """Map BDD nodes to MUX2 gates with constant-stripping peepholes.

    Rules: MUX(s,0,1) is a wire, MUX(s,1,0) an INV, MUX(s,0,h) an
    AND2(s,h), MUX(s,l,0) an AND2(INV s, l), MUX(s,1,h) an
    OR2(INV s, h), MUX(s,l,1) an OR2(s,l).  Shared BDD nodes share
    gates; inverters on a signal are created once and reused.
    """
    cells = []
    counter = [0]
    inverters = {}
    signal_of = {}

    def fresh():
        name = f"t{counter[0]}"
        counter[0] += 1
        return name

    def emit(kind, ins):
        out = fresh()
        cells.append(NetGate(kind, tuple(ins), out))
        return out

    def inv(sig):
        cached = inverters.get(sig)
        if cached is None:
            cached = emit("INV", (sig,))
            inverters[sig] = cached
        return cached

    def walk(ref):
        cached = signal_of.get(ref)
        if cached is not None:
            return cached
        var, lo, hi = bdd.node(ref)
        sel = f"i{var}"
        if lo == 0 and hi == 1:
            sig = sel
        elif lo == 1 and hi == 0:
            sig = inv(sel)
        elif lo == 0:
            sig = emit("AND2", (sel, walk(hi)))
        elif hi == 0:
            sig = emit("AND2", (inv(sel), walk(lo)))
        elif lo == 1:
            sig = emit("OR2", (inv(sel), walk(hi)))
        elif hi == 1:
            sig = emit("OR2", (sel, walk(lo)))
        else:
            sig = emit("MUX2", (sel, walk(lo), walk(hi)))
        signal_of[ref] = sig
        return sig

    if bdd.root == 0:
        root_sig = emit("TIE0", ())
    elif bdd.root == 1:
        root_sig = emit("TIE1", ())
    else:
        root_sig = walk(bdd.root)
        if root_sig.startswith("i"):
            root_sig = emit("BUF", (root_sig,))

    return GateNetwork(
        width=bdd.width,
        cells=tuple(cells),
        output=root_sig,
        delay=_network_delay(cells, lib),
        area=sum(lib.area_q[g.kind] for g in cells),
    )


def _network_delay(cells, lib):
    arrival = {}
    for gate in cells:
        arrival[gate.name] = lib.delay_q[gate.kind] + max(
            (arrival.get(s, 0) for s in gate.inputs), default=0)
    return max(arrival.values(), default=0)


def decompose_lut(mask: LutMask, lib: TechLibrary) -> GateNetwork:
    """Equivalent static logic for one masking pattern, verified.

    The result's function over every input vector equals the mask; a
    mismatch is an internal error and never ships.  Under the calibrated
    default library the network delay never exceeds the LUT delay.
    """
    network = bdd_to_gates(build_bdd(mask), lib)
    if network.eval_table() != mask.bits:
        raise StaticGenError(
            f"decomposition of {mask} produced a non-equivalent network"
        )
    return network
