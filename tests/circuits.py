"""Shared netlist builders and random-circuit generators for the tests."""

import random

from easic.netlist import Cell, LutMask, MODE_RE, Netlist
from easic.sim import Evaluator

XOR2 = LutMask(2, 0x6)
AND2 = LutMask(2, 0x8)
OR2 = LutMask(2, 0xE)
BUF1 = LutMask(1, 0x2)
INV1 = LutMask(1, 0x1)


def lut(name, inputs, mask, mode=MODE_RE):
    return Cell(name, "LUT", tuple(inputs), mask=mask, mode=mode)


def ff(name, d, clk="clk", init=0):
    return Cell(name, "FF", (d, clk), init=init)


def netlist(name, inputs, outputs, cells, clock=None):
    nl = Netlist(name=name, inputs=list(inputs), outputs=list(outputs),
                 clock=clock)
    for cell in cells:
        nl.add_cell(cell)
    nl.validate()
    return nl


def cut_golden():
    """A LUT pipeline with one FF that feeds back: y = (a ^ b) & q | c."""
    return netlist("cuts", ["a", "b", "c"], ["y", "q"], [
        lut("n1", ("a", "b"), XOR2),
        lut("n2", ("n1", "q"), AND2),
        lut("y", ("n2", "c"), OR2),
        ff("q", "n2"),
    ], clock="clk")


def _set_inputs(name, inputs):
    def edit(nl):
        nl.cells[name].inputs = inputs
    return edit


def _rename_clock(nl):
    nl.cells["q"].inputs = ("n2", "clk2")
    nl.clock = "clk2"


# edits of cut_golden's cells or ports that a cut-point check must
# refuse, with what it names
CUT_REFUSALS = {
    "ff-init": (lambda nl: setattr(nl.cells["q"], "init", 1), ["q"]),
    "ff-d-net": (_set_inputs("q", ("n1", "clk")), ["q"]),
    "ports": (lambda nl: nl.inputs.reverse(), ["<ports>"]),
    "clock": (_rename_clock, ["<clock>"]),
    "outside-read": (_set_inputs("y", ("n2", "a")), ["y"]),
}


def random_mask(rng, width):
    return LutMask(width, rng.getrandbits(1 << width))


def random_comb_netlist(rng, n_pis=6, n_cells=20, name="rand"):
    """Layered random LUT network; every PI feeds something, last nets
    become outputs."""
    pis = [f"i{k}" for k in range(n_pis)]
    nets = list(pis)
    cells = []
    for k in range(n_cells):
        width = rng.randint(1, min(4, len(nets)))
        ins = rng.sample(nets, width)
        mask = random_mask(rng, width)
        cell = lut(f"n{k}", ins, mask)
        cells.append(cell)
        nets.append(cell.name)
    n_outs = min(4, n_cells)
    outs = [cells[-(j + 1)].name for j in range(n_outs)]
    return netlist(name, pis, outs, cells)


def random_seq_netlist(rng, n_pis=3, n_ffs=4, n_cells=14, name="randseq"):
    pis = [f"i{k}" for k in range(n_pis)]
    qs = [f"q{k}" for k in range(n_ffs)]
    nets = list(pis) + qs
    cells = []
    for k in range(n_cells):
        width = rng.randint(1, min(4, len(nets)))
        ins = rng.sample(nets, width)
        cell = lut(f"n{k}", ins, random_mask(rng, width))
        cells.append(cell)
        nets.append(cell.name)
    lut_names = [c.name for c in cells]
    for k in range(n_ffs):
        cells.append(ff(qs[k], rng.choice(lut_names)))
    outs = [cells[n_cells - 1 - j].name for j in range(min(3, n_cells))]
    return netlist(name, pis, outs, cells, clock="clk")


def random_timing_dag(rng, max_cells=500, name="timedag"):
    """Random mixed LUT/FF netlist for incremental-timing experiments."""
    n_pis = rng.randint(2, 8)
    n_ffs = rng.randint(0, 6)
    n_cells = rng.randint(10, max_cells)
    if n_ffs:
        return random_seq_netlist(rng, n_pis, n_ffs, n_cells, name=name)
    return random_comb_netlist(rng, n_pis, n_cells, name=name)


def lut6_dag(rng, n_luts, n_pis=8, n_outs=4, name="lut6"):
    """LUT6 cells only, each reading 6 distinct earlier nets, as in
    bench/workloads.lut6_dag: every LUT has the same delay, so paths of
    the same depth tie."""
    nets = [f"i{k}" for k in range(n_pis)]
    cells = []
    for k in range(n_luts):
        cell = lut(f"u{k}", rng.sample(nets, 6), random_mask(rng, 6))
        cells.append(cell)
        nets.append(cell.name)
    return netlist(name, nets[:n_pis], nets[-n_outs:], cells)


def isomorphic(a: Netlist, b: Netlist) -> bool:
    """Name-preserving structural equality (cells, ports, modes, masks)."""
    if (a.inputs, a.outputs) != (b.inputs, b.outputs):
        return False
    if set(a.cells) != set(b.cells):
        return False
    for name, ca in a.cells.items():
        cb = b.cells[name]
        if (ca.kind, ca.inputs, ca.mask, ca.mode, ca.init) != (
            cb.kind, cb.inputs, cb.mask, cb.mode, cb.init
        ):
            return False
    return True


def replay_counterexample(a, b, report) -> bool:
    """Re-run a reported counterexample; True when it still distinguishes."""
    cex = report.counterexample
    if cex is None:
        return False
    cycles = [cex["vector"]] if "vector" in cex else cex["inputs"]
    return list(Evaluator(a).run(cycles))[-1] != list(Evaluator(b).run(cycles))[-1]


class DelayTable:
    """A library stand-in for timing tests: a cell named in ``table``
    takes that delay, any other cell its delay in ``lib``, all in
    1/``lib.time_unit`` ns.  Edit ``table`` and call update_timing to
    retime."""

    def __init__(self, lib, table):
        self.lib = lib
        self.table = table
        self.time_unit = lib.time_unit
        self.setup_q = lib.setup_q

    def cell_delay(self, cell):
        delay = self.table.get(cell.name)
        return self.lib.cell_delay(cell) if delay is None else delay
