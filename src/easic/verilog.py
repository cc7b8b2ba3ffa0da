"""Structural Verilog emission for hybrid netlists.

Reconfigurable LUTs become LUTn macro instances with data pins I0..In-1
and configuration pins serial_in / serial_out / enable, daisy-chained in
the same lexicographic order the bitstream uses.  Static cells become
library gate instances.  Output is deterministic: identical netlists
yield byte-identical text.
"""

from __future__ import annotations

import re

from .netlist import _GROUP, KIND_FF, KIND_LUT, Netlist

CONFIG_PINS = ("serial_in", "serial_out", "enable")

_VERILOG_KEYWORDS = frozenset("""
module endmodule input output inout wire reg assign always initial begin end
if else case endcase for while integer parameter localparam function
endfunction task endtask posedge negedge or and not nand nor xor xnor buf
supply0 supply1 tri signed unsigned genvar generate endgenerate
""".split())

# static gate kind -> input pins in netlist order; every gate drives Y
_GATE_PINS = {
    "INV": ("A",),
    "BUF": ("A",),
    "AND2": ("A", "B"),
    "OR2": ("A", "B"),
    "NAND2": ("A", "B"),
    "NOR2": ("A", "B"),
    "MUX2": ("S", "A", "B"),
    "TIE0": (),
    "TIE1": (),
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class VerilogEmitError(Exception):
    pass


def legalize(name: str) -> str:
    """Map a netlist name onto a legal plain Verilog identifier."""
    if _IDENT.match(name) and name not in _VERILOG_KEYWORDS:
        return name
    candidate = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not candidate or not re.match(r"[A-Za-z_]", candidate):
        candidate = "n_" + candidate
    if candidate in _VERILOG_KEYWORDS:
        candidate = candidate + "_"
    return candidate


class _Namer:
    def __init__(self):
        self.by_original = {}
        self.owner = {}

    def get(self, original: str) -> str:
        cached = self.by_original.get(original)
        if cached is not None:
            return cached
        legal = legalize(original)
        if legal in self.owner and self.owner[legal] != original:
            raise VerilogEmitError(
                f"identifier collision after legalization: {original!r} and "
                f"{self.owner[legal]!r} both map to {legal!r}"
            )
        self.owner[legal] = original
        self.by_original[original] = legal
        return legal


def emit_verilog(netlist: Netlist, order=None):
    """Check the netlist and name every net and instance, then return an
    iterator over the module's text in chunks: the header and
    declarations, then one chunk per group of instance lines.  Given
    ``order``, the combinational cells as the netlist's ``validate``
    returned them, the netlist is not checked again.  The netlist must
    not change until the chunks are taken."""
    if order is None:
        netlist.validate()
    chain = netlist.chain_order()
    namer = _Namer()
    chain_wires = [f"cfg_chain_{i}" for i in range(len(chain) - 1)]
    if chain:
        # the configuration ports and wires are not nets: each is owned
        # by a name with a space, which no net has, so a net that maps
        # onto one collides with it rather than joining it
        for legal in (*CONFIG_PINS, *chain_wires):
            namer.owner[legal] = f"{legal} (configuration chain)"

    passthrough = set(netlist.inputs) & set(netlist.outputs)
    if passthrough:
        raise VerilogEmitError(
            f"output(s) {sorted(passthrough)} are wired straight to primary "
            "inputs; a Verilog port cannot be both, insert a buffer cell"
        )

    ports = []
    for net in netlist.inputs:
        ports.append(("input", namer.get(net)))
    if netlist.clock is not None and netlist.clock not in netlist.inputs:
        ports.append(("input", namer.get(netlist.clock)))
    for net in netlist.outputs:
        ports.append(("output", namer.get(net)))
    if chain:
        ports.append(("input", "serial_in"))
        ports.append(("input", "enable"))
        ports.append(("output", "serial_out"))

    # every cell gets an instance name in the same namespace as the nets
    names = sorted(netlist.cells)
    for name in names:
        namer.get(f"u_{name}")

    port_nets = {net for _, net in ports}
    wires = []
    for net in sorted(netlist.nets):
        legal = namer.get(net)
        if legal not in port_nets:
            wires.append(legal)

    for name in names:
        cell = netlist.cells[name]
        if cell.is_lut and not cell.is_reconfigurable:
            raise VerilogEmitError(
                f"static LUT cell {name} has no macro form; decompose it "
                "to gates before emitting Verilog"
            )

    lines = [f"// structural hybrid netlist: {netlist.name}",
             f"module {legalize(netlist.name)} (",
             ",\n".join(f"  {direction} {net}" for direction, net in ports),
             ");",
             ""]
    for wire in sorted(set(wires) | set(chain_wires)):
        lines.append(f"  wire {wire};")
    if wires or chain_wires:
        lines.append("")
    header = "\n".join(lines) + "\n"
    return _verilog_chunks(netlist, names, namer.by_original, chain_wires,
                           header)


def _verilog_chunks(netlist, names, legal, chain_wires, header):
    """The module's text after ``header``; ``legal`` maps every net and
    instance name to its Verilog identifier."""
    yield header
    lines = []
    link = 0  # chain position of the next reconfigurable LUT
    for name in names:
        cell = netlist.cells[name]
        inst = legal[f"u_{name}"]
        if cell.kind == KIND_LUT:
            pins = [f".I{k}({legal[net]})"
                    for k, net in enumerate(cell.inputs)]
            pins.append(f".O({legal[name]})")
            sin = chain_wires[link - 1] if link else "serial_in"
            sout = (chain_wires[link] if link < len(chain_wires)
                    else "serial_out")
            link += 1
            pins.append(f".serial_in({sin})")
            pins.append(f".serial_out({sout})")
            pins.append(".enable(enable)")
            lines.append(
                f"  LUT{cell.mask.width} {inst} ({', '.join(pins)});\n")
        elif cell.kind == KIND_FF:
            d = legal[cell.inputs[0]]
            clk = legal[cell.inputs[1]]
            q = legal[name]
            lines.append(
                f"  DFF {inst} (.D({d}), .CLK({clk}), .Q({q}));"
                + (f"  // init={cell.init}" if cell.init else "") + "\n"
            )
        else:
            pins = [f".{pin}({legal[net]})"
                    for pin, net in zip(_GATE_PINS[cell.kind], cell.inputs)]
            pins.append(f".Y({legal[name]})")
            lines.append(f"  {cell.kind} {inst} ({', '.join(pins)});\n")
        if len(lines) == _GROUP:
            yield "".join(lines)
            lines.clear()
    lines.append("\nendmodule\n")
    yield "".join(lines)
