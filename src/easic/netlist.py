"""In-memory netlist representation plus the BLIF subset reader/writer.

The netlist is a flat directed graph of cells (LUTs, FFs, static gates,
constants) connected by named nets.  LUT truth tables use the convention
that the first input of a ``.names`` block is ``in_0`` and selects the
least-significant bit of the minterm index: a LUT with inputs
``(in_0 .. in_{n-1})`` outputs ``bit[i]`` of its mask when the inputs
encode ``i`` in binary with ``in_0`` as LSB.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field, replace
from itertools import chain

MODE_RE = "reconfigurable"
MODE_ST = "static"

KIND_LUT = "LUT"
KIND_FF = "FF"

# gate kind -> (arity, truth-table bits under the in_0-is-LSB convention)
GATE_TRUTH = {
    "INV": (1, 0b01),
    "BUF": (1, 0b10),
    "AND2": (2, 0x8),
    "OR2": (2, 0xE),
    "NAND2": (2, 0x7),
    "NOR2": (2, 0x1),
    # MUX2 pins are (S, A, B); output is B when S=1 else A
    "MUX2": (3, 0xE4),
    "TIE0": (0, 0b0),
    "TIE1": (0, 0b1),
}

GATE_KINDS = frozenset(GATE_TRUTH)
MAX_LUT_WIDTH = 6


class NetlistError(Exception):
    """Structural violation in a netlist (bad arity, cycle, driver clash)."""


class BlifError(Exception):
    """BLIF text that does not conform to the supported subset."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class LutMask:
    """Canonical 2^width-bit truth table of a LUT."""

    width: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.width <= MAX_LUT_WIDTH:
            raise NetlistError(f"LUT width {self.width} outside 1..{MAX_LUT_WIDTH}")
        if not 0 <= self.bits < (1 << (1 << self.width)):
            raise NetlistError(
                f"mask 0x{self.bits:x} does not fit in {1 << self.width} bits"
            )

    @property
    def table_size(self):
        return 1 << self.width

    def lifted(self, width: int) -> "LutMask":
        """View this function as a wider LUT whose extra inputs are ignored.

        The truth table is replicated once per assignment of the unused
        upper inputs, so equal functions lift to equal patterns.
        """
        if width < self.width:
            raise NetlistError("cannot lift a mask to a smaller width")
        copies = 1 << (width - self.width)
        out = 0
        for j in range(copies):
            out |= self.bits << (j * self.table_size)
        return LutMask(width, out)

    def __str__(self):
        return f"LUT{self.width}:0x{self.bits:0{max(1, self.table_size // 4)}x}"


@dataclass(slots=True)
class Cell:
    """One netlist cell, named by the net it drives.  ``inputs`` are net
    names in pin order.

    Pin orders: LUT (in_0..in_{n-1}); FF (D, clk); MUX2 (S, A, B);
    two-input gates (A, B); INV/BUF (A); TIE cells have no inputs.
    """

    name: str
    kind: str
    inputs: tuple
    mask: LutMask | None = None
    mode: str = MODE_ST
    init: int = 0  # FF power-up value

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        if self.kind == KIND_LUT:
            if self.mask is None:
                raise NetlistError(f"LUT cell {self.name} has no mask")
            if len(self.inputs) != self.mask.width:
                raise NetlistError(
                    f"LUT cell {self.name}: {len(self.inputs)} inputs "
                    f"vs mask width {self.mask.width}"
                )
        elif self.kind == KIND_FF:
            if len(self.inputs) != 2:
                raise NetlistError(f"FF cell {self.name} needs inputs (D, clk)")
        elif self.kind in GATE_TRUTH:
            arity = GATE_TRUTH[self.kind][0]
            if len(self.inputs) != arity:
                raise NetlistError(
                    f"{self.kind} cell {self.name} needs {arity} inputs, "
                    f"got {len(self.inputs)}"
                )
            if self.mode != MODE_ST:
                raise NetlistError(
                    f"cell {self.name}: mode {self.mode} is only legal for LUTs"
                )
        else:
            raise NetlistError(f"unknown cell kind {self.kind!r} ({self.name})")

    @property
    def is_lut(self):
        return self.kind == KIND_LUT

    @property
    def is_ff(self):
        return self.kind == KIND_FF

    @property
    def is_reconfigurable(self):
        return self.kind == KIND_LUT and self.mode == MODE_RE

    def copy(self):
        return replace(self)


@dataclass
class Netlist:
    name: str
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    cells: dict = field(default_factory=dict)
    clock: str | None = None

    def add_cell(self, cell: Cell):
        if cell.name in self.cells:
            raise NetlistError(f"duplicate cell name {cell.name}")
        self.cells[cell.name] = cell

    def remove_cell(self, name: str):
        del self.cells[name]

    @property
    def nets(self):
        nets = set(self.inputs) | set(self.outputs)
        if self.clock is not None:
            nets.add(self.clock)
        for cell in self.cells.values():
            nets.add(cell.name)
            nets.update(cell.inputs)
        return nets

    def luts(self):
        return [c for c in self.cells.values() if c.is_lut]

    def reconfigurable_luts(self):
        return [c for c in self.cells.values() if c.is_reconfigurable]

    def chain_order(self):
        """Reconfigurable LUTs sorted by cell name; the daisy-chain order."""
        return sorted(self.reconfigurable_luts(), key=lambda c: c.name)

    @property
    def is_sequential(self):
        return any(c.is_ff for c in self.cells.values())

    def copy(self) -> "Netlist":
        return Netlist(
            name=self.name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            cells={k: v.copy() for k, v in self.cells.items()},
            clock=self.clock,
        )

    # -- validation ----------------------------------------------------

    def validate(self):
        """Check driver uniqueness, connectivity, clocking, and acyclicity;
        returns the combinational cells in topological order.

        A cell drives the net it is named by, so the only driver clash
        left is a cell named like a primary input or the declared clock.
        With no clock declared, the FFs' clock net is declared once no
        cell drives it.
        """
        if len(set(self.inputs)) != len(self.inputs):
            raise NetlistError("duplicate primary input")
        if len(set(self.outputs)) != len(self.outputs):
            raise NetlistError("duplicate primary output")
        cells = self.cells
        sources = set(self.inputs)
        if self.clock is not None:
            sources.add(self.clock)
        clash = min(sources.intersection(cells), default=None)
        if clash is not None:
            raise NetlistError(f"net {clash} is multiply driven "
                               f"(by {clash} and a primary input)")

        clocks = {c.inputs[1] for c in cells.values() if c.kind == KIND_FF}
        if len(clocks) > 1:
            raise NetlistError(f"multiple clocks: {sorted(clocks)}")
        if clocks:
            (clk,) = clocks
            if self.clock is not None and self.clock != clk:
                raise NetlistError(f"clock mismatch: {self.clock} vs {clk}")
            if clk in cells:
                raise NetlistError(f"clock net {clk} driven by cell {clk}")
            # declared only once known not to clash, so that a second
            # call checks the same netlist as the first
            self.clock = clk
            sources.add(clk)

        for cell in cells.values():
            for net in (cell.inputs[:1] if cell.kind == KIND_FF
                        else cell.inputs):
                if net not in cells and net not in sources:
                    raise NetlistError(
                        f"net {net} used by cell {cell.name} has no driver"
                    )
        for net in self.outputs:
            if net not in cells and net not in sources:
                raise NetlistError(f"primary output {net} has no driver")

        return self._comb_order()

    def _comb_order(self):
        """Kahn's algorithm over the combinational subgraph (FFs cut);
        among ready cells the smallest name goes first."""
        cells = self.cells
        indeg = {}
        consumers = {}
        for cell in cells.values():
            if cell.kind == KIND_FF:
                continue
            n = 0
            for net in cell.inputs:
                drv = cells.get(net)
                if drv is not None and drv.kind != KIND_FF:
                    n += 1
                    consumers.setdefault(net, []).append(cell.name)
            indeg[cell.name] = n
        ready = [name for name, n in indeg.items() if n == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(cells[name])
            for nxt in consumers.get(name, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(indeg):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise NetlistError(f"combinational cycle through {stuck[:8]}")
        return order

    def topo_cells(self):
        """Combinational cells in topological order, then FFs (sorted)."""
        order = self.validate()
        order.extend(sorted((c for c in self.cells.values() if c.is_ff),
                            key=lambda c: c.name))
        return order


@dataclass
class NetlistStats:
    lut_re_by_width: dict
    lut_st_by_width: dict
    ff_count: int
    gate_count: int
    input_count: int
    output_count: int

    @property
    def lut_re(self):
        return sum(self.lut_re_by_width.values())

    @property
    def lut_st(self):
        return sum(self.lut_st_by_width.values())

    @property
    def lut_total(self):
        return self.lut_re + self.lut_st


def stats(netlist: Netlist) -> NetlistStats:
    """Count LUTs per width per mode, FFs, gates, and ports."""
    re_w = {}
    st_w = {}
    ff = 0
    gates = 0
    for cell in netlist.cells.values():
        if cell.is_lut:
            target = re_w if cell.mode == MODE_RE else st_w
            target[cell.mask.width] = target.get(cell.mask.width, 0) + 1
        elif cell.is_ff:
            ff += 1
        else:
            gates += 1
    return NetlistStats(re_w, st_w, ff, gates,
                        len(netlist.inputs), len(netlist.outputs))


# ---------------------------------------------------------------------------
# BLIF subset reader
# ---------------------------------------------------------------------------

# a "# @static KIND" comment counts as a mark only as a line of its own
_STATIC_MARK = re.compile(r"\s*#\s*@static\s+(\S+)\s*$")


def _input_pattern(i, count):
    """Packed truth table of input i over vector indices 0..count-1
    (bit v is bit i of v: in_0 is the LSB)."""
    block = 1 << i
    pattern = ((1 << block) - 1) << block
    span = block << 1
    while span < count:
        pattern |= pattern << span
        span <<= 1
    return pattern & ((1 << count) - 1)


def _cube_literals(width):
    """All minterms of a ``width``-input table, and per input position
    the minterms each cube character admits."""
    full = (1 << (1 << width)) - 1
    return full, tuple(
        {"0": full ^ p, "1": p, "-": full}
        for p in (_input_pattern(i, 1 << width) for i in range(width)))


_CUBE_LITERALS = tuple(_cube_literals(w) for w in range(MAX_LUT_WIDTH + 1))


def _fold_row(n_inputs, text, lineno):
    """(value, cube) of one cover row of a ``n_inputs``-input block.  A
    bad shape or output value raises; a bad cube comes back as its
    BlifError in place of the cube, since it loses to a cover that mixes
    output values."""
    tokens = text.split()
    if len(tokens) != (2 if n_inputs else 1):
        raise BlifError(f"bad cover row {text!r}", lineno)
    value = tokens[-1]
    if value not in ("0", "1"):
        raise BlifError(f"bad cover output {value!r}", lineno)
    pattern = tokens[0] if n_inputs else ""
    if len(pattern) != n_inputs:
        return value, BlifError(
            f"cube width {len(pattern)} does not match {n_inputs} inputs",
            lineno)
    cube, literals = _CUBE_LITERALS[n_inputs]
    for ch, literal in zip(pattern, literals):
        admits = literal.get(ch)
        if admits is None:
            return value, BlifError(f"bad cube character {ch!r}", lineno)
        cube &= admits
    return value, cube


def _cover_to_mask(n_inputs, texts, linenos, table):
    """Fold a cover's row texts (on lines ``linenos``) into a truth-table
    int.  Every row's shape is checked before the cover's output values,
    and those before its cubes.  ``table`` maps (width, row text) to the
    (value, cube) of each row that passed every check, so a row text is
    tokenized and folded once; a bad row is never stored, and so fails
    at its own line."""
    value = late = None
    mixed = False
    bits = 0
    for text, lineno in zip(texts, linenos):
        row = table.get((n_inputs, text))
        if row is None:
            row = _fold_row(n_inputs, text, lineno)
            if type(row[1]) is int:
                table[n_inputs, text] = row
            elif late is None:
                late = row[1]
        if value is None:
            value = row[0]
        elif row[0] != value:
            mixed = True
        if late is None:
            bits |= row[1]
    if mixed:
        raise BlifError("cover mixes output values 0 and 1", linenos[0])
    if late is not None:
        raise late
    if value == "0":
        bits ^= _CUBE_LITERALS[n_inputs][0]
    return bits


# the fewest characters in a piece that _split_lines hands to
# str.splitlines()
_PIECE = 1 << 16


def _split_lines(text):
    """An iterator over the lines of ``text.splitlines()`` that never
    holds a list of them all: each piece of the text is split on its own."""
    return chain.from_iterable(map(str.splitlines, _pieces(text)))


def _pieces(text):
    """``text`` in slices of at least _PIECE characters, each ending just
    after a ``\\n`` (the last one at the end of the text), so that no
    line and no ``\\r\\n`` pair is cut in two."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _PIECE - 1)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end]
        start = end


def _logical_lines(text):
    """Yield (lineno, line, mark) per logical line of BLIF text: comments
    stripped and backslash continuations joined under the number of their
    first line; a mark line yields (lineno, None, KIND).  The last item,
    (None, None, None), ends the text."""
    buf = ""
    start = None
    for lineno, raw in enumerate(_split_lines(text), start=1):
        if "#" in raw:
            mark = _STATIC_MARK.match(raw)
            if mark:
                yield lineno, None, mark.group(1)
                continue
            raw = raw[: raw.index("#")]
        raw = raw.rstrip()
        if raw.endswith("\\"):
            buf += raw[:-1] + " "
            if start is None:
                start = lineno
            continue
        line = (buf + raw).strip()
        if line:
            yield (lineno if start is None else start), line, None
        buf = ""
        start = None
    if buf.strip():
        yield start, buf.strip(), None
    yield None, None, None


def _names_cell(lineno, inputs, output, texts, linenos, mark, covers,
                table):
    """The cell of a closed ``.names`` block whose row texts sit on lines
    ``linenos``; ``covers`` maps (width, row texts) to the folded truth
    table of every cover seen so far, and ``table`` is
    :func:`_cover_to_mask`'s row table."""
    key = (len(inputs), tuple(texts))
    bits = covers.get(key)
    if bits is None:
        bits = covers[key] = _cover_to_mask(len(inputs), texts, linenos,
                                            table)
    if not inputs:
        kind = "TIE1" if bits & 1 else "TIE0"
        if mark not in (None, kind):
            raise BlifError(
                f"@static {mark} does not match constant block {kind}", lineno
            )
        return Cell(output, kind, ())
    if mark is None or mark == KIND_LUT:
        return Cell(output, KIND_LUT, inputs,
                    mask=LutMask(len(inputs), bits),
                    mode=MODE_RE if mark is None else MODE_ST)
    if mark not in GATE_TRUTH:
        raise BlifError(f"unknown @static kind {mark}", lineno)
    arity, truth = GATE_TRUTH[mark]
    if arity != len(inputs):
        raise BlifError(
            f"@static {mark} expects {arity} inputs, got {len(inputs)}", lineno
        )
    if truth != bits:
        raise BlifError(
            f"cover 0x{bits:x} does not match {mark} truth table 0x{truth:x}",
            lineno,
        )
    return Cell(output, mark, inputs)


def _latch_cell(lineno, tokens):
    """The FF of a ``.latch`` line's fields; its clock net is inputs[1]."""
    if len(tokens) < 2:
        raise BlifError(".latch needs input and output", lineno)
    d, q, *rest = tokens
    init = None
    control = None
    if len(rest) == 1:
        init = rest[0]
    elif len(rest) >= 2:
        ltype, control = rest[0], rest[1]
        if ltype not in ("re", "fe", "ah", "al", "as"):
            raise BlifError(f"unknown latch type {ltype}", lineno)
        if len(rest) == 3:
            init = rest[2]
        elif len(rest) > 3:
            raise BlifError("too many .latch fields", lineno)
    if init not in (None, "0", "1", "2", "3"):
        raise BlifError(f"bad latch init value {init}", lineno)
    clk = "clock" if control in (None, "NIL") else control
    # don't-care / unknown power-up states default to 0
    return Cell(q, KIND_FF, (d, clk), init=int(init == "1"))


def _add_cell(netlist, cell, lineno):
    try:
        netlist.add_cell(cell)
    except NetlistError as exc:
        raise BlifError(str(exc), lineno) from exc


def parse_blif(text: str, orders=None) -> Netlist:
    """Parse a BLIF subset (.model/.inputs/.outputs/.names/.latch/.end).

    Every plain ``.names`` block becomes a reconfigurable LUT whose mask
    is the union of its cubes; zero-input blocks become TIE cells;
    ``.latch`` becomes an FF.  A ``# @static KIND`` line immediately
    before a ``.names`` block rebuilds a static cell of that kind, which
    is what makes emit_blif round-trippable.  Each distinct cover is
    folded once, and each distinct row text of a width is checked and
    folded once, through tables that live for this call.  Given an
    ``orders`` list, appends to it the combinational cells in the
    topological order the closing validation found, so a caller need not
    sort them again.
    """
    netlist = Netlist(name="top")
    covers = {}
    table = {}  # the cover rows that passed, see _cover_to_mask
    # (lineno, inputs, output, row texts, row linenos) of the open block
    block = None
    mark = None  # the pending @static kind
    seen_model = ended = False
    for lineno, line, kind in _logical_lines(text):
        if block is not None:
            # a directive, a mark or the end of the text closes the block
            if line is not None and line[0] != ".":
                block[3].append(line)
                block[4].append(lineno)
                continue
            _add_cell(netlist, _names_cell(*block, mark, covers, table),
                      block[0])
            block = mark = None
        if line is None:
            mark = kind
            continue
        head, *tokens = line.split()
        if head == ".names":
            if not tokens:
                raise BlifError(".names without an output", lineno)
            if len(tokens) > MAX_LUT_WIDTH + 1:
                raise BlifError(
                    f".names block has {len(tokens) - 1} inputs "
                    f"(at most {MAX_LUT_WIDTH} supported)",
                    lineno,
                )
            block = (lineno, tuple(tokens[:-1]), tokens[-1], [], [])
        elif head == ".latch":
            if mark is not None:
                raise BlifError("@static mark before .latch", lineno)
            cell = _latch_cell(lineno, tokens)
            clk = cell.inputs[1]
            if netlist.clock is None:
                netlist.clock = clk
            elif netlist.clock != clk:
                raise BlifError(
                    f"multiple clocks: {netlist.clock} and {clk}", lineno
                )
            _add_cell(netlist, cell, lineno)
        elif head == ".inputs":
            netlist.inputs.extend(tokens)
        elif head == ".outputs":
            netlist.outputs.extend(tokens)
        elif head == ".model":
            if seen_model:
                raise BlifError("multiple .model directives", lineno)
            seen_model = True
            netlist.name = tokens[0] if tokens else "top"
            # written back alone on its line, it would continue the line
            if netlist.name.endswith("\\"):
                raise BlifError(
                    f"model name {netlist.name!r} ends in a backslash", lineno)
        elif head == ".end":
            ended = True
            break
        elif head.startswith("."):
            raise BlifError(f"unsupported directive {head}", lineno)
        else:
            raise BlifError(f"unexpected text {line!r}", lineno)
    if not ended and not seen_model:
        raise BlifError("missing .model directive", 1)
    try:
        order = netlist.validate()
    except NetlistError as exc:
        raise BlifError(str(exc)) from exc
    if orders is not None:
        orders.append(order)
    return netlist


# ---------------------------------------------------------------------------
# BLIF subset writer
# ---------------------------------------------------------------------------


def _minterm_rows(width):
    """The cover row of every minterm of a ``width``-input table, by
    index, in_0 first."""
    return tuple("".join("1" if (idx >> j) & 1 else "0" for j in range(width))
                 + " 1\n" for idx in range(1 << width))


_MINTERM_ROWS = tuple(_minterm_rows(w) for w in range(MAX_LUT_WIDTH + 1))


def _mask_cubes(mask: LutMask):
    """One cover row per true minterm of ``mask``, in index order."""
    rows = _MINTERM_ROWS[mask.width]
    bits = mask.bits
    return [row for idx, row in enumerate(rows) if (bits >> idx) & 1]


_GATE_COVERS = {
    "INV": ["0 1\n"],
    "BUF": ["1 1\n"],
    "AND2": ["11 1\n"],
    "OR2": ["1- 1\n", "-1 1\n"],
    "NAND2": ["0- 1\n", "-0 1\n"],
    "NOR2": ["00 1\n"],
    "MUX2": ["01- 1\n", "1-1 1\n"],
    "TIE0": [],
    "TIE1": ["1\n"],
}


# cells per chunk that the emitters hand out
_GROUP = 256


def emit_blif(netlist: Netlist, order=None):
    """Check the netlist, then return an iterator over its BLIF text in
    chunks: the header and latches, then one chunk per group of cells in
    name order, the last one ending in ``.end``.  Static cells carry
    @static marks, and a LUT
    lists one row per true minterm, read from a table.  Given
    ``order``, the combinational cells as the netlist's ``validate``
    returned them, the netlist is not checked again.  The netlist must
    not change until the chunks are taken."""
    if order is None:
        netlist.validate()
    cells = netlist.cells
    return _blif_chunks(netlist, [cells[name] for name in sorted(cells)])


def _blif_chunks(netlist, cells):
    head = [f".model {netlist.name}\n"]
    if netlist.inputs:
        head.append(".inputs " + " ".join(netlist.inputs) + "\n")
    if netlist.outputs:
        head.append(".outputs " + " ".join(netlist.outputs) + "\n")
    for cell in cells:
        if cell.kind == KIND_FF:
            head.append(f".latch {cell.inputs[0]} {cell.name} re "
                        f"{cell.inputs[1]} {cell.init}\n")
    yield "".join(head)
    blocks = []
    for cell in cells:
        if cell.kind == KIND_FF:
            continue
        if cell.kind == KIND_LUT:
            mark = "# @static LUT\n" if cell.mode == MODE_ST else ""
            rows = _mask_cubes(cell.mask)
        else:
            mark = f"# @static {cell.kind}\n"
            rows = _GATE_COVERS[cell.kind]
        blocks.append("".join((mark, ".names ",
                               " ".join((*cell.inputs, cell.name)), "\n",
                               *rows)))
        if len(blocks) == _GROUP:
            yield "".join(blocks)
            blocks.clear()
    blocks.append(".end\n")
    yield "".join(blocks)
