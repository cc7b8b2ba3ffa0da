"""Output checks of the benchmark, written apart from the easic code.

Nothing here calls into easic's parser, evaluator, timing engine or
bitstream reader.  The checks read the files a run writes (BLIF, .ebs,
JSON reports) with their own readers and compare them with values
computed here from the inputs:

* the converted-LUT count is floor(N * (100 - obf) / 100) in integers;
* the key length is the sum of 2^width over the LUTs left reconfigurable;
* a programmed hybrid computes the function of its source, checked by
  the evaluator below (exhaustive up to 16 inputs, seeded random vectors
  beyond, lock-step cycles from the power-up state for sequential ones);
* the reported critical path equals a longest-path pass over the emitted
  hybrid with library delays on functional-support arcs only;
* the critical path never rises across a conversion.

The evaluator treats every cell, gate or LUT, as a truth table taken
from the BLIF cover and evaluates it by Shannon expansion over packed
integers (bit v of a net's value is the net under vector v), so it does
not share the gate-kind semantics or the minterm evaluation of
``easic.sim``.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

EXHAUSTIVE_LIMIT = 16
RANDOM_VECTORS = 1 << 14
SEQ_LANES = 256
SEQ_CYCLES = 200
PATTERN_WIDTH = 6
EBS_MAGIC = b"EASICBS1"

RE = "reconfigurable"
ST_LUT = "static-lut"
GATE = "gate"
CONST = "const"


class CheckError(Exception):
    """A run's output disagrees with what the benchmark computed."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- BLIF --------------------------------------------------------------------


@dataclass
class Cell:
    name: str          # the net it drives
    role: str          # RE, ST_LUT, GATE or CONST
    kind: str          # gate kind: "LUT" for LUTs, TIE0/TIE1 for constants
    inputs: tuple
    table: int         # truth table, input 0 selects the least-significant bit

    @property
    def width(self):
        return len(self.inputs)


@dataclass
class Design:
    name: str
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    cells: dict = field(default_factory=dict)   # output net -> Cell
    latches: list = field(default_factory=list)  # (d, q, init)

    @property
    def sequential(self):
        return bool(self.latches)

    def luts(self, role=None):
        return [c for c in self.cells.values()
                if c.role in ((role,) if role else (RE, ST_LUT))]


def _cover_table(n_inputs, rows):
    bits = 0
    for pattern, _ in rows:
        expect(len(pattern) == n_inputs, f"cube {pattern!r} has the wrong width")
        minterms = [0]
        for pos, ch in enumerate(pattern):
            if ch == "1":
                minterms = [m | (1 << pos) for m in minterms]
            elif ch == "-":
                minterms += [m | (1 << pos) for m in minterms]
        for m in minterms:
            bits |= 1 << m
    if rows and rows[0][1] == "0":
        bits ^= (1 << (1 << n_inputs)) - 1
    return bits


def read_blif(text):
    """Read the BLIF subset easic reads and writes, static marks included."""
    design = Design("top")
    lines = []
    pending = ""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("#"):
            words = stripped[1:].split()
            if len(words) == 2 and words[0] == "@static":
                lines.append(("@static", words[1]))
            continue
        raw = raw.split("#", 1)[0].rstrip()
        if raw.endswith("\\"):
            pending += raw[:-1] + " "
            continue
        line = (pending + raw).strip()
        pending = ""
        if line:
            lines.append(("line", line))
    mark = None
    i = 0
    while i < len(lines):
        kind, payload = lines[i]
        i += 1
        if kind == "@static":
            mark = payload
            continue
        words = payload.split()
        head = words[0]
        if head == ".model":
            design.name = words[1]
        elif head == ".inputs":
            design.inputs += words[1:]
        elif head == ".outputs":
            design.outputs += words[1:]
        elif head == ".latch":
            init = 1 if len(words) in (4, 6) and words[-1] == "1" else 0
            design.latches.append((words[1], words[2], init))
        elif head == ".names":
            ins, out = tuple(words[1:-1]), words[-1]
            rows = []
            while i < len(lines) and lines[i][0] == "line" \
                    and not lines[i][1].startswith("."):
                cube = lines[i][1].split()
                rows.append(("", cube[0]) if not ins else (cube[0], cube[1]))
                i += 1
            table = _cover_table(len(ins), rows)
            if not ins:
                cell = Cell(out, CONST, "TIE1" if table else "TIE0", ins, table)
            elif mark is None:
                cell = Cell(out, RE, "LUT", ins, table)
            elif mark == "LUT":
                cell = Cell(out, ST_LUT, "LUT", ins, table)
            else:
                cell = Cell(out, GATE, mark, ins, table)
            expect(out not in design.cells, f"net {out} driven twice")
            design.cells[out] = cell
            mark = None
        elif head == ".end":
            break
        else:
            raise CheckError(f"unexpected BLIF line {payload!r}")
    return design


def read_blif_file(path):
    return read_blif(Path(path).read_text(encoding="utf-8"))


def topo_order(design):
    """Combinational cells, each after the cells that drive its inputs."""
    order = []
    state = {}
    for root in sorted(design.cells):
        stack = [(root, False)]
        while stack:
            net, done = stack.pop()
            if done:
                state[net] = 2
                order.append(design.cells[net])
                continue
            if state.get(net) == 2:
                continue
            expect(state.get(net) != 1, f"combinational cycle through {net}")
            state[net] = 1
            stack.append((net, True))
            for src in design.cells[net].inputs:
                if src in design.cells and state.get(src) != 2:
                    stack.append((src, False))
    return order


# -- evaluation --------------------------------------------------------------


def eval_table(table, width, ins, full):
    """Value of a truth table over packed inputs, by Shannon expansion."""
    layer = [full if (table >> m) & 1 else 0 for m in range(1 << width)]
    for j in range(width):
        sel = ins[j]
        layer = [lo if lo == hi else lo ^ ((lo ^ hi) & sel)
                 for lo, hi in zip(layer[0::2], layer[1::2])]
    return layer[0]


class Machine:
    """A design, optionally programmed with configuration masks."""

    def __init__(self, design, configs=None):
        self.design = design
        self.order = topo_order(design)
        known = set(design.inputs) | set(design.cells)
        known |= {q for _, q, _ in design.latches}
        for cell in self.order:
            missing = [n for n in cell.inputs if n not in known]
            expect(not missing, f"{design.name}: net {missing[:1]} is not driven")
        self.tables = {}
        for cell in self.order:
            table = cell.table
            if configs is not None and cell.role == RE:
                table = configs[cell.name]
            self.tables[cell.name] = table

    def evaluate(self, pi_values, state, full):
        values = dict(pi_values)
        for _, q, _ in self.design.latches:
            values[q] = state[q]
        for cell in self.order:
            values[cell.name] = eval_table(
                self.tables[cell.name], cell.width,
                [values[n] for n in cell.inputs], full)
        return values

    def initial_state(self, full):
        return {q: (full if init else 0) for _, q, init in self.design.latches}

    def step(self, pi_values, state, full):
        values = self.evaluate(pi_values, state, full)
        outs = [values[net] for net in self.design.outputs]
        nxt = {q: values[d] for d, q, _ in self.design.latches}
        return outs, nxt


def input_pattern(i, count):
    """Packed values of input i when vector v assigns bit i of v to it."""
    block = 1 << i
    pattern = ((1 << block) - 1) << block
    span = block << 1
    while span < count:
        pattern |= pattern << span
        span <<= 1
    return pattern & ((1 << count) - 1)


def comb_vectors(n_inputs, rng):
    """Exhaustive vectors up to EXHAUSTIVE_LIMIT inputs, random beyond."""
    if n_inputs <= EXHAUSTIVE_LIMIT:
        count = 1 << n_inputs
        return [input_pattern(i, count) for i in range(n_inputs)], count
    return [rng.getrandbits(RANDOM_VECTORS) for _ in range(n_inputs)], \
        RANDOM_VECTORS


def mismatch(golden, device, rng):
    """Share of stimuli on which the two machines differ (0.0 = none)."""
    g, d = golden.design, device.design
    expect(g.inputs == d.inputs and g.outputs == d.outputs,
           f"ports of {d.name} differ from its source")
    if not (g.sequential or d.sequential):
        stim, count = comb_vectors(len(g.inputs), rng)
        full = (1 << count) - 1
        pis = dict(zip(g.inputs, stim))
        va = golden.evaluate(pis, {}, full)
        vb = device.evaluate(pis, {}, full)
        diff = 0
        for net in g.outputs:
            diff |= va[net] ^ vb[net]
        return bin(diff).count("1") / count
    full = (1 << SEQ_LANES) - 1
    sa, sb = golden.initial_state(full), device.initial_state(full)
    seen = 0
    for _ in range(SEQ_CYCLES):
        pis = {net: rng.getrandbits(SEQ_LANES) for net in g.inputs}
        oa, sa = golden.step(pis, sa, full)
        ob, sb = device.step(pis, sb, full)
        for a, b in zip(oa, ob):
            seen |= a ^ b
    return bin(seen).count("1") / SEQ_LANES


# -- timing and area ---------------------------------------------------------


def support(table, width):
    out = []
    for i in range(width):
        step = 1 << i
        if any(((table >> v) & 1) != ((table >> (v | step)) & 1)
               for v in range(1 << width) if not v & step):
            out.append(i)
    return out


def cell_delay(cell, lib):
    if cell.role in (RE, ST_LUT):
        return lib.lut_delay[cell.width]
    return lib.gate_delay[cell.kind]


def cell_area(cell, lib):
    if cell.role in (RE, ST_LUT):
        return lib.lut_area[cell.width]
    return lib.gate_area[cell.kind]


def critical_path(design, lib):
    """Longest path: PIs at 0, FF Q at clk-to-q, FF D adds setup."""
    arrival = {net: 0.0 for net in design.inputs}
    for _, q, _ in design.latches:
        arrival[q] = lib.ff_clk2q
    for cell in topo_order(design):
        pins = support(cell.table, cell.width)
        arrival[cell.name] = (
            max(arrival[cell.inputs[p]] for p in pins) + cell_delay(cell, lib)
            if pins else 0.0)
    ends = [arrival.get(net, 0.0) for net in design.outputs]
    ends += [arrival.get(d, 0.0) + lib.ff_setup for d, _, _ in design.latches]
    return max(ends, default=0.0)


def total_area(design, lib):
    return (sum(cell_area(c, lib) for c in design.cells.values())
            + lib.ff_area * len(design.latches))


def converted_target(n_luts, obf):
    return n_luts * (100 - obf) // 100


def key_bits(design):
    return sum(1 << c.width for c in design.luts(RE))


# -- bitstream ---------------------------------------------------------------


@dataclass
class Ebs:
    design: str
    chain: list       # (lut, width), head first
    bits: list        # 0/1, chain head first, LSB first per LUT
    payload_at: int   # byte offset of the packed bits in the file

    def configs(self):
        out = {}
        pos = 0
        for lut, width in self.chain:
            size = 1 << width
            out[lut] = sum(self.bits[pos + i] << i for i in range(size))
            pos += size
        return out


def read_ebs(data):
    expect(data[:8] == EBS_MAGIC, "bitstream has a bad magic")
    pos = 8

    def u32():
        nonlocal pos
        (value,) = struct.unpack_from("<I", data, pos)
        pos += 4
        return value

    n = u32()
    design = data[pos:pos + n].decode("utf-8")
    pos += n
    chain = []
    for _ in range(u32()):
        n = u32()
        lut = data[pos:pos + n].decode("utf-8")
        pos += n
        chain.append((lut, data[pos]))
        pos += 1
    count = u32()
    payload = data[pos:]
    expect(len(payload) == (count + 7) // 8, "bitstream payload has the wrong size")
    bits = [(payload[i >> 3] >> (i & 7)) & 1 for i in range(count)]
    return Ebs(design, chain, bits, pos)


def flip_ebs_bit(data, ebs, index):
    out = bytearray(data)
    out[ebs.payload_at + (index >> 3)] ^= 1 << (index & 7)
    return bytes(out)


def programmed(hybrid, ebs):
    """The hybrid as a device: reconfigurable LUTs compute the .ebs masks."""
    chain = sorted((c.name, c.width) for c in hybrid.luts(RE))
    expect(list(ebs.chain) == chain,
           f"{hybrid.name}: bitstream chain does not match the reconfigurable LUTs")
    return Machine(hybrid, ebs.configs())


# -- checks on run directories -----------------------------------------------


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


@dataclass
class Figures:
    """Result figures of the hybrids a workload produced."""

    cp_ns: float = 0.0
    area_um2: float = 0.0
    key_bits: int = 0
    hybrids: int = 0

    def add(self, cp, area, bits):
        self.cp_ns += cp
        self.area_um2 += area
        self.key_bits += bits
        self.hybrids += 1


def check_obfuscate_run(source_path, obf, run_dir, lib, rng, figures=None):
    """All properties of one `easic obfuscate` output directory."""
    run = Path(run_dir)
    source = read_blif_file(source_path)
    hybrid = read_blif_file(run / "easic.blif")
    n = len(source.luts())
    converted = converted_target(n, obf)
    left = hybrid.luts(RE)
    expect(len(left) == n - converted,
           f"{hybrid.name} at {obf}%: {n - len(left)} LUTs converted, "
           f"expected {converted}")
    expect({c.name for c in left} <= {c.name for c in source.luts(RE)},
           f"{hybrid.name}: a reconfigurable LUT is not in the source")

    bits = key_bits(hybrid)
    ebs = read_ebs((run / "easic.ebs").read_bytes())
    chain = read_json(run / "chain.json")
    expect(chain["total_bits"] == bits == len(ebs.bits),
           f"{hybrid.name}: key of {chain['total_bits']} bits, expected {bits}")

    device = programmed(hybrid, ebs)
    expect(mismatch(Machine(source), device, rng) == 0.0,
           f"{hybrid.name} at {obf}%: programmed hybrid differs from its source")

    cp = critical_path(hybrid, lib)
    reported = read_json(run / "timing.json")["cp_ns"]
    expect(close(reported, cp),
           f"{hybrid.name} at {obf}%: reported CP {reported} ns, computed {cp} ns")

    trace = read_json(run / "trace.json")
    expect(trace["lut_st"] == converted and len(trace["conversions"]) == converted,
           f"{hybrid.name}: trace lists {trace['lut_st']} conversions, "
           f"expected {converted}")
    before = critical_path(source, lib)
    for record in trace["conversions"]:
        expect(close(record["cp_before_ns"], before),
               f"{hybrid.name}: conversion {record['iteration']} starts from "
               f"{record['cp_before_ns']} ns, previous CP was {before} ns")
        expect(record["cp_after_ns"] <= record["cp_before_ns"],
               f"{hybrid.name}: CP rose across conversion {record['iteration']}")
        before = record["cp_after_ns"]
    expect(close(before, cp), f"{hybrid.name}: trace ends at {before} ns, CP is {cp}")

    area = read_json(run / "area.json")
    own_re = sum(cell_area(c, lib) for c in left)
    reported_total = area["area_re_um2"] + area["area_st_um2"] + area["other_static_um2"]
    expect(close(area["area_re_um2"], own_re),
           f"{hybrid.name}: reconfigurable area {area['area_re_um2']}, computed {own_re}")
    expect(close(reported_total, total_area(hybrid, lib)),
           f"{hybrid.name}: total area {reported_total}, computed "
           f"{total_area(hybrid, lib)}")
    if figures is not None:
        figures.add(reported, reported_total, chain["total_bits"])


def check_sweep(source_path, levels, sweep_csv, lib, figures=None):
    """Rows of `easic sweep` on an all-LUT source, in the order of levels."""
    source = read_blif_file(source_path)
    n = len(source.luts())
    expect(all(c.role == RE for c in source.cells.values()) and not source.latches,
           "sweep checks need a source of reconfigurable LUTs only")
    widths = {c.width for c in source.luts()}
    expect(len(widths) == 1, "sweep checks need LUTs of one width")
    (width,) = widths
    lines = Path(sweep_csv).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    expect(len(rows) == len(levels), f"sweep has {len(rows)} rows for {len(levels)} levels")
    last_cp = None
    for level, row in zip(levels, rows):
        lut_st, lut_re = int(row["lut_st"]), int(row["lut_re"])
        cp = float(row["cp_ns"])
        expect(float(row["obf"]) == level, f"sweep row {row['obf']} for level {level}")
        expect(lut_st == converted_target(n, level) and lut_re == n - lut_st,
               f"sweep at {level}%: {lut_st} converted, expected "
               f"{converted_target(n, level)}")
        area_re = float(row["area_re_um2"])
        expect(close(area_re, lut_re * lib.lut_area[width], rel=1e-6),
               f"sweep at {level}%: reconfigurable area {area_re}")
        if lut_st == 0:
            own = critical_path(source, lib)
            expect(abs(cp - own) <= 1e-6, f"sweep at {level}%: CP {cp}, computed {own}")
        if last_cp is not None:
            expect(cp <= last_cp, f"sweep: CP rose from {last_cp} to {cp} at {level}%")
        last_cp = cp
        if figures is not None:
            figures.add(cp, area_re + float(row["area_st_um2"]),
                        lut_re * (1 << width))


def lifted(table, width):
    copies = 1 << (PATTERN_WIDTH - width)
    size = 1 << width
    return sum(table << (j * size) for j in range(copies))


def pattern_counts(tables):
    counts = {}
    for table, width in tables:
        key = lifted(table, width)
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_corpus(blif_paths, corpus_dir):
    """`attack corpus`: per-design histograms and the union count m."""
    corpus = Path(corpus_dir)
    union = set()
    for path in blif_paths:
        design = read_blif_file(path)
        counts = pattern_counts((c.table, c.width) for c in design.luts())
        hist = read_json(corpus / f"{design.name}.histogram.json")
        got = {int(p, 16): f for _, p, f in hist["entries"]}
        expect(got == counts, f"{design.name}: histogram differs from its LUT masks")
        union |= set(counts)
    m = read_json(corpus / "union.json")["m"]
    expect(m == len(union), f"corpus has m = {m} unique patterns, counted {len(union)}")
    return m


def check_structural(source_path, run_dir, out_dir):
    """`attack structural --scope static-portion` on an obfuscate run."""
    source = read_blif_file(source_path)
    converted = [e["lut"] for e in read_json(Path(run_dir) / "trace.json")["conversions"]]
    counts = pattern_counts((source.cells[name].table, source.cells[name].width)
                            for name in converted)
    hist = read_json(Path(out_dir) / "histogram.json")
    got = {int(p, 16): f for _, p, f in hist["entries"]}
    expect(got == counts, f"{source.name}: static-portion histogram differs "
                          "from the masks of the converted LUTs")


def check_self_correlation(source_path, out_dir):
    """An all-static victim matched against a corpus holding its design
    correlates with it at r = 1, unless all its pattern frequencies are
    equal: Pearson's r is then undefined and the design is left out."""
    design = read_blif_file(source_path)
    counts = pattern_counts((c.table, c.width) for c in design.luts())
    report = read_json(Path(out_dir) / "composition.json")
    own = [r for name, r in report["matches"] if name == design.name]
    if len(set(counts.values())) == 1:
        expect(own == [], f"{design.name}: r = {own} with a zero-variance histogram")
    else:
        expect(len(own) == 1 and close(own[0], 1.0, rel=1e-12),
               f"{design.name}: all-static victim correlates with itself at {own}")


def check_bruteforce(toy_path, run_dir, out_dir):
    """The recovered key programs a device equivalent to the toy."""
    toy = read_blif_file(toy_path)
    hybrid = read_blif_file(Path(run_dir) / "easic.blif")
    report = read_json(Path(out_dir) / "bruteforce.json")
    recovered = read_ebs((Path(out_dir) / "recovered.ebs").read_bytes())
    expect("".join(map(str, recovered.bits)) == report["recovered"],
           f"{toy.name}: recovered.ebs differs from bruteforce.json")
    expect(report["key_bits"] == key_bits(hybrid)
           and 1 <= report["trials"] <= 1 << report["key_bits"],
           f"{toy.name}: brute force reports {report['key_bits']} bits, "
           f"{report['trials']} trials")
    device = programmed(hybrid, recovered)
    expect(mismatch(Machine(toy), device, random.Random(0)) == 0.0,
           f"{toy.name}: the recovered key programs a different function")


# -- planted faults ----------------------------------------------------------


def observable_flip(source, hybrid, ebs, rng, tries=64):
    """A configuration bit whose flip the default verify policy is sure
    to see: any mismatch under exhaustive vectors, at least 1/256 of the
    random vectors, or at least half the lock-step lanes."""
    golden = Machine(source)
    comb = not (source.sequential or hybrid.sequential)
    need = (1e-12 if comb and len(source.inputs) <= EXHAUSTIVE_LIMIT
            else 1 / 256 if comb else 0.5)
    candidates = list(range(len(ebs.bits)))
    rng.shuffle(candidates)
    for index in candidates[:tries]:
        bits = list(ebs.bits)
        bits[index] ^= 1
        flipped = Ebs(ebs.design, ebs.chain, bits, ebs.payload_at)
        if mismatch(golden, programmed(hybrid, flipped), random.Random(index)) >= need:
            return index, flipped
    raise CheckError(f"{hybrid.name}: no observable configuration bit found")


def replays(source, device, counterexample):
    """True when the counterexample of verify.json tells the machines apart."""
    out = source.design.outputs.index(counterexample["output"])
    if "vector" in counterexample:
        pis = {net: counterexample["vector"][net] for net in source.design.inputs}
        a = source.evaluate(pis, {}, 1)
        b = device.evaluate(pis, {}, 1)
        net = source.design.outputs[out]
        return a[net] != b[net]
    sa, sb = source.initial_state(1), device.initial_state(1)
    oa = ob = None
    for step in counterexample["inputs"]:
        pis = {net: step[net] for net in source.design.inputs}
        oa, sa = source.step(pis, sa, 1)
        ob, sb = device.step(pis, sb, 1)
    return oa is not None and oa[out] != ob[out]
