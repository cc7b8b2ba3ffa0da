"""The obfuscation engine.

Given a parsed LUT netlist and a target obfuscation percentage (the
share of LUTs that stays reconfigurable), the engine repeatedly finds
the critical path, picks the slowest reconfigurable LUT on it, and
replaces that LUT with an equivalent static gate network, updating
timing incrementally after every conversion.  The search passes over
paths that carry no reconfigurable LUT; when no path is left before
the conversion quota is met, the remaining LUTs are converted in a
documented fallback order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import floor

from . import staticgen
from .netlist import Cell, LutMask, Netlist
from .techlib import TechLibrary, default_library
from .timing import (
    TimingGraph,
    build_and_time,
    find_critical,
    lut_support,
    report as timing_report,
)


class ObfuscationError(Exception):
    pass


class TraceMismatch(ObfuscationError):
    """A trace.json document that does not describe its netlist."""


@dataclass
class ObfuscationConfig:
    obf_percent: float
    seed: int = 0    # recorded in trace.json; the engine is deterministic
    library: TechLibrary | None = None   # None: the built-in default

    def __post_init__(self):
        if not 0 <= float(self.obf_percent) <= 100:
            raise ObfuscationError(
                f"obfuscation percentage {self.obf_percent} outside [0, 100]"
            )


def static_target(total_luts: int, obf_percent) -> int:
    """Number of LUTs to convert: floor(total * (100 - obf) / 100).

    Exact decimal arithmetic so that e.g. a 29-LUT design at 98/95/92/
    89/86 percent converts exactly 0/1/2/3/4 LUTs.
    """
    if total_luts < 0:
        raise ObfuscationError("negative LUT count")
    share = (100 - Fraction(repr(float(obf_percent)))) / 100
    return int(floor(total_luts * share))


@dataclass(frozen=True)
class Conversion:
    """One LUT turned into static gates.  ``endpoint`` is None for a
    fallback; ``cells`` names the replacement network's cells, which
    trace.json does not record."""

    iteration: int
    lut: str
    mask: LutMask
    endpoint: str | None
    cp_before: float
    cp_after: float
    fallback: bool
    network_area: float
    network_delay: float
    cells: tuple = ()

    def to_json_dict(self):
        return {
            "iteration": self.iteration,
            "lut": self.lut,
            "width": self.mask.width,
            "endpoint": self.endpoint,
            "cp_before_ns": self.cp_before,
            "cp_after_ns": self.cp_after,
            "fallback": self.fallback,
            "mask": f"0x{self.mask.bits:x}",
            "network_area_um2": self.network_area,
            "network_delay_ns": self.network_delay,
        }

    @classmethod
    def from_json_dict(cls, entry):
        """Only ``width``, ``mask`` and ``lut`` are required."""
        mask = LutMask(entry["width"], int(entry["mask"], 16))
        return cls(entry.get("iteration"), entry["lut"], mask,
                   entry.get("endpoint"), entry.get("cp_before_ns"),
                   entry.get("cp_after_ns"), entry.get("fallback", False),
                   entry.get("network_area_um2", 0.0),
                   entry.get("network_delay_ns", 0.0))


@dataclass
class AreaReport:
    area_re: float       # remaining reconfigurable LUT macros
    area_st: float       # gate networks that replaced converted LUTs
    other_static: float  # FFs, pre-existing gates, ties

    def to_json_dict(self):
        return {
            "area_re_um2": self.area_re,
            "area_st_um2": self.area_st,
            "other_static_um2": self.other_static,
        }


@dataclass
class ObfuscationResult:
    netlist: Netlist
    l_re: set               # names of the LUTs still reconfigurable
    trace: list             # Conversion, in conversion order
    config: ObfuscationConfig
    graph: TimingGraph = field(repr=False, default=None)

    @property
    def l_st(self):
        return {c.lut for c in self.trace}

    @property
    def fallback_count(self):
        return sum(c.fallback for c in self.trace)

    @property
    def total_luts(self):
        return len(self.trace) + len(self.l_re)

    def area_report(self) -> AreaReport:
        lib = self.config.library
        cells = self.netlist.cells
        area_re = sum(lib.cell_area(cells[name]) for name in self.l_re)
        area_st = sum(lib.cell_area(cells[name])
                      for c in self.trace for name in c.cells)
        other = sum(map(lib.cell_area, cells.values())) - area_re - area_st
        return AreaReport(*(q / lib.area_unit
                            for q in (area_re, area_st, other)))

    def to_json_dict(self):
        """The trace.json document."""
        return {
            "design": self.netlist.name,
            "obf_percent": float(self.config.obf_percent),
            "seed": self.config.seed,
            "lut_total": self.total_luts,
            "lut_re": len(self.l_re),
            "lut_st": len(self.trace),
            "fallback_count": self.fallback_count,
            "conversions": [c.to_json_dict() for c in self.trace],
        }


def result_from_json(payload, netlist: Netlist) -> ObfuscationResult:
    """The result a trace.json document records for ``netlist``, without
    timing graph or library.  A document of the wrong shape or that
    lists a LUT twice raises KeyError, TypeError, ValueError or
    NetlistError; one that does not describe ``netlist``, TraceMismatch."""
    trace = [Conversion.from_json_dict(e) for e in payload["conversions"]]
    seen = set()
    for c in trace:
        if c.lut in seen:
            raise ValueError(f"LUT {c.lut} is listed twice")
        seen.add(c.lut)
    config = ObfuscationConfig(obf_percent=payload["obf_percent"],
                               seed=payload.get("seed", 0))
    lut_re = payload["lut_re"]
    l_re = {c.name for c in netlist.reconfigurable_luts()}
    still = sorted(l_re & seen)
    if still:
        raise TraceMismatch(f"converted LUT {still[0]} is still "
                            f"reconfigurable ({len(still)} in all)")
    if lut_re != len(l_re):
        raise TraceMismatch(f"lut_re is {lut_re!r}, the netlist has "
                            f"{len(l_re)} reconfigurable LUTs")
    return ObfuscationResult(netlist, l_re, trace, config)


def _splice_network(netlist: Netlist, lut: Cell, network: staticgen.GateNetwork,
                    taken):
    """Replace a LUT cell by its gate network; returns the new cell names.

    ``taken`` is the set of occupied net and cell names, shared across
    splices; the new nets are added to it.
    """
    netlist.remove_cell(lut.name)
    signal_to_net = {f"i{k}": lut.inputs[k] for k in range(len(lut.inputs))}
    signal_to_net[network.output] = lut.name
    new_names = []
    for idx, gate in enumerate(network.cells):
        out_net = signal_to_net.get(gate.name)
        if out_net is None:
            out_net = f"{lut.name}_sg{idx}"
            bump = 0
            while out_net in taken:
                out_net = f"{lut.name}_sg{idx}_{bump}"
                bump += 1
            taken.add(out_net)
            signal_to_net[gate.name] = out_net
        ins = tuple(signal_to_net[s] for s in gate.inputs)
        netlist.add_cell(Cell(out_net, gate.kind, ins))
        new_names.append(out_net)
    return tuple(new_names)


class _Engine:
    def __init__(self, netlist: Netlist, config: ObfuscationConfig):
        if config.library is None:
            config = replace(config, library=default_library())
        self.config = config
        self.lib = config.library
        self.netlist = netlist.copy()
        self.graph = build_and_time(self.netlist, self.lib)
        self.l_re = {c.name for c in self.netlist.reconfigurable_luts()}
        self.trace = []
        self._taken_names = self.netlist.nets

    def conversions(self):
        """One conversion per step: critical-path picks first, then the
        fallback order, computed once when the path search is exhausted.

        The sequence does not depend on the target, so every obfuscation
        level is a prefix of this one run."""
        while (path := find_critical(self.graph)) is not None:
            yield self._convert(self._find_slowest(path), path.endpoint,
                                fallback=False)
        for name in self._fallback_order():
            yield self._convert(self.netlist.cells[name], None, fallback=True)

    def advance(self, steps, target: int):
        """Take conversions from ``steps`` (a :meth:`conversions` run)
        until ``target`` LUTs are static or none is left.

        The caller holds the run: an engine that kept its own generator
        would form a reference cycle and outlive its last use."""
        while len(self.trace) < target:
            if next(steps, None) is None:
                break

    def result(self) -> ObfuscationResult:
        return ObfuscationResult(netlist=self.netlist, l_re=self.l_re,
                                 trace=self.trace, config=self.config,
                                 graph=self.graph)

    def _find_slowest(self, path):
        """Max-delay reconfigurable LUT on the path, which holds one;
        ties prefer the latest position on the path."""
        cells = self.netlist.cells
        # l_re names exactly the netlist's reconfigurable LUTs
        _, pos = max((self.lib.cell_delay(cells[name]), pos)
                     for pos, name in enumerate(path.cells)
                     if name in self.l_re)
        return cells[path.cells[pos]]

    def _fallback_order(self):
        """Remaining LUTs by descending delay, then descending fanout,
        then ascending name."""
        fanout = {}
        for cell in self.netlist.cells.values():
            for net in cell.inputs:
                fanout[net] = fanout.get(net, 0) + 1
        for net in self.netlist.outputs:
            fanout[net] = fanout.get(net, 0) + 1
        order = sorted(
            self.l_re,
            key=lambda name: (
                -self.lib.cell_delay(self.netlist.cells[name]),
                -fanout.get(name, 0),
                name,
            ),
        )
        return order

    def _convert(self, lut: Cell, endpoint, fallback) -> Conversion:
        per_ns = self.lib.time_unit
        cp_before = self.graph.cp()
        network = staticgen.decompose_lut(lut.mask, self.lib)
        cells = _splice_network(self.netlist, lut, network,
                                taken=self._taken_names)
        self.l_re.discard(lut.name)
        self.graph.splice(lut, cells)
        record = Conversion(
            iteration=len(self.trace) + 1,
            lut=lut.name,
            mask=lut.mask,
            endpoint=endpoint,
            cp_before=cp_before / per_ns,
            cp_after=self.graph.cp() / per_ns,
            fallback=fallback,
            network_area=network.area / self.lib.area_unit,
            network_delay=network.delay / per_ns,
            cells=cells,
        )
        self.trace.append(record)
        return record


def run_obfuscation(netlist: Netlist, config: ObfuscationConfig) -> ObfuscationResult:
    """Convert LUTs to static logic until the obfuscation target is met.

    The input netlist is never mutated; the result owns a private copy.
    Identical inputs produce identical results, including the trace.
    """
    engine = _Engine(netlist, config)
    engine.advance(engine.conversions(),
                   static_target(len(engine.l_re), config.obf_percent))
    return engine.result()


def gen_case_constraints(result: ObfuscationResult) -> list:
    """Input-forcing constants for every remaining reconfigurable LUT.

    For each LUT pin outside the mask's functional support, emit the
    constant 0 that deactivates the pin so downstream timing/power tools
    see the implemented arc instead of the worst-case one.  LUTs whose
    pins are all in support contribute no entries.
    """
    entries = []
    for name in sorted(result.l_re):
        cell = result.netlist.cells[name]
        support = lut_support(cell.mask)
        for pin in range(cell.mask.width):
            if pin not in support:
                entries.append({"lut_id": name, "pin": f"in{pin}", "constant": 0})
    return entries


SWEEP_CSV_HEADER = "obf,sum_cp_ns,cp_ns,area_re_um2,area_st_um2,lut_re,lut_st"


def sweep(netlist: Netlist, levels, library=None) -> list:
    """One row per level, in the order given; rows mirror the sweep CSV.

    Levels differ only in how far the conversion sequence runs, so one
    engine pass down to the lowest level serves them all: each row is a
    snapshot taken when the sequence reaches that level's target.
    """
    for level in levels:
        if not 0 <= float(level) <= 100:
            raise ObfuscationError(f"sweep level {level} outside [0, 100]")
    if not levels:
        return []
    engine = _Engine(netlist, ObfuscationConfig(obf_percent=min(levels),
                                                library=library))
    targets = [static_target(len(engine.l_re), level) for level in levels]
    steps = engine.conversions()
    snapshots = {}
    for target in sorted(set(targets)):
        engine.advance(steps, target)
        rep = timing_report(engine.graph)
        area = engine.result().area_report()
        snapshots[target] = {
            "sum_cp_ns": rep.sum_cp / rep.unit,
            "cp_ns": rep.cp / rep.unit,
            "area_re_um2": area.area_re,
            "area_st_um2": area.area_st,
            "lut_re": len(engine.l_re),
            "lut_st": len(engine.trace),
        }
    return [{"obf": level, **snapshots[target]}
            for level, target in zip(levels, targets)]


def sweep_to_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row['obf']},{row['sum_cp_ns']:.6f},{row['cp_ns']:.6f},"
            f"{row['area_re_um2']:.6f},{row['area_st_um2']:.6f},"
            f"{row['lut_re']},{row['lut_st']}"
        )
    return "\n".join(lines) + "\n"
