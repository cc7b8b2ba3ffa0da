"""Static timing analysis over hybrid netlists.

Arrival times are propagated once, topologically, over the combinational
subgraph.  Startpoints are primary inputs (arrival 0) and FF Q pins
(arrival = clk-to-q); endpoints are primary outputs and FF D pins (which
add setup).  Reconfigurable LUTs only present timing arcs on their
functional support pins: a pin the masking pattern ignores never starts
a path, which mirrors the input-forcing case constraints handed to
downstream tools.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .netlist import KIND_LUT, LutMask, Netlist
from .techlib import TechLibrary


class TimingError(Exception):
    pass


@lru_cache(maxsize=100000)
def _support_positions(width, bits):
    support = []
    for i in range(width):
        step = 1 << i
        for v in range(1 << width):
            if not v & step and ((bits >> v) & 1) != ((bits >> (v | step)) & 1):
                support.append(i)
                break
    return tuple(support)


def lut_support(mask: LutMask):
    """Input positions the function actually depends on."""
    return set(_support_positions(mask.width, mask.bits))


@dataclass(frozen=True)
class TimedPath:
    cells: tuple       # combinational cell names, startpoint -> endpoint
    delay: float       # includes clk2q / setup boundary contributions
    endpoint: str      # output port name, or "<ff>/D"
    startpoint: str    # net the path begins on

    @property
    def path_id(self):
        return (self.endpoint, self.cells)


@dataclass
class EndpointArrival:
    endpoint: str
    arrival: float
    worst_path: tuple


@dataclass
class TimingReport:
    cp: float
    sum_cp: float
    endpoints: list
    warning: str | None = None

    def to_json_dict(self):
        return {
            "cp_ns": self.cp,
            "sum_cp_ns": self.sum_cp,
            "fmax_ghz": (1.0 / self.cp) if self.cp > 0 else None,
            "endpoints": [
                {
                    "id": e.endpoint,
                    "arrival_ns": e.arrival,
                    "worst_path": list(e.worst_path),
                }
                for e in self.endpoints
            ],
        }


class TimingGraph:
    """Arrival-annotated view of one netlist under one library.

    The graph keeps per-cell delay overrides (used by incremental-update
    tests and by what-if analyses) and supports both in-place delay
    changes and structural changes via :func:`update_timing`.
    """

    def __init__(self, netlist: Netlist, lib: TechLibrary, overrides=None):
        self.netlist = netlist
        self.lib = lib
        self.delay_override = dict(overrides or {})
        self.arrival = {}
        self._rebuild_structure()
        self._full_pass()

    # -- structure -----------------------------------------------------

    def _rebuild_structure(self):
        nl = self.netlist
        self._drivers = nl.driver_map()
        self._comb = [c for c in nl.topo_cells() if not c.is_ff]
        self._index = {c.name: i for i, c in enumerate(self._comb)}
        consumers = {}
        active = {}
        for cell in self._comb:
            arcs = self._compute_active_inputs(cell)
            active[cell.name] = arcs
            for net in arcs:
                consumers.setdefault(net, []).append(cell.name)
        self._active = active
        self._consumers = consumers
        self._endpoints = None

    @staticmethod
    def _compute_active_inputs(cell):
        if cell.kind == KIND_LUT:
            support = _support_positions(cell.mask.width, cell.mask.bits)
            return tuple(cell.inputs[i] for i in support)
        return cell.inputs

    def _active_inputs(self, cell):
        """Input nets with a real timing arc to the output."""
        arcs = self._active.get(cell.name)
        if arcs is None:
            arcs = self._compute_active_inputs(cell)
        return arcs

    def cell_delay(self, cell) -> float:
        override = self.delay_override.get(cell.name)
        if override is not None:
            return override
        return self.lib.cell_delay(cell)

    # -- arrival propagation -------------------------------------------

    def _startpoint_arrivals(self):
        arrivals = {}
        for net in self.netlist.inputs:
            arrivals[net] = 0.0
        if self.netlist.clock is not None:
            arrivals.setdefault(self.netlist.clock, 0.0)
        for cell in self.netlist.cells.values():
            if cell.is_ff:
                arrivals[cell.output] = self.cell_delay(cell)
        return arrivals

    def _cell_arrival(self, cell):
        ins = self._active_inputs(cell)
        if not ins:
            # constant source (TIE or support-free LUT): value is ready at t=0
            return 0.0
        return max(self.arrival[net] for net in ins) + self.cell_delay(cell)

    def _full_pass(self):
        self.arrival = self._startpoint_arrivals()
        for cell in self._comb:
            self.arrival[cell.output] = self._cell_arrival(cell)

    # -- endpoints -------------------------------------------------------

    def endpoints(self):
        """Sorted (endpoint id, net, extra delay) triples."""
        if self._endpoints is not None:
            return self._endpoints
        out = []
        for net in self.netlist.outputs:
            out.append((net, net, 0.0))
        for cell in self.netlist.cells.values():
            if cell.is_ff:
                out.append((f"{cell.name}/D", cell.inputs[0], self.lib.ff_setup))
        out.sort(key=lambda t: t[0])
        self._endpoints = out
        return out

    def endpoint_arrival(self, net, extra):
        return self.arrival.get(net, 0.0) + extra

    def cp(self) -> float:
        eps = self.endpoints()
        if not eps:
            return 0.0
        return max(self.endpoint_arrival(net, extra) for _, net, extra in eps)


def build_and_time(netlist: Netlist, lib: TechLibrary, overrides=None) -> TimingGraph:
    """Validate, levelize, and propagate arrivals in one topological pass."""
    netlist.validate()
    return TimingGraph(netlist, lib, overrides)


def update_timing(graph: TimingGraph, changed, structural=False) -> TimingGraph:
    """Recompute arrivals over the fan-out cone of the changed cells.

    ``changed`` is a cell name or iterable of cell names.  With
    ``structural=True`` the adjacency is rebuilt first (cells were added
    or removed).  The result is exactly what a fresh full pass would
    produce; incremental-vs-full equality is a tested invariant.
    """
    if isinstance(changed, str):
        changed = [changed]
    changed = [c for c in changed]
    if structural:
        graph._rebuild_structure()
        for net in list(graph.arrival):
            if net not in graph._drivers:
                del graph.arrival[net]

    frontier = []
    seen = set()
    starts = graph._startpoint_arrivals()

    def push(name):
        if name in seen:
            return
        seen.add(name)
        idx = graph._index.get(name)
        if idx is not None:
            heapq.heappush(frontier, (idx, name))

    for name in changed:
        cell = graph.netlist.cells.get(name)
        if cell is None:
            continue
        if cell.is_ff:
            new = starts[cell.output]
            if graph.arrival.get(cell.output) != new:
                graph.arrival[cell.output] = new
                for consumer in graph._consumers.get(cell.output, ()):
                    push(consumer)
        else:
            push(name)

    while frontier:
        _, name = heapq.heappop(frontier)
        cell = graph.netlist.cells[name]
        new = graph._cell_arrival(cell)
        # when the value is unchanged, the downstream cone keeps its arrivals
        if graph.arrival.get(cell.output) != new:
            graph.arrival[cell.output] = new
            for consumer in graph._consumers.get(cell.output, ()):
                push(consumer)
    return graph


def report(graph: TimingGraph) -> TimingReport:
    """CP, sumCP, and the worst path per endpoint."""
    eps = graph.endpoints()
    if not eps:
        return TimingReport(0.0, 0.0, [], warning="netlist has no endpoints")
    entries = []
    total = 0.0
    worst = 0.0
    for endpoint, net, extra in eps:
        arr = graph.endpoint_arrival(net, extra)
        path = _backtrack(graph, net, extra, endpoint)
        entries.append(EndpointArrival(endpoint, arr, path.cells))
        total += arr
        worst = max(worst, arr)
    return TimingReport(worst, total, entries)


def _backtrack(graph, net, extra, endpoint, forbidden=None):
    """Greedy worst-path reconstruction from an endpoint net.

    ``forbidden`` maps a cell name to an input net that must not be
    taken at that cell (the deviation mechanism for next-worst paths).
    Ties between equal-arrival fan-ins resolve to the smallest net name,
    which makes the reconstruction deterministic.
    """
    cells = []
    arrival = graph.arrival
    drivers = graph._drivers
    netcells = graph.netlist.cells
    cur_net = net
    while True:
        driver = drivers.get(cur_net)
        if driver is None:
            break
        cell = netcells[driver]
        if cell.is_ff:
            break
        cells.append(driver)
        ins = graph._active_inputs(cell)
        skip = forbidden.get(driver) if forbidden else None
        best = None
        best_arr = 0.0
        for candidate in ins:
            if candidate == skip:
                continue
            arr = arrival[candidate]
            if best is None or arr > best_arr or (arr == best_arr
                                                  and candidate < best):
                best = candidate
                best_arr = arr
        if best is None:
            cur_net = None
            break
        cur_net = best
    cells.reverse()
    delay = arrival.get(net, 0.0) + extra
    start = cur_net if cur_net is not None else (cells[0] if cells else net)
    return TimedPath(tuple(cells), delay, endpoint, start)


def endpoint_worst_path(graph: TimingGraph, endpoint_triple) -> TimedPath:
    endpoint, net, extra = endpoint_triple
    return _backtrack(graph, net, extra, endpoint)


def endpoint_deviations(graph: TimingGraph, endpoint_triple,
                        worst: TimedPath) -> list:
    """One-level deviation candidates off the worst path, sorted by
    descending realized delay (ties: lexicographic cell sequence).

    Each candidate forbids exactly one edge of the worst path during
    re-backtracking; candidates identical to the worst path are dropped.
    """
    endpoint, net, extra = endpoint_triple
    seen = {worst.cells}
    out = []
    for pos, cell_name in enumerate(worst.cells):
        cell = graph.netlist.cells[cell_name]
        ins = graph._active_inputs(cell)
        if len(ins) < 2:
            continue
        # the edge this cell takes on the worst path
        if pos > 0:
            taken = graph.netlist.cells[worst.cells[pos - 1]].output
        else:
            taken = worst.startpoint
        if taken not in ins:
            continue
        candidate = _backtrack(graph, net, extra, endpoint,
                               forbidden={cell_name: taken})
        if candidate.cells in seen:
            continue
        seen.add(candidate.cells)
        realized = _path_delay(graph, candidate, extra)
        out.append(TimedPath(candidate.cells, realized, endpoint,
                             candidate.startpoint))
    out.sort(key=lambda p: (-p.delay, p.cells))
    return out


def find_critical(graph: TimingGraph, excluded=frozenset(), cache=None):
    """Worst not-excluded path, or None when everything is excluded.

    Per endpoint the worst path comes from greedy backtracking; when
    that exact path is excluded, a one-level deviation search forbids
    one edge of the excluded path at a time and keeps the best
    non-excluded alternative.  Ties across endpoints break on
    lexicographic endpoint id, then on the cell sequence.

    ``cache`` maps an endpoint id to its candidate list (worst path,
    then its deviations once needed).  Excluding a path does not retime
    the graph, so a caller that excludes paths one by one can pass the
    same dict on every call and clear it whenever the graph is retimed.
    """
    if cache is None:
        cache = {}
    candidates = []
    for triple in graph.endpoints():
        listed = cache.get(triple[0])
        if listed is None:
            listed = cache[triple[0]] = [endpoint_worst_path(graph, triple)]
        if listed[0].path_id in excluded and len(listed) == 1:
            listed.extend(endpoint_deviations(graph, triple, listed[0]))
        for path in listed:
            if path.path_id not in excluded:
                candidates.append(path)
                break
    if not candidates:
        return None
    return min(candidates, key=lambda p: (-p.delay, p.endpoint, p.cells))


def _path_delay(graph, path, extra):
    """Delay actually accumulated along a specific cell sequence."""
    if not path.cells:
        return graph.arrival.get(path.startpoint, 0.0) + extra
    first = graph.netlist.cells[path.cells[0]]
    if graph._active_inputs(first):
        total = graph.arrival.get(path.startpoint, 0.0)
        total += graph.cell_delay(first)
    else:
        total = 0.0  # path starts at a constant source
    for name in path.cells[1:]:
        total += graph.cell_delay(graph.netlist.cells[name])
    return total + extra
