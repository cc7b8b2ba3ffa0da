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
class TimingReport:
    cp: float
    sum_cp: float
    endpoints: list    # the worst TimedPath of each endpoint
    warning: str | None = None

    def to_json_dict(self):
        return {
            "cp_ns": self.cp,
            "sum_cp_ns": self.sum_cp,
            "fmax_ghz": (1.0 / self.cp) if self.cp > 0 else None,
            "endpoints": [
                {
                    "id": p.endpoint,
                    "arrival_ns": p.delay,
                    "worst_path": list(p.cells),
                }
                for p in self.endpoints
            ],
        }


class TimingGraph:
    """Arrival-annotated view of one netlist under one library.

    The graph keeps a per-cell delay table read from the library;
    :func:`update_timing` refreshes the entries of the cells it is
    given.  :meth:`splice` swaps a LUT for the gates that replaced it
    without re-sorting the netlist.
    """

    def __init__(self, netlist: Netlist, lib: TechLibrary):
        self.netlist = netlist
        self.lib = lib
        comb = netlist.validate()
        self._drivers = {c.output: c.name for c in netlist.cells.values()}
        self._endpoints = None
        self._delay = {}
        for cell in netlist.cells.values():
            self._refresh_delay(cell)
        # order keys are tuples so that a splice can slot gates in between
        self._index = {c.name: (i,) for i, c in enumerate(comb)}
        self._active = {}
        self._consumers = {}
        for cell in comb:
            self._add_arcs(cell)
        self.arrival = self._startpoint_arrivals()
        for cell in comb:
            self.arrival[cell.output] = self._cell_arrival(cell.name)
        self._reach = self._endpoint_reach(comb)

    # -- structure -----------------------------------------------------

    def _add_arcs(self, cell):
        arcs = self._active[cell.name] = self._compute_active_inputs(cell)
        for net in arcs:
            self._consumers.setdefault(net, []).append(cell.name)

    @staticmethod
    def _compute_active_inputs(cell):
        """Input nets with a real timing arc to the output."""
        if cell.kind == KIND_LUT:
            support = _support_positions(cell.mask.width, cell.mask.bits)
            return tuple(cell.inputs[i] for i in support)
        return cell.inputs

    def _endpoint_reach(self, comb):
        """Output net of each combinational cell -> bit mask of the
        endpoints (bit i: ``endpoints()[i]``) it reaches through arcs."""
        own = {}
        for i, (_, net, _) in enumerate(self.endpoints()):
            own[net] = own.get(net, 0) | 1 << i
        cells = self.netlist.cells
        reach = {}
        for cell in reversed(comb):
            bits = own.get(cell.output, 0)
            for consumer in self._consumers.get(cell.output, ()):
                bits |= reach[cells[consumer].output]
            reach[cell.output] = bits
        return reach

    def splice(self, lut, new_cells):
        """Put the cells that replaced ``lut`` in its place and retime
        its fan-out cone; returns the ids of the endpoints ``lut`` reached.

        ``lut`` is already out of the netlist and ``new_cells`` (names,
        in topological order, the last one driving the LUT's output net)
        are in it.  The k-th new cell takes the order key ``(lut key, k)``,
        which sorts after the LUT's fan-in and before its fan-out.  A
        splice keeps every net and the endpoints it reaches, so only the
        returned endpoints can have new worst paths.
        """
        key = self._index.pop(lut.name)
        del self._delay[lut.name]
        for net in self._active.pop(lut.name):
            self._consumers[net].remove(lut.name)
        cells = self.netlist.cells
        for k, name in enumerate(new_cells):
            cell = cells[name]
            self._drivers[cell.output] = name
            self._index[name] = key + (k,)
            self._add_arcs(cell)
        update_timing(self, new_cells)
        reached = self._reach[lut.output]
        return [endpoint for i, (endpoint, _, _) in enumerate(self.endpoints())
                if reached >> i & 1]

    def _refresh_delay(self, cell):
        self._delay[cell.name] = self.lib.cell_delay(cell)

    def cell_delay(self, cell) -> float:
        return self._delay[cell.name]

    # -- arrival propagation -------------------------------------------

    def _startpoint_arrivals(self):
        arrivals = {}
        for net in self.netlist.inputs:
            arrivals[net] = 0.0
        if self.netlist.clock is not None:
            arrivals.setdefault(self.netlist.clock, 0.0)
        for cell in self.netlist.cells.values():
            if cell.is_ff:
                arrivals[cell.output] = self._delay[cell.name]
        return arrivals

    def _cell_arrival(self, name):
        ins = self._active[name]
        if not ins:
            # constant source (TIE or support-free LUT): value is ready at t=0
            return 0.0
        arrival = self.arrival
        return max([arrival[net] for net in ins]) + self._delay[name]

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


def build_and_time(netlist: Netlist, lib: TechLibrary) -> TimingGraph:
    """Validate, levelize, and propagate arrivals in one topological pass."""
    return TimingGraph(netlist, lib)


def update_timing(graph: TimingGraph, changed) -> TimingGraph:
    """Recompute arrivals over the fan-out cone of the changed cells.

    ``changed`` is a cell name or iterable of cell names; their entries
    in the delay table are refreshed from the library first.  The result is exactly what a fresh full pass would produce;
    incremental-vs-full equality is a tested invariant.
    """
    if isinstance(changed, str):
        changed = [changed]
    cells = graph.netlist.cells
    arrival = graph.arrival
    consumers = graph._consumers
    index = graph._index
    seeds = []
    for name in changed:
        cell = cells.get(name)
        if cell is None:
            continue
        graph._refresh_delay(cell)
        if not cell.is_ff:
            seeds.append(name)
        elif arrival.get(cell.output) != graph._delay[name]:
            # a Q pin starts its paths at clk-to-q
            arrival[cell.output] = graph._delay[name]
            seeds.extend(consumers.get(cell.output, ()))
    seen = {name for name in seeds if name in index}
    frontier = [(index[name], name) for name in seen]
    heapq.heapify(frontier)
    while frontier:
        _, name = heapq.heappop(frontier)
        output = cells[name].output
        new = graph._cell_arrival(name)
        # when the value is unchanged, the downstream cone keeps its arrivals
        if arrival.get(output) != new:
            arrival[output] = new
            for consumer in consumers.get(output, ()):
                if consumer not in seen:
                    seen.add(consumer)
                    heapq.heappush(frontier, (index[consumer], consumer))
    return graph


def report(graph: TimingGraph) -> TimingReport:
    """CP, sumCP, and the worst path per endpoint."""
    eps = graph.endpoints()
    if not eps:
        return TimingReport(0.0, 0.0, [], warning="netlist has no endpoints")
    paths = [_backtrack(graph, net, extra, endpoint)
             for endpoint, net, extra in eps]
    total = 0.0
    worst = 0.0
    for path in paths:
        total += path.delay
        worst = max(worst, path.delay)
    return TimingReport(worst, total, paths)


def _greedy_fanin(arrival, ins, skip=None):
    """The latest-arriving net of ``ins`` other than ``skip``, ties to
    the smallest net name (which makes paths deterministic); None when
    no net is left."""
    best = None
    best_arr = 0.0
    for net in ins:
        if net == skip:
            continue
        arr = arrival[net]
        if best is None or arr > best_arr or (arr == best_arr and net < best):
            best = net
            best_arr = arr
    return best


def _greedy_chain(graph, net, memo):
    """(cells, startpoint) of the greedy worst path that ends on ``net``.

    The path runs back through the greedy fan-in of each cell to a
    primary input or FF output (the startpoint) or to a constant source
    (which is its own startpoint).  ``memo`` maps nets to chains already
    built and holds only while the arrivals do.
    """
    drivers, active, arrival = graph._drivers, graph._active, graph.arrival
    origin = net
    walked = []
    while net not in memo:
        driver = drivers.get(net)
        ins = active.get(driver)    # None past a primary input or FF output
        if ins is None:
            memo[net] = ((), net)
            break
        pred = _greedy_fanin(arrival, ins)
        if pred is None:
            memo[net] = ((driver,), driver)
            break
        walked.append((net, driver, pred))
        net = pred
    for net, driver, pred in reversed(walked):
        cells, start = memo[pred]
        memo[net] = (cells + (driver,), start)
    return memo[origin]


def _backtrack(graph, net, extra, endpoint):
    """Greedy worst-path reconstruction from an endpoint net."""
    cells, start = _greedy_chain(graph, net, {})
    return TimedPath(cells, graph.arrival.get(net, 0.0) + extra, endpoint, start)


def endpoint_worst_path(graph: TimingGraph, endpoint_triple) -> TimedPath:
    endpoint, net, extra = endpoint_triple
    return _backtrack(graph, net, extra, endpoint)


def endpoint_deviations(graph: TimingGraph, endpoint_triple,
                        worst: TimedPath) -> list:
    """One-level deviation candidates off the worst path, sorted by
    descending realized delay (ties: lexicographic cell sequence).

    Each candidate forbids exactly one edge of the worst path: at that
    cell it enters through the greedy fan-in among the other inputs,
    and before it runs the greedy chain.  Arrivals are the left-to-right
    sums along greedy chains, so the realized delay is that input's
    arrival plus the delays from the cell on, added left to right.
    Candidates identical to the worst path are dropped.
    """
    endpoint, _, extra = endpoint_triple
    arrival = graph.arrival
    cells = graph.netlist.cells
    delays = [graph._delay[name] for name in worst.cells]
    # the worst path's prefixes are greedy chains too: alternatives that
    # rejoin it stop walking there
    chains = {cells[name].output: (worst.cells[:pos + 1], worst.startpoint)
              for pos, name in enumerate(worst.cells)}
    seen = {worst.cells}
    out = []
    taken = worst.startpoint     # the edge the worst path takes into a cell
    for pos, name in enumerate(worst.cells):
        ins = graph._active[name]
        if len(ins) >= 2 and taken in ins:
            alt = _greedy_fanin(arrival, ins, skip=taken)
            if alt is None:
                # every other pin carries the taken net: the candidate
                # starts at this cell
                prefix, start, total = (), name, arrival.get(name, 0.0)
            else:
                prefix, start = _greedy_chain(graph, alt, chains)
                total = arrival[alt]
            path = prefix + worst.cells[pos:]
            if path not in seen:
                seen.add(path)
                for delay in delays[pos:]:
                    total += delay
                out.append(TimedPath(path, total + extra, endpoint, start))
        taken = cells[name].output
    out.sort(key=lambda p: (-p.delay, p.cells))
    return out


def find_critical(graph: TimingGraph, excluded=frozenset(), cache=None):
    """Worst not-excluded path, or None when everything is excluded.

    Per endpoint the worst path comes from greedy backtracking; when
    that exact path is excluded, a one-level deviation search forbids
    one edge of the excluded path at a time and keeps the best
    non-excluded alternative.  Ties across endpoints break on
    lexicographic endpoint id, then on the cell sequence.

    ``cache`` maps an endpoint id to ``[start, candidates]``: the
    candidate list (worst path, then its deviations once needed) and the
    index of its first path not yet excluded.  Excluding a path does not
    retime the graph, so a caller can pass the same dict on every call
    as long as ``excluded`` only grows; after a
    :meth:`TimingGraph.splice` it drops the endpoints the splice
    returns, and after any other retiming it clears the dict.
    """
    if cache is None:
        cache = {}
    candidates = []
    for triple in graph.endpoints():
        entry = cache.get(triple[0])
        if entry is None:
            entry = cache[triple[0]] = [0, [endpoint_worst_path(graph, triple)]]
        start, listed = entry
        while start < len(listed) and listed[start].path_id in excluded:
            start += 1
            if start == 1:
                listed.extend(endpoint_deviations(graph, triple, listed[0]))
        entry[0] = start
        if start < len(listed):
            candidates.append(listed[start])
    if not candidates:
        return None
    return min(candidates, key=lambda p: (-p.delay, p.endpoint, p.cells))
