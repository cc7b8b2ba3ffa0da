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

from .netlist import KIND_LUT, MAX_LUT_WIDTH, LutMask, Netlist
from .techlib import TechLibrary

# Order keys: the i-th cell of the first topological sort has the key
# i * STRIDE, and the k-th cell spliced in for it (k from 0) the key
# i * STRIDE + k + 1, after the cell's fan-in and before its fan-out.
# staticgen maps a width-w LUT to at most one gate per ROBDD node
# (2^w - 1), one inverter per input (w) and one BUF or TIE, so the
# network of any LUT fits in the STRIDE - 1 keys.
STRIDE = (1 << MAX_LUT_WIDTH) + MAX_LUT_WIDTH + 1


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
    without re-sorting the netlist.  :func:`find_critical` keeps its
    per-endpoint answers on the graph until a retiming reaches them.
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
        self._index = {c.name: i * STRIDE for i, c in enumerate(comb)}
        self._cell_at = {key: name for name, key in self._index.items()}
        self._active = {}
        self._consumers = {}    # net -> order keys of the cells it has arcs to
        # the greedy links walked so far (see _greedy_chain); retiming a
        # cell drops its output's link
        self._links = {}
        for cell in comb:
            self._add_arcs(cell)
        self.arrival = self._startpoint_arrivals()
        for cell in comb:
            self.arrival[cell.output] = self._cell_arrival(cell.name)
        self._reach = self._endpoint_reach(comb)
        # endpoint id -> its worst path with a reconfigurable LUT, or None
        self._candidates = {}
        # ids of the paths found without a reconfigurable LUT: a LUT only
        # ever goes from reconfigurable to static, so they stay without
        self._excluded = set()

    # -- structure -----------------------------------------------------

    def _add_arcs(self, cell):
        arcs = self._active[cell.name] = self._compute_active_inputs(cell)
        for net in arcs:
            self._consumers.setdefault(net, []).append(self._index[cell.name])

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
                bits |= reach[cells[self._cell_at[consumer]].output]
            reach[cell.output] = bits
        return reach

    def splice(self, lut, new_cells):
        """Put the cells that replaced ``lut`` in its place and retime
        its fan-out cone.

        ``lut`` is already out of the netlist and ``new_cells`` (names,
        in topological order, the last one driving the LUT's output net)
        are in it.  The k-th new cell takes the order key ``lut key + k +
        1`` (see STRIDE); a cell that was itself spliced in, or more cells
        than the keys hold, raise TimingError.  A splice keeps every net
        and the endpoints it reaches, so the new cells reach the endpoints
        ``lut`` reached.
        """
        key = self._index[lut.name]
        if key % STRIDE:
            raise TimingError(f"cannot splice cells in for {lut.name}: "
                              "it was spliced in itself")
        if len(new_cells) >= STRIDE:
            raise TimingError(f"cannot splice {len(new_cells)} cells in for "
                              f"{lut.name}: the order keys hold {STRIDE - 1}")
        del self._index[lut.name], self._cell_at[key], self._delay[lut.name]
        for net in self._active.pop(lut.name):
            self._consumers[net].remove(key)
        cells = self.netlist.cells
        reached = self._reach[lut.output]
        for key, name in enumerate(new_cells, key + 1):
            cell = cells[name]
            self._drivers[cell.output] = name
            self._index[name] = key
            self._cell_at[key] = name
            self._reach[cell.output] = reached
            self._add_arcs(cell)
        update_timing(self, new_cells)

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
    in the delay table are refreshed from the library first.  The result
    is exactly what a fresh full pass would produce; incremental-vs-full
    equality is a tested invariant.  The :func:`find_critical` answers
    of the endpoints the changed cells reach are dropped, all of them
    when an FF changes.
    """
    if isinstance(changed, str):
        changed = [changed]
    cells = graph.netlist.cells
    arrival = graph.arrival
    consumers = graph._consumers
    index = graph._index
    cell_at = graph._cell_at
    active = graph._active
    delay = graph._delay
    links = graph._links
    candidates = graph._candidates
    reached = 0     # bit i: endpoints()[i]
    seen = set()    # order keys
    for name in changed:
        cell = cells.get(name)
        if cell is None:
            continue
        graph._refresh_delay(cell)
        if not cell.is_ff:
            if name in index:
                seen.add(index[name])
                reached |= graph._reach[cell.output]
        elif arrival.get(cell.output) != delay[name]:
            # a Q pin starts its paths at clk-to-q
            arrival[cell.output] = delay[name]
            seen.update(consumers.get(cell.output, ()))
            candidates.clear()
    if reached:
        for i, (endpoint, _, _) in enumerate(graph.endpoints()):
            if reached >> i & 1:
                candidates.pop(endpoint, None)
    frontier = sorted(seen)     # a sorted list is a heap
    pop, push = heapq.heappop, heapq.heappush
    arrival_of = arrival.__getitem__
    while frontier:
        name = cell_at[pop(frontier)]
        ins = active[name]
        # a constant source (TIE or support-free LUT) is ready at t=0
        new = max(map(arrival_of, ins)) + delay[name] if ins else 0.0
        output = cells[name].output
        links.pop(output, None)
        # when the value is unchanged, the downstream cone keeps its arrivals
        if arrival.get(output) != new:
            arrival[output] = new
            for key in consumers.get(output, ()):
                if key not in seen:
                    seen.add(key)
                    push(frontier, key)
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


def _greedy_chain(graph, net, rejoin=()):
    """(cells, end, rejoined): the greedy worst path that ends on ``net``.

    The path runs back through the greedy fan-in of each cell to a
    primary input or FF output (the startpoint) or to a constant source
    (which is its own startpoint), or only to the first net in
    ``rejoin``.  ``cells`` lists its cells in path order; ``end`` is the
    startpoint or that net, and ``rejoined`` tells which.

    The graph keeps the links walked: net -> (driver, predecessor net),
    None for the predecessor of a constant source's output, and None for
    a startpoint net.  A link depends only on the arrivals at the
    driver's inputs, so it holds until :func:`update_timing` retimes the
    driver and drops it.
    """
    drivers, active = graph._drivers, graph._active
    arrival, links = graph.arrival, graph._links
    cells = []
    while net not in rejoin:
        link = links.get(net, ())
        if link == ():
            driver = drivers.get(net)
            ins = active.get(driver)    # None past a primary input or FF output
            link = links[net] = (None if ins is None
                                 else (driver, _greedy_fanin(arrival, ins)))
        if link is None:
            break
        driver, net = link
        cells.append(driver)
        if net is None:
            net = driver
            break
    else:
        cells.reverse()
        return cells, net, True
    cells.reverse()
    return cells, net, False


def _backtrack(graph, net, extra, endpoint):
    """Greedy worst-path reconstruction from an endpoint net."""
    cells, start, _ = _greedy_chain(graph, net)
    return TimedPath(tuple(cells), graph.arrival.get(net, 0.0) + extra,
                     endpoint, start)


def endpoint_worst_path(graph: TimingGraph, endpoint_triple) -> TimedPath:
    endpoint, net, extra = endpoint_triple
    return _backtrack(graph, net, extra, endpoint)


class _Deviations:
    """What the deviations off one worst path share: the path, the
    graph, and the cell sequences built.  The arrivals of the
    endpoint's fan-in cone hold as long as its cached paths do, so a
    sequence can be built when first read."""

    __slots__ = ("worst", "graph", "rejoin", "built")

    def __init__(self, graph, worst):
        self.worst = worst
        self.graph = graph
        cells = graph.netlist.cells
        # net -> number of worst-path cells that end on it: its
        # prefixes are greedy chains too, so a walk stops there
        self.rejoin = {cells[name].output: k
                       for k, name in enumerate(worst.cells, 1)}
        if graph._active[worst.cells[0]]:
            self.rejoin[worst.startpoint] = 0
        self.built = {}

    def cells(self, pos, alt):
        """(cells, startpoint, d) of the deviation that enters the worst
        path's ``pos``-th cell through net ``alt``; its cells first
        differ from the worst path's at index ``d``."""
        path = self.built.get(pos)
        if path is None:
            path = self.built[pos] = self._build(pos, alt)
        return path

    def _build(self, pos, alt):
        worst = self.worst
        suffix = worst.cells[pos:]
        prefix, end, rejoined = _greedy_chain(self.graph, alt, self.rejoin)
        if rejoined:
            k = self.rejoin[end]
            return (worst.cells[:k] + tuple(prefix) + suffix,
                    worst.startpoint, k)
        return tuple(prefix) + suffix, end, 0

    def order(self, pos, alt):
        """A key that sorts deviations as their cell sequences do.

        Sequences that first differ from the worst path's at index d
        hold the worst path's first d cells; of two that differ at
        different indexes, the one with the lower cell there sorts first
        below the worst path's cell and last above it.  Only sequences
        that share d and the cell there compare further."""
        cells, _, d = self.cells(pos, alt)
        cell = cells[d]
        if cell < self.worst.cells[d]:
            return 0, d, cell, cells
        return 1, -d, cell, cells


def deviation_path(record) -> TimedPath:
    """The path of one :func:`endpoint_deviations` record."""
    delay, pos, alt, search = record
    cells, start, _ = search.cells(pos, alt)
    return TimedPath(cells, delay, search.worst.endpoint, start)


def endpoint_deviations(graph: TimingGraph, endpoint_triple,
                        worst: TimedPath) -> list:
    """One-level deviation candidates off the worst path, as
    ``(delay, pos, alt, search)`` records sorted by descending realized
    delay (ties: lexicographic cell sequence); :func:`deviation_path`
    builds the path of one.

    Each candidate forbids exactly one edge of the worst path: at its
    ``pos``-th cell it enters through the greedy fan-in ``alt`` among the
    other inputs, and before it runs the greedy chain.  Arrivals are the
    left-to-right sums along greedy chains, so the realized delay is
    that input's arrival plus the delays from the cell on, added left to
    right.  A cell whose other inputs all carry the taken net has no
    other edge, and the candidate identical to the worst path is
    dropped, so no candidate is slower than the worst path.  A
    candidate's cell sequence is built when it is read, or to order it
    among candidates of equal delay.
    """
    if not worst.cells:
        return []
    _, _, extra = endpoint_triple
    arrival = graph.arrival
    cells = graph.netlist.cells
    delays = [graph._delay[name] for name in worst.cells]
    active, drivers = graph._active, graph._drivers
    search = _Deviations(graph, worst)
    out = []
    taken = worst.startpoint     # the edge the worst path takes into a cell
    for pos, name in enumerate(worst.cells):
        # None when every pin carries the taken net
        alt = _greedy_fanin(arrival, active[name], skip=taken)
        # a candidate that rejoins the worst path enters one of its
        # cells from another cell, or starts on a later one: only one
        # that enters the first cell from another startpoint has the
        # worst path's cells
        if alt is not None and (pos or active.get(drivers.get(alt))
                                is not None):
            total = arrival[alt]
            if total == arrival[taken]:
                # from the taken edge's arrival, the sums are the worst
                # path's arrivals
                total = worst.delay
            else:
                for delay in delays[pos:]:
                    total += delay
                total += extra
            out.append((total, pos, alt, search))
        taken = cells[name].output
    # cell sequences are compared, and so built, only on equal delays
    tied = {}
    for record in out:
        tied[record[0]] = record[0] in tied
    out.sort(key=lambda r: (-r[0], search.order(r[1], r[2]) if tied[r[0]]
                            else ()))
    return out


def find_critical(graph: TimingGraph):
    """The worst path that holds a reconfigurable LUT, or None.

    Per endpoint the answer is the first such path of the greedy worst
    path and then its one-level deviations (see
    :func:`endpoint_deviations`), which are never slower; across
    endpoints the worst wins, ties broken on the endpoint id.  The graph
    keeps each endpoint's answer until :func:`update_timing` (which a
    splice calls, and through which any changed cell must pass) retimes
    a cell that reaches the endpoint, so the result depends only on the
    netlist and its arrivals, never on earlier searches.
    """
    candidates = graph._candidates
    for triple in graph.endpoints():
        if triple[0] not in candidates:
            candidates[triple[0]] = _first_reconfigurable(graph, triple)
    found = [path for path in candidates.values() if path is not None]
    if not found:
        return None
    return min(found, key=lambda p: (-p.delay, p.endpoint))


def _first_reconfigurable(graph, triple):
    worst = endpoint_worst_path(graph, triple)
    if _reconfigurable(graph, worst.path_id):
        return worst
    for record in endpoint_deviations(graph, triple, worst):
        _, pos, alt, search = record
        if _reconfigurable(graph, (triple[0], search.cells(pos, alt)[0])):
            return deviation_path(record)
    return None


def _reconfigurable(graph, path_id):
    """Whether the path ``path_id`` names holds a reconfigurable LUT."""
    if path_id in graph._excluded:
        return False
    cells = graph.netlist.cells
    if any(cells[name].is_reconfigurable for name in path_id[1]):
        return True
    graph._excluded.add(path_id)
    return False
