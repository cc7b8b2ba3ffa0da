"""Static timing analysis over hybrid netlists.

Arrival times are propagated once, topologically, over the combinational
subgraph.  Startpoints are primary inputs (arrival 0) and FF Q pins
(arrival = clk-to-q); endpoints are primary outputs and FF D pins (which
add setup).  Times are exact int counts of the library's 1/``time_unit``
ns, turned into ns only where a report writes them.  Reconfigurable LUTs
only present timing arcs on their functional support pins: a pin the
masking pattern ignores never starts a path, which mirrors the
input-forcing case constraints handed to downstream tools.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

from .netlist import KIND_LUT, LutMask, Netlist
from .techlib import TechLibrary

# a greedy link not walked yet (see _greedy_chain)
_UNLINKED = -2
# the output cell's link while its slot's other cells are stale
_STALE = -3


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
    delay: int         # includes clk2q / setup boundary contributions
    endpoint: str      # output port name, or "<ff>/D"
    startpoint: str    # net the path begins on
    # the cells' ids on the graph that found the path
    ids: tuple = field(default=(), compare=False, repr=False)


@dataclass
class TimingReport:
    cp: int            # as every time here, in 1/unit ns
    sum_cp: int
    endpoints: list    # the worst TimedPath of each endpoint
    unit: int = 1      # the library's time_unit
    warning: str | None = None

    def to_json_dict(self):
        return {
            "cp_ns": self.cp / self.unit,
            "sum_cp_ns": self.sum_cp / self.unit,
            "fmax_ghz": self.unit / self.cp if self.cp > 0 else None,
            "endpoints": [
                {
                    "id": p.endpoint,
                    "arrival_ns": p.delay / self.unit,
                    "worst_path": list(p.cells),
                }
                for p in self.endpoints
            ],
        }


class TimingGraph:
    """Arrival-annotated view of one netlist under one library.

    Every net has a dense id, and the cell that drives a net, being
    named by it, shares the net's id and name.  Per id the graph keeps
    lists: the name, the arrival, the driver's delay (refreshed by
    :func:`update_timing` for the cells it is given), its active fan-in
    (net ids; None for a primary input or FF output), the slots that
    read the net from outside its own, the greedy link and the
    reconfigurable flag.  Names are read only where a path leaves the
    graph.

    The topological order is kept as slots, one per combinational cell
    of the first sort, each listing in order the cells that stand in for
    it; the last one drives the slot's output net, and the others drive
    nets only cells of the slot read.  A cell reads only nets of earlier
    slots or of earlier cells of its own slot, so slot numbers order the
    retiming, and :meth:`splice` swaps a LUT for the gates that replaced
    it by rewriting one slot entry.

    Per slot the graph also keeps a fold: for each net its cells read
    from outside it, the longest delay from that net to the output, and
    the arrival its constant sources give the output (-1 when it has
    none).  :func:`update_timing` retimes a slot's output from those few
    terms alone and leaves its other cells stale; a walk that enters the
    slot, always through its output, and :attr:`arrival` recompute them
    first.  :func:`find_critical` keeps its per-endpoint answers on the
    graph until a retiming reaches them.
    """

    def __init__(self, netlist: Netlist, lib: TechLibrary):
        self.netlist = netlist
        self.lib = lib
        comb = netlist.validate()
        self._ids = {}          # net name -> id
        self._names = []
        self._arrival = []
        self._delay = []
        self._active = []
        self._consumers = []    # slot numbers, one per arc from another slot
        # the greedy links walked so far (see _greedy_chain); retiming a
        # cell unlinks it
        self._links = []
        self._reconfigurable = []
        self._slot_of = []      # -1 past a primary input or FF output
        for net in netlist.inputs:
            self._add_net(net)
        if netlist.clock is not None and netlist.clock not in self._ids:
            self._add_net(netlist.clock)
        for cell in netlist.cells.values():
            c = self._add_net(cell.name)
            self._refresh(cell)
            if cell.is_ff:
                # a Q pin starts its paths at clk-to-q
                self._arrival[c] = self._delay[c]
        self._slots = [[self._ids[cell.name]] for cell in comb]
        for s, cell in enumerate(comb):
            self._slot_of[self._ids[cell.name]] = s
        for cell in comb:
            self._add_arcs(cell)
        self._folds = [None] * len(comb)
        for s in range(len(comb)):
            self._fold(s)
        self._retime(c for (c,) in self._slots)
        self._endpoints = self._sorted_endpoints()
        self._endpoint_nets = [self._ids[net] for _, net, _ in self._endpoints]
        self._reach = self._slot_reach()
        # endpoint id -> its worst path with a reconfigurable LUT, or None
        self._candidates = {}

    # -- structure -----------------------------------------------------

    def _add_net(self, name):
        self._ids[name] = net = len(self._names)
        self._names.append(name)
        self._arrival.append(0)
        self._delay.append(0)
        self._active.append(None)
        self._consumers.append([])
        self._links.append(_UNLINKED)
        self._reconfigurable.append(False)
        self._slot_of.append(-1)
        return net

    def _add_arcs(self, cell):
        ids, slot_of = self._ids, self._slot_of
        c = ids[cell.name]
        slot = slot_of[c]
        arcs = self._active[c] = tuple(
            ids[net] for net in self._compute_active_inputs(cell))
        for net in arcs:
            if slot_of[net] != slot:
                self._consumers[net].append(slot)

    @staticmethod
    def _compute_active_inputs(cell):
        """Input nets with a real timing arc to the output."""
        if cell.kind == KIND_LUT:
            support = _support_positions(cell.mask.width, cell.mask.bits)
            return tuple(cell.inputs[i] for i in support)
        return cell.inputs

    def _slot_reach(self):
        """Per slot, the bit mask of the endpoints (bit i:
        ``endpoints()[i]``) its cell reaches through arcs."""
        own = {}
        for i, net in enumerate(self._endpoint_nets):
            own[net] = own.get(net, 0) | 1 << i
        reach = [0] * len(self._slots)
        for s in range(len(self._slots) - 1, -1, -1):
            (c,) = self._slots[s]
            bits = own.get(c, 0)
            for consumer in self._consumers[c]:
                bits |= reach[consumer]
            reach[s] = bits
        return reach

    def splice(self, lut, new_cells):
        """Put the cells that replaced ``lut`` in its place and retime
        its fan-out cone.

        ``lut`` is already out of the netlist and ``new_cells`` (names,
        in topological order, the last one driving the LUT's output net,
        the others driving new nets only they read) are in it.  They
        replace ``lut``'s entry in its slot, so a cell spliced in can be
        spliced over again, and they reach the endpoints ``lut`` reached.
        """
        ids, slot_of, consumers = self._ids, self._slot_of, self._consumers
        old = ids[lut.name]
        slot = slot_of[old]
        for net in self._active[old]:
            if slot_of[net] != slot:
                consumers[net].remove(slot)
        cells = self.netlist.cells
        new = []
        for name in new_cells:
            c = ids.get(name)
            if c is None:
                c = self._add_net(name)
            slot_of[c] = slot
            self._add_arcs(cells[name])
            new.append(c)
        entries = self._slots[slot]
        k = entries.index(old)
        entries[k:k + 1] = new
        update_timing(self, new_cells)

    def _refresh(self, cell):
        c = self._ids[cell.name]
        self._delay[c] = self.lib.cell_delay(cell)
        self._reconfigurable[c] = cell.is_reconfigurable
        return c

    def _fold(self, s):
        """Fold slot ``s`` into (output, nets, delays, constant, mark):
        the nets its cells read from outside it and the longest delay
        from each to the output; the arrival the slot's constant sources
        give the output, -1 when there are none; and the link
        :func:`update_timing` leaves on the output, which marks the
        other cells stale when there are any."""
        active, delay, slot_of = self._active, self._delay, self._slot_of
        entries = self._slots[s]
        out = entries[-1]
        to_out = {out: 0}   # cell -> longest delay after it to the output
        terms = {}
        const = -1
        for c in reversed(entries):
            after = to_out.get(c)
            if after is None:   # no arc leads to the output
                continue
            ins = active[c]
            if not ins:     # a constant source, ready at t=0
                const = max(const, after)
            t = after + delay[c]
            for net in ins:
                reach = to_out if slot_of[net] == s else terms
                if t > reach.get(net, -1):
                    reach[net] = t
        self._folds[s] = (out, tuple(terms), tuple(terms.values()), const,
                          _STALE if len(entries) > 1 else _UNLINKED)

    def _retime(self, cells):
        """Recompute the arrivals of ``cells``, in order, and unlink
        them."""
        arrival, active, delay = self._arrival, self._active, self._delay
        links = self._links
        arrival_of = arrival.__getitem__
        for c in cells:
            ins = active[c]
            # a constant source (TIE or support-free LUT) is ready at t=0
            arrival[c] = max(map(arrival_of, ins)) + delay[c] if ins else 0
            links[c] = _UNLINKED

    # -- arrival propagation -------------------------------------------

    @property
    def arrival(self):
        """Net name -> arrival time, a copy; stale cells are retimed
        first."""
        links = self._links
        for entries in self._slots:
            if links[entries[-1]] == _STALE:
                self._retime(entries)
        return dict(zip(self._names, self._arrival))

    # -- endpoints -------------------------------------------------------

    def _sorted_endpoints(self):
        out = []
        for net in self.netlist.outputs:
            out.append((net, net, 0))
        for cell in self.netlist.cells.values():
            if cell.is_ff:
                out.append((f"{cell.name}/D", cell.inputs[0], self.lib.setup_q))
        out.sort(key=lambda t: t[0])
        return out

    def endpoints(self):
        """Sorted (endpoint id, net, extra delay) triples."""
        return self._endpoints

    def cp(self) -> int:
        arrival = self._arrival
        return max((arrival[net] + extra for net, (_, _, extra)
                    in zip(self._endpoint_nets, self._endpoints)), default=0)


def build_and_time(netlist: Netlist, lib: TechLibrary) -> TimingGraph:
    """Validate, levelize, and propagate arrivals in one topological pass."""
    return TimingGraph(netlist, lib)


def update_timing(graph: TimingGraph, changed) -> TimingGraph:
    """Recompute arrivals over the fan-out cone of the changed cells.

    ``changed`` is a cell name or iterable of cell names; their delays
    and reconfigurable flags are refreshed from the library and the
    netlist first, and the folds of their slots rebuilt.  The heap holds
    slot numbers: a popped slot's output arrival is the max of
    ``arrival[net] + delay`` over its fold's terms and its constant
    arrival; its output is unlinked, or marked stale when the slot holds
    other cells, which keep their old arrivals until a walk or
    :attr:`TimingGraph.arrival` retimes them; and when the output moved,
    the slots that read it are pushed.  The result is exactly what a fresh full
    pass would produce; incremental-vs-full equality is a tested
    invariant.  The :func:`find_critical` answers of the endpoints the
    changed cells reach are dropped, all of them when an FF changes.
    """
    if isinstance(changed, str):
        changed = [changed]
    cells = graph.netlist.cells
    arrival = graph._arrival
    consumers = graph._consumers
    delay = graph._delay
    links = graph._links
    folds = graph._folds
    candidates = graph._candidates
    reached = 0     # bit i: endpoints()[i]
    refolded = set()
    seen = set()    # slot numbers
    for name in changed:
        cell = cells.get(name)
        if cell is None or name not in graph._ids:
            continue
        c = graph._refresh(cell)
        if not cell.is_ff:
            slot = graph._slot_of[c]
            if slot >= 0:
                refolded.add(slot)
                reached |= graph._reach[slot]
        elif arrival[c] != delay[c]:
            # a Q pin starts its paths at clk-to-q
            arrival[c] = delay[c]
            seen.update(consumers[c])
            candidates.clear()
    for slot in refolded:
        graph._fold(slot)
    seen |= refolded
    if reached:
        for i, (endpoint, _, _) in enumerate(graph.endpoints()):
            if reached >> i & 1:
                candidates.pop(endpoint, None)
    frontier = sorted(seen)     # a sorted list is a heap
    pop, push = heapq.heappop, heapq.heappush
    arrival_of = arrival.__getitem__
    while frontier:
        out, nets, ds, const, mark = folds[pop(frontier)]
        new = max(map(add, map(arrival_of, nets), ds), default=const)
        if const > new:
            new = const
        links[out] = mark
        # when the value is unchanged, the downstream cone keeps its
        # arrivals
        if arrival[out] != new:
            arrival[out] = new
            for slot in consumers[out]:
                if slot not in seen:
                    seen.add(slot)
                    push(frontier, slot)
    return graph


def report(graph: TimingGraph) -> TimingReport:
    """CP, sumCP, and the worst path per endpoint."""
    eps = graph.endpoints()
    paths = [_backtrack(graph, net, extra, endpoint)
             for net, (endpoint, _, extra) in zip(graph._endpoint_nets, eps)]
    delays = [path.delay for path in paths]
    return TimingReport(max(delays, default=0), sum(delays), paths,
                        graph.lib.time_unit,
                        None if paths else "netlist has no endpoints")


def _greedy_fanin(arrival, names, ins, skip=-1):
    """The latest-arriving net of ``ins`` other than ``skip``, ties to
    the smallest net name (which makes paths deterministic); -1 when no
    net is left."""
    best = -1
    best_arr = 0
    for net in ins:
        if net == skip:
            continue
        arr = arrival[net]
        if best < 0 or arr > best_arr or (arr == best_arr
                                          and names[net] < names[best]):
            best = net
            best_arr = arr
    return best


def _greedy_chain(graph, net, rejoin=()):
    """(cells, end): the greedy worst path that ends on ``net``, as ids.

    The path runs back through the greedy fan-in of each cell to a
    primary input or FF output (the startpoint) or to a constant source
    (which is its own startpoint), or only to the first net in
    ``rejoin``.  ``cells`` lists its cells in path order; ``end`` is the
    startpoint or that net.

    The graph keeps the links walked: per cell its greedy fan-in, -1
    for a constant source.  A link depends only on the arrivals at the
    cell's inputs, so it holds until :func:`update_timing` retimes the
    cell and unlinks it.  A walk enters a slot through its output, so
    it finds a stale slot there and retimes the slot's cells first.
    """
    active, arrival = graph._active, graph._arrival
    links, names = graph._links, graph._names
    cells = []
    while net not in rejoin:
        link = links[net]
        if link < -1:
            ins = active[net]
            if ins is None:     # a primary input or FF output
                break
            if link == _STALE:
                graph._retime(graph._slots[graph._slot_of[net]])
            link = links[net] = _greedy_fanin(arrival, names, ins)
        cells.append(net)
        if link < 0:
            break
        net = link
    cells.reverse()
    return cells, net


def _backtrack(graph, net, extra, endpoint):
    """Greedy worst-path reconstruction from an endpoint net's id."""
    ids, start = _greedy_chain(graph, net)
    names = graph._names
    return TimedPath(tuple(map(names.__getitem__, ids)),
                     graph._arrival[net] + extra, endpoint, names[start],
                     tuple(ids))


def endpoint_worst_path(graph: TimingGraph, endpoint_triple) -> TimedPath:
    endpoint, net, extra = endpoint_triple
    return _backtrack(graph, graph._ids[net], extra, endpoint)


class _Deviations:
    """What the deviations off one worst path share: the path, the
    graph, and the greedy walks taken off it.  The arrivals of the
    endpoint's fan-in cone hold as long as its cached answer does, so a
    walk can be taken when first read."""

    __slots__ = ("worst", "graph", "start", "rejoin", "walks", "built")

    def __init__(self, graph, worst):
        self.worst = worst
        self.graph = graph
        first = worst.ids[0]
        # net -> number of worst-path cells that end on it: its
        # prefixes are greedy chains too, so a walk stops there
        self.rejoin = {c: k for k, c in enumerate(worst.ids, 1)}
        if graph._active[first]:
            self.start = graph._ids[worst.startpoint]
            self.rejoin[self.start] = 0
        else:
            self.start = first
        self.walks = {}
        self.built = {}

    def walk(self, pos, alt):
        """(prefix, end, d) of the deviation that enters the worst
        path's ``pos``-th cell through net ``alt``: the cells (ids) of
        the greedy walk back from ``alt``, the net it ends on, and the
        number of worst-path cells the deviation keeps before them,
        which is the index at which its cells first differ."""
        walk = self.walks.get(pos)
        if walk is None:
            prefix, end = _greedy_chain(self.graph, alt, self.rejoin)
            walk = self.walks[pos] = prefix, end, self.rejoin.get(end, 0)
        return walk

    def names(self, pos, alt):
        """The deviation's cell names."""
        names = self.built.get(pos)
        if names is None:
            prefix, _, d = self.walk(pos, alt)
            cells = self.worst.cells
            names = self.built[pos] = (
                cells[:d] + tuple(map(self.graph._names.__getitem__, prefix))
                + cells[pos:])
        return names

    def order(self, pos, alt):
        """A key that sorts deviations as their cell sequences do.

        Sequences that first differ from the worst path's at index d
        hold the worst path's first d cells; of two that differ at
        different indexes, the one with the lower cell there sorts first
        below the worst path's cell and last above it.  Only sequences
        that share d and the cell there compare further, and only then
        are their names built."""
        prefix, _, d = self.walk(pos, alt)
        cell = self.graph._names[prefix[0] if prefix
                                 else self.worst.ids[pos]]
        rest = _Sequence(self, pos, alt)
        if cell < self.worst.cells[d]:
            return 0, d, cell, rest
        return 1, -d, cell, rest


class _Sequence:
    """A deviation's cell names, built when first compared."""

    __slots__ = ("search", "pos", "alt")

    def __init__(self, search, pos, alt):
        self.search, self.pos, self.alt = search, pos, alt

    def _names(self):
        return self.search.names(self.pos, self.alt)

    def __eq__(self, other):
        return self._names() == other._names()

    def __lt__(self, other):
        return self._names() < other._names()


def deviation_path(record) -> TimedPath:
    """The path of one :func:`endpoint_deviations` record."""
    delay, pos, alt, search = record
    prefix, end, d = search.walk(pos, alt)
    worst = search.worst
    start = worst.startpoint if d else search.graph._names[end]
    return TimedPath(search.names(pos, alt), delay, worst.endpoint, start,
                     worst.ids[:d] + tuple(prefix) + worst.ids[pos:])


def endpoint_deviations(graph: TimingGraph, endpoint_triple,
                        worst: TimedPath) -> list:
    """One-level deviation candidates off the worst path, as
    ``(delay, pos, alt, search)`` records sorted by descending realized
    delay (ties: lexicographic cell sequence); :func:`deviation_path`
    builds the path of one.

    Each candidate forbids exactly one edge of the worst path: at its
    ``pos``-th cell it enters through the greedy fan-in ``alt`` (a net
    id) among the other inputs, and before it runs the greedy chain.
    Arrivals are exact sums along greedy chains, so the realized delay
    is the worst path's with the taken edge's arrival traded for
    ``alt``'s.  A cell whose other inputs all carry the
    taken net has no other edge, and the candidate identical to the
    worst path is dropped, so no candidate is slower than the worst
    path.  A candidate's greedy walk is taken when it is read or to
    order it among candidates of equal delay, and its cell names are
    built when it is read or when that order needs them.
    """
    if not worst.ids:
        return []
    arrival, names = graph._arrival, graph._names
    active = graph._active
    search = _Deviations(graph, worst)
    out = []
    taken = search.start     # the edge the worst path takes into a cell
    for pos, c in enumerate(worst.ids):
        # -1 when every pin carries the taken net
        alt = _greedy_fanin(arrival, names, active[c], taken)
        # a candidate that rejoins the worst path enters one of its
        # cells from another cell, or starts on a later one: only one
        # that enters the first cell from another startpoint has the
        # worst path's cells
        if alt >= 0 and (pos or active[alt] is not None):
            out.append((worst.delay - arrival[taken] + arrival[alt], pos,
                        alt, search))
        taken = c
    # cell sequences are compared, and so walked, only on equal delays
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
    endpoints the worst wins, ties broken on the endpoint id.  No answer
    is slower than its endpoint's arrival (plus setup), so endpoints are
    searched in ``(-(arrival + extra), endpoint id)`` order, and the
    search stops once the best answer's ``(-delay, endpoint id)`` is no
    larger than that bound of the next endpoint.  The graph keeps each
    answer it found until :func:`update_timing` (which a splice calls,
    and through which any changed cell must pass) retimes a cell that
    reaches the endpoint, so the result depends only on the netlist and
    its arrivals, never on earlier searches.
    """
    candidates = graph._candidates
    arrival = graph._arrival
    bounds = sorted((-(arrival[net] + triple[2]), triple[0], triple)
                    for net, triple in zip(graph._endpoint_nets,
                                           graph._endpoints))
    found = None
    for bound, endpoint, triple in bounds:
        if found is not None and (-found.delay, found.endpoint) <= (bound,
                                                                    endpoint):
            break
        if endpoint not in candidates:
            candidates[endpoint] = _first_reconfigurable(graph, triple)
        path = candidates[endpoint]
        if path is not None and (found is None or (-path.delay, endpoint)
                                 < (-found.delay, found.endpoint)):
            found = path
    return found


def _first_reconfigurable(graph, triple):
    flags = graph._reconfigurable.__getitem__
    worst = endpoint_worst_path(graph, triple)
    if any(map(flags, worst.ids)):
        return worst
    # the worst path holds none, so a deviation holds one exactly when
    # its greedy walk off the worst path does
    for record in endpoint_deviations(graph, triple, worst):
        _, pos, alt, search = record
        if any(map(flags, search.walk(pos, alt)[0])):
            return deviation_path(record)
    return None
