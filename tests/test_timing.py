import random

from easic import (ObfuscationConfig, build_and_time, find_critical,
                   load_library, lut_support, report, run_obfuscation,
                   update_timing)
from easic.timing import (TimedPath, _first_reconfigurable, deviation_path,
                          endpoint_deviations, endpoint_worst_path)
from easic.netlist import MODE_ST, Cell, LutMask
from easic.obfuscate import _splice_network
from easic.staticgen import decompose_lut
from circuits import (BUF1, DelayTable, ff, lut, lut6_dag, netlist,
                      random_comb_netlist, random_mask, random_timing_dag)


def buf_chain(n):
    cells = [lut("g1", ("a",), BUF1)]
    for k in range(2, n + 1):
        cells.append(lut(f"g{k}", (f"g{k - 1}",), BUF1))
    return netlist("chain", ["a"], [f"g{n}"], cells)


def test_chain_arrivals(lib):
    nl = buf_chain(2)
    graph = build_and_time(nl, DelayTable(lib, {"g1": 1, "g2": 2}))
    assert graph.arrival["g2"] == 3


def test_direct_wire_zero_arrival(lib):
    nl = netlist("wire", ["a"], ["a"], [])
    graph = build_and_time(nl, lib)
    assert report(graph).cp == 0


def test_diamond_max_rule(lib):
    cells = [
        lut("p", ("a",), BUF1),
        lut("q", ("a",), BUF1),
        lut("y", ("p", "q"), LutMask(2, 0x8)),
    ]
    nl = netlist("diamond", ["a"], ["y"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"p": 3, "q": 2, "y": 1}))
    assert graph.arrival["y"] == 4


def test_report_cp_and_sum(lib):
    cells = [lut("x", ("a",), BUF1), lut("y", ("a",), BUF1)]
    nl = netlist("two", ["a"], ["x", "y"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"x": 3, "y": 2}))
    rep = report(graph)
    assert rep.cp == 3
    assert rep.sum_cp == 5

    single = buf_chain(3)
    graph = build_and_time(single, lib)
    rep = report(graph)
    assert rep.cp == rep.sum_cp


def test_report_no_endpoints_warns(lib):
    nl = netlist("none", ["a"], [], [])
    rep = report(build_and_time(nl, lib))
    assert rep.cp == 0 and rep.sum_cp == 0
    assert rep.warning


def test_ff_boundaries_add_clk2q_and_setup(lib):
    cells = [
        lut("d", ("q",), BUF1),
        ff("q", "d"),
    ]
    nl = netlist("loop", [], ["q"], cells, clock="clk")
    graph = build_and_time(nl, DelayTable(lib, {"d": 1}))
    rep = report(graph)
    clk2q = lib.cell_delay(nl.cells["q"])
    assert rep.cp == max(clk2q + 1 + lib.setup_q, clk2q)
    ids = [e.endpoint for e in rep.endpoints]
    assert "q/D" in ids and "q" in ids


def test_find_critical_picks_worst_then_excluded(lib):
    cells = [lut("x", ("a",), BUF1), lut("y", ("a",), BUF1)]
    nl = netlist("two", ["a"], ["x", "y"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"x": 3, "y": 2}))
    p1 = find_critical(graph)
    assert p1.cells == ("x",)
    assert p1.delay == 3
    # a path without a reconfigurable LUT is passed over; the graph
    # learns of a changed cell from update_timing
    nl.cells["x"].mode = MODE_ST
    update_timing(graph, "x")
    p2 = find_critical(graph)
    assert p2.cells == ("y",)
    nl.cells["y"].mode = MODE_ST
    update_timing(graph, "y")
    assert find_critical(graph) is None


def test_find_critical_endpoint_tie_rule(lib):
    cells = [lut("b", ("i",), BUF1), lut("a", ("i",), BUF1)]
    nl = netlist("tie", ["i"], ["b", "a"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"a": 3, "b": 3}))
    assert find_critical(graph).endpoint == "a"


def test_find_critical_searches_past_a_tied_bound(lib):
    # z arrives at 8 over static cells, and its answer is the deviation
    # through r at 6; a arrives at 6 through r, so its answer ties with
    # z's and wins on the endpoint id, though z is searched first
    cells = [
        lut("r", ("i",), BUF1),
        Cell("s", "BUF", ("i",)),
        Cell("z", "AND2", ("s", "r")),
        Cell("a", "BUF", ("r",)),
    ]
    nl = netlist("tie", ["i"], ["z", "a"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"r": 5, "s": 7, "z": 1,
                                                "a": 1}))
    found = find_critical(graph)
    assert (found.endpoint, found.cells, found.delay) == ("a", ("r", "a"), 6)


def test_find_critical_deviation_search(lib):
    # two startpoint branches into one endpoint: worst through p (5),
    # next-worst through q (4)
    cells = [
        lut("p", ("a",), BUF1),
        lut("q", ("a",), BUF1),
        lut("y", ("p", "q"), LutMask(2, 0x6)),
    ]
    nl = netlist("dev", ["a"], ["y"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"p": 5, "q": 4, "y": 1}))
    worst = find_critical(graph)
    assert worst.cells == ("p", "y")
    for name in worst.cells:
        nl.cells[name].mode = MODE_ST
    update_timing(graph, worst.cells)
    nxt = find_critical(graph)
    assert nxt.cells == ("q", "y")
    assert nxt.delay == 5


def arcs(cell):
    if cell.is_lut:
        return [cell.inputs[i] for i in sorted(lut_support(cell.mask))]
    return list(cell.inputs)


def rewalked_worst(graph, triple):
    """Test-side oracle: (cells, startpoint) of an endpoint's greedy
    worst path, each cell entered from its latest input, ties to the
    smallest net name."""
    _, net, _ = triple
    nl = graph.netlist
    arrival = graph.arrival
    cells = []
    while net in nl.cells and not nl.cells[net].is_ff:
        cell = nl.cells[net]
        cells.append(cell.name)
        if not arcs(cell):
            net = cell.name
            break
        net = min(arcs(cell), key=lambda n: (-arrival[n], n))
    return tuple(reversed(cells)), net


def rewalked_deviations(graph, lib, triple, worst):
    """Test-side oracle: each one-edge deviation off ``worst``, walked
    back from the endpoint with that edge forbidden and its delay summed
    cell by cell."""
    endpoint, net, extra = triple
    nl = graph.netlist
    arrival = graph.arrival
    found = {}
    for pos, name in enumerate(worst.cells):
        taken = worst.cells[pos - 1] if pos else worst.startpoint
        if len(arcs(nl.cells[name])) < 2 or taken not in arcs(nl.cells[name]):
            continue
        cells, cur = [], net
        while cur in nl.cells and not nl.cells[cur].is_ff:
            driver = cur
            cells.append(driver)
            options = [n for n in arcs(nl.cells[driver])
                       if not (driver == name and n == taken)]
            if not options:
                cur = None
                break
            cur = min(options, key=lambda n: (-arrival[n], n))
        if driver == name and cur is None:
            # every other pin carries the taken net: no other edge
            continue
        cells.reverse()
        start = cur if cur is not None else cells[0]
        if arcs(nl.cells[cells[0]]):
            delay = arrival[start] + lib.cell_delay(nl.cells[cells[0]])
        else:
            delay = 0
        for cell in cells[1:]:
            delay += lib.cell_delay(nl.cells[cell])
        if tuple(cells) != worst.cells:
            found.setdefault(tuple(cells), (delay + extra, start))
    return sorted(((-d, cells, start) for cells, (d, start) in found.items()))


def test_deviations_match_rewalked_oracle(lib):
    rng = random.Random(31)
    designs = [random_timing_dag(rng, max_cells=150, name=f"dev{trial}")
               for trial in range(12)]
    # LUT6 delays are all equal: many deviations tie on delay
    designs += [lut6_dag(rng, rng.randint(40, 80), name=f"lut6_{trial}")
                for trial in range(4)]
    graphs = []
    for nl in designs:
        graphs.append(build_and_time(nl, lib))
        res = run_obfuscation(nl, ObfuscationConfig(obf_percent=50, library=lib))
        graphs.append(res.graph)
    # a LUT with one net on both pins: no other edge is left to take
    graphs.append(build_and_time(netlist("dup", ["a"], ["y"], [
        lut("p", ("a",), BUF1), lut("y", ("p", "p"), LutMask(2, 0x6))]), lib))
    compared = 0
    ties = 0
    for graph in graphs:
        for triple in graph.endpoints():
            worst = endpoint_worst_path(graph, triple)
            records = endpoint_deviations(graph, triple, worst)
            assert all(r[0] <= worst.delay for r in records)
            paths = [deviation_path(record) for record in records]
            assert [p.delay for p in paths] == [r[0] for r in records]
            assert all(p.endpoint == triple[0] for p in paths)
            got = [(-p.delay, p.cells, p.startpoint) for p in paths]
            # descending delays; ties stay in path order, which the
            # oracle does not fix
            assert got == sorted(got, key=lambda t: t[0])
            got.sort()
            assert got == rewalked_deviations(graph, lib, triple, worst)
            compared += len(got)
            ties += sum(a[0] == b[0] for a, b in zip(got, got[1:]))
    assert compared > 1000
    assert ties > 300


def shuffled_lut6_dag(rng, n_luts, name):
    """LUT6s of equal delay whose names sort apart from their ids: the
    graph numbers the primary inputs as listed, here in reverse, then the
    cells as inserted, here shuffled, and the last LUT is named a0."""
    pis = [f"i{k}" for k in range(8)]
    nets = list(pis)
    cells = []
    for k in range(n_luts):
        cell = lut("a0" if k == n_luts - 1 else f"u{k}", rng.sample(nets, 6),
                   random_mask(rng, 6))
        cells.append(cell)
        nets.append(cell.name)
    rng.shuffle(cells)
    return netlist(name, pis[::-1], nets[-4:], cells)


def test_ids_never_decide_a_tie(lib):
    """Greedy ties go to the smallest net name, whatever the ids: on
    LUT6s whose names and ids disagree, and on the gates spliced in for
    them (x_sg10 sorts before x_sg9), the graph's paths equal a fresh
    build's and the test-side walks after every splice."""
    rng = random.Random(5)
    compared = 0
    for trial in range(3):
        nl = shuffled_lut6_dag(rng, rng.randint(30, 50), f"ids{trial}")
        graph = build_and_time(nl, lib)
        taken = nl.nets | set(nl.cells)
        order = rng.sample(sorted(nl.cells), len(nl.cells) // 2)
        for name in [None] + order:
            if name is not None:
                old = nl.cells[name]
                network = decompose_lut(old.mask, lib)
                graph.splice(old, _splice_network(nl, old, network, taken))
                fresh = build_and_time(nl, lib)
                assert report(graph) == report(fresh)
                assert find_critical(graph) == find_critical(fresh)
            for triple in graph.endpoints():
                worst = endpoint_worst_path(graph, triple)
                assert (worst.cells, worst.startpoint) == \
                    rewalked_worst(graph, triple)
                paths = [deviation_path(record) for record
                         in endpoint_deviations(graph, triple, worst)]
                got = [(-p.delay, p.cells, p.startpoint) for p in paths]
                assert got == sorted(got, key=lambda t: t[0])
                assert sorted(got) \
                    == rewalked_deviations(graph, lib, triple, worst)
                compared += len(paths)
    assert compared > 1000


def oracle_pick(graph, triple):
    """Test-side oracle: ((delay, cells, startpoint), tied) of the path
    an endpoint's search should pick, or (None, 0).  It is the rewalked
    worst path if that holds a reconfigurable LUT, and otherwise the
    first rewalked deviation in (-delay, cells) order that holds one;
    ``tied`` counts the deviations that hold one at the picked delay."""
    endpoint, net, extra = triple
    cells = graph.netlist.cells

    def holds(names):
        return any(cells[name].is_reconfigurable for name in names)

    path, start = rewalked_worst(graph, triple)
    worst = TimedPath(path, graph.arrival[net] + extra, endpoint, start)
    if holds(worst.cells):
        return (worst.delay, worst.cells, worst.startpoint), 1
    holders = [(-d, path, start) for d, path, start
               in rewalked_deviations(graph, graph.lib, triple, worst)
               if holds(path)]
    if not holders:
        return None, 0
    return holders[0], sum(h[0] == holders[0][0] for h in holders)


def unit_library():
    """Every gate 0.01 ns (a TIE 0) and a LUTn n times that: paths of
    equal depth tie, before and after their LUTs are converted."""
    gates = {kind: {"delay_ns": 0.0 if kind.startswith("TIE") else 0.01,
                    "area_um2": 1.0}
             for kind in ("INV", "BUF", "AND2", "OR2", "NAND2", "NOR2",
                          "MUX2", "TIE0", "TIE1")}
    luts = {str(w): {"delay_ns": 0.01 * w, "area_um2": 10.0 * w}
            for w in range(1, 7)}
    return load_library({"gates": gates, "luts": luts, "ff": {
        "clk2q_ns": 0.01, "setup_ns": 0.01, "area_um2": 5.0}})


def test_picks_match_the_oracle(designs, lib, monkeypatch):
    """Every search of the conversion loop, so after every splice: each
    endpoint's pick and find_critical's answer equal the oracle's, on
    LUT6 DAGs, the corpus and random DAGs, under the default library
    and one of unit gate delays, where deviations that hold a
    reconfigurable LUT often tie on delay."""
    import easic.obfuscate

    rng = random.Random(24)
    cases = [(lut6_dag(rng, rng.randint(30, 50), name=f"lut6_{k}"), level)
             for k in range(2) for level in (0, 50)]
    cases += [(shuffled_lut6_dag(rng, rng.randint(30, 50), f"ids{k}"), level)
              for k in range(2) for level in (0, 50)]
    cases += [(random_comb_netlist(rng, n_pis=8, n_cells=120,
                                   name=f"comb{k}"), 0) for k in range(6)]
    cases += [(designs[name], level) for name in ("cmp4", "counter8", "mux16")
              for level in (0, 45, 85)]
    dag = random_comb_netlist(random.Random(12), n_pis=8, n_cells=120,
                              name="dag120")
    cases += [(dag, 0), (dag, 60)]
    counts = {"searches": 0, "picks": 0, "tied": 0}

    def checked(graph):
        found = find_critical(graph)
        best = None
        for triple in graph.endpoints():
            want, tied = oracle_pick(graph, triple)
            path = _first_reconfigurable(graph, triple)
            assert (None if path is None
                    else (path.delay, path.cells, path.startpoint)) == want
            if want is not None:
                counts["picks"] += 1
                counts["tied"] += tied > 1
                if best is None or (-want[0], triple[0]) < best[0]:
                    best = (-want[0], triple[0]), want
        assert (None if found is None
                else (found.delay, found.cells, found.startpoint)) \
            == (best and best[1])
        counts["searches"] += 1
        return found

    monkeypatch.setattr(easic.obfuscate, "find_critical", checked)
    for library in (lib, unit_library()):
        for nl, level in cases:
            run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                  library=library))
    assert counts["searches"] > 300
    # picks that the cell order decides among holders of one delay
    assert counts["tied"] > 50


def test_update_timing_delay_change(lib):
    nl = buf_chain(3)
    delays = DelayTable(lib, {"g1": 1, "g2": 2, "g3": 0})
    graph = build_and_time(nl, delays)
    assert report(graph).cp == 3
    delays.table["g2"] = 1
    update_timing(graph, "g2")
    assert report(graph).cp == 2


def test_update_timing_empty_fanout(lib):
    cells = [lut("x", ("a",), BUF1), lut("y", ("a",), BUF1)]
    nl = netlist("two", ["a"], ["x", "y"], cells)
    delays = DelayTable(lib, {"x": 2, "y": 2})
    graph = build_and_time(nl, delays)
    before_y = graph.arrival["y"]
    delays.table["x"] = 1
    update_timing(graph, "x")
    assert graph.arrival["x"] == 1
    assert graph.arrival["y"] == before_y


def test_incremental_equals_full_on_random_dags(lib):
    rng = random.Random(101)
    for trial in range(25):
        nl = random_timing_dag(rng, max_cells=120, name=f"dag{trial}")
        overrides = {}
        graph = build_and_time(nl, DelayTable(lib, overrides))
        names = sorted(nl.cells)
        for _ in range(8):
            target = rng.choice(names)
            overrides[target] = rng.randint(0, 2 * lib.time_unit)
            update_timing(graph, target)
            fresh = build_and_time(nl, DelayTable(lib, dict(overrides)))
            assert graph.arrival == fresh.arrival


def test_cp_non_increasing_when_delay_drops(lib):
    rng = random.Random(55)
    for trial in range(10):
        nl = random_timing_dag(rng, max_cells=80, name=f"mono{trial}")
        delays = DelayTable(lib, {})
        graph = build_and_time(nl, delays)
        base_cp = graph.cp()
        target = rng.choice(sorted(nl.cells))
        cell = nl.cells[target]
        delays.table[target] = max(
            0, lib.cell_delay(cell) - rng.randint(0, lib.time_unit // 5))
        update_timing(graph, target)
        assert graph.cp() <= base_cp


def full_arc_arrivals(nl, lib):
    """Test-side oracle: arrivals with no support pruning."""
    arrivals = {net: 0 for net in nl.inputs}
    if nl.clock:
        arrivals.setdefault(nl.clock, 0)
    for cell in nl.cells.values():
        if cell.is_ff:
            arrivals[cell.name] = lib.cell_delay(cell)
    for cell in nl.topo_cells():
        if cell.is_ff:
            continue
        ins = cell.inputs
        base = max((arrivals[n] for n in ins), default=0)
        arrivals[cell.name] = base + lib.cell_delay(cell) if ins else 0
    return arrivals


def test_support_pruning_never_increases_cp(lib):
    rng = random.Random(77)
    for trial in range(20):
        nl = random_timing_dag(rng, max_cells=100, name=f"sp{trial}")
        graph = build_and_time(nl, lib)
        oracle = full_arc_arrivals(nl, lib)
        arrival = graph.arrival
        for _, net, extra in graph.endpoints():
            assert arrival.get(net, 0) <= oracle.get(net, 0)


def test_lut_support_examples():
    assert lut_support(LutMask(2, 0xA)) == {0}
    assert lut_support(LutMask(2, 0x0)) == set()
    assert lut_support(LutMask(2, 0x6)) == {0, 1}


def test_lut_support_matches_flip_oracle():
    rng = random.Random(13)
    for _ in range(100):
        mask = random_mask(rng, 6)
        expected = set()
        for i in range(6):
            for v in range(64):
                if (mask.bits >> v) & 1 != (mask.bits >> (v ^ (1 << i))) & 1:
                    expected.add(i)
                    break
        assert lut_support(mask) == expected


def test_support_free_lut_has_zero_arrival(lib):
    # a constant LUT with a connected pin contributes no timing arc
    cells = [
        lut("slow", ("a",), BUF1),
        lut("k", ("slow",), LutMask(1, 0x3)),
    ]
    nl = netlist("const", ["a"], ["k"], cells)
    graph = build_and_time(nl, DelayTable(lib, {"slow": 5}))
    assert graph.arrival["k"] == 0


def test_structural_update_matches_rebuild(lib):
    # a LUT swapped in place for a gate: the splice retimes like a rebuild
    nl = buf_chain(3)
    nl.add_cell(lut("h", ("g1",), BUF1))
    nl.outputs.append("h")
    graph = build_and_time(nl, lib)
    assert find_critical(graph).endpoint == "g3"
    old = nl.cells["g2"]
    nl.remove_cell("g2")
    nl.add_cell(Cell("g2", "INV", ("g1",)))
    graph.splice(old, ["g2"])
    fresh = build_and_time(nl, lib)
    assert graph.arrival == fresh.arrival
    assert find_critical(graph) == find_critical(fresh)


def replace_cells(nl, old, cells):
    """Take ``old`` out of ``nl`` and add ``cells`` (name, kind, inputs),
    each driving the net of its name, as a splice expects them."""
    nl.remove_cell(old.name)
    for name, kind, ins in cells:
        nl.add_cell(Cell(name, kind, ins))
    return [name for name, _, _ in cells]


def test_splices_in_place_match_a_rebuild(lib):
    # a 100-gate chain for one cell, then a cell in the middle of it and
    # the cell that drives the replaced LUT's net, each spliced over
    # again in place of a cell that was itself spliced in
    nl = buf_chain(3)
    nl.add_cell(lut("h", ("g2",), BUF1))
    nl.outputs.append("h")
    graph = build_and_time(nl, lib)
    chain = [f"g2_{k}" for k in range(99)] + ["g2"]
    steps = [("g2", [(name, "BUF", (chain[k - 1] if k else "g1",))
                     for k, name in enumerate(chain)]),
             ("g2_50", [("g2_50a", "INV", ("g2_49",)),
                        ("g2_50", "INV", ("g2_50a",))]),
             ("g2", [("g2a", "BUF", ("g2_98",)), ("g2b", "BUF", ("g2a",)),
                     ("g2", "BUF", ("g2b",))])]
    for name, cells in steps:
        old = nl.cells[name]
        graph.splice(old, replace_cells(nl, old, cells))
        fresh = build_and_time(nl, lib)
        assert report(graph) == report(fresh)
        assert graph.arrival == fresh.arrival
        assert find_critical(graph) == find_critical(fresh)
    assert len(report(graph).endpoints[0].cells) == 105


def test_report_json_schema(lib):
    nl = buf_chain(2)
    payload = report(build_and_time(nl, lib)).to_json_dict()
    assert set(payload) == {"cp_ns", "sum_cp_ns", "fmax_ghz", "endpoints"}
    assert payload["endpoints"][0].keys() == {"id", "arrival_ns", "worst_path"}
