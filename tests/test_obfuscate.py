import dataclasses
import json
import random

import pytest

from easic import (
    ObfuscationConfig,
    check_equivalence,
    emit_blif,
    gen_case_constraints,
    lut_support,
    report,
    run_obfuscation,
    static_target,
    sweep,
)
from easic.netlist import LutMask
from easic.obfuscate import (ObfuscationError, TraceMismatch,
                             result_from_json, sweep_to_csv)

from circuits import isomorphic, lut, netlist, random_comb_netlist, random_mask


def test_static_target_reproduces_sbm_rows():
    # 29-LUT design over the published五 levels converts 0/1/2/3/4 LUTs
    assert [static_target(29, p) for p in (98, 95, 92, 89, 86)] == [0, 1, 2, 3, 4]


def test_static_target_edges():
    assert static_target(0, 50) == 0
    assert static_target(10, 100) == 0
    assert static_target(10, 0) == 10
    assert static_target(3, 86.5) == 0
    with pytest.raises(ObfuscationError):
        static_target(-1, 50)


def test_config_validates_percent(lib):
    with pytest.raises(ObfuscationError):
        ObfuscationConfig(obf_percent=101, library=lib)
    with pytest.raises(ObfuscationError):
        ObfuscationConfig(obf_percent=-2, library=lib)


def test_full_obfuscation_is_identity(designs, lib):
    nl = designs["cmp4"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=100, library=lib))
    assert res.l_st == set()
    assert isomorphic(res.netlist, nl)
    assert res.trace == []


def test_zero_obfuscation_removes_all_luts(designs, lib):
    nl = designs["cmp4"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=lib))
    assert res.l_re == set()
    assert not res.netlist.luts()
    assert len(res.l_st) == len(nl.luts())


def test_three_lut_chain_converts_widest_first(lib):
    text_cells = [
        lut("m1", tuple(f"p{k}" for k in range(6)), LutMask(6, 2**64 - 2)),
        lut("m2", ("m1", "p0", "p1", "p2"), LutMask(4, 0x8000)),
        lut("y", ("m2", "p3"), LutMask(2, 0x8)),
    ]
    nl = netlist("chain3", [f"p{k}" for k in range(6)], ["y"], text_cells)
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=66, library=lib))
    assert res.l_st == {"m1"}
    assert res.trace[0].lut == "m1"
    assert res.trace[0].mask.width == 6


def test_partition_invariant(designs, lib):
    nl = designs["alu6"]
    total = len(nl.luts())
    for level in (0, 30, 60, 90, 100):
        res = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                    library=lib))
        assert res.l_st | res.l_re == {c.name for c in nl.luts()}
        assert not (res.l_st & res.l_re)
        assert len(res.l_st) == static_target(total, level)
        assert len(res.netlist.reconfigurable_luts()) == len(res.l_re)


def test_replacement_networks_preserve_function(designs, lib):
    nl = designs["cmp4"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=40, library=lib))
    rep = check_equivalence(nl, res.netlist)
    assert rep.equivalent


def test_fallback_converts_dangling_luts(lib):
    cells = [
        lut("y", ("a",), LutMask(1, 0x2)),
        lut("orphan", ("a", "b"), LutMask(2, 0x6)),
        lut("orphan2", ("orphan",), LutMask(1, 0x1)),
    ]
    nl = netlist("dangle", ["a", "b"], ["y"], cells)
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=lib))
    assert res.l_re == set()
    assert res.fallback_count >= 2
    fallback_luts = [t.lut for t in res.trace if t.fallback]
    # descending delay: the two-input orphan before the one-input one
    assert fallback_luts.index("orphan") < fallback_luts.index("orphan2")


def test_trace_records_cp_and_endpoint(designs, lib):
    res = run_obfuscation(designs["adder8"],
                          ObfuscationConfig(obf_percent=70, library=lib))
    assert res.trace
    for rec in res.trace:
        assert rec.cp_after <= rec.cp_before
        if not rec.fallback:
            assert rec.endpoint is not None


def test_determinism(designs, lib):
    nl = designs["crc8s"]
    cfg = ObfuscationConfig(obf_percent=55, library=lib)
    a = run_obfuscation(nl, cfg)
    b = run_obfuscation(nl, cfg)
    assert [t.lut for t in a.trace] == [t.lut for t in b.trace]
    assert "".join(emit_blif(a.netlist)) == "".join(emit_blif(b.netlist))


def test_trace_json_reads_back_every_conversion(designs, lib):
    # trace.json records every field of a conversion but the cell names
    for name, level in (("counter8", 50), ("alu6", 0), ("cmp4", 100)):
        res = run_obfuscation(designs[name],
                              ObfuscationConfig(obf_percent=level, library=lib))
        payload = json.loads(json.dumps(res.to_json_dict()))
        back = result_from_json(payload, res.netlist)
        assert back.trace == [dataclasses.replace(c, cells=())
                              for c in res.trace]
        assert back.l_re == res.l_re and back.l_st == res.l_st
        assert back.fallback_count == res.fallback_count
        assert back.to_json_dict() == payload


def test_trace_json_refuses_what_it_does_not_describe(designs, lib):
    res = run_obfuscation(designs["counter8"],
                          ObfuscationConfig(obf_percent=50, library=lib))
    payload = res.to_json_dict()
    twice = {**payload, "conversions": payload["conversions"] * 2}
    with pytest.raises(ValueError, match="listed twice"):
        result_from_json(twice, res.netlist)
    with pytest.raises(TraceMismatch, match="lut_re is 12"):
        result_from_json({**payload, "lut_re": 12}, res.netlist)
    with pytest.raises(TraceMismatch, match="still reconfigurable"):
        result_from_json(payload, designs["counter8"])


def test_engine_owns_a_copy(designs, lib):
    nl = designs["gray8"]
    before = "".join(emit_blif(nl))
    run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=lib))
    assert "".join(emit_blif(nl)) == before


def test_case_constraints_examples(lib):
    full = lut("f", ("a", "b"), LutMask(2, 0x6))
    half = lut("h", ("a", "b"), LutMask(2, 0xA))
    nl = netlist("cc", ["a", "b"], ["f", "h"], [full, half])
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=100, library=lib))
    entries = gen_case_constraints(res)
    assert entries == [{"lut_id": "h", "pin": "in1", "constant": 0}]


def test_case_constraints_match_flip_oracle(lib):
    rng = random.Random(41)
    cells = []
    pis = [f"i{k}" for k in range(6)]
    for k in range(12):
        cells.append(lut(f"u{k}", tuple(pis), random_mask(rng, 6)))
    nl = netlist("cc6", pis, [c.name for c in cells], cells)
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=100, library=lib))
    entries = gen_case_constraints(res)
    for cell in cells:
        expected = {f"in{p}" for p in range(6)} - {
            f"in{p}" for p in lut_support(cell.mask)
        }
        got = {e["pin"] for e in entries if e["lut_id"] == cell.name}
        assert got == expected


def test_sweep_rows_and_csv(designs, lib):
    rows = sweep(designs["sbm29"], [98, 95, 92, 89, 86], library=lib)
    assert [r["lut_st"] for r in rows] == [0, 1, 2, 3, 4]
    assert [r["lut_re"] for r in rows] == [29, 28, 27, 26, 25]
    csv_text = sweep_to_csv(rows)
    header, *lines = csv_text.strip().split("\n")
    assert header == "obf,sum_cp_ns,cp_ns,area_re_um2,area_st_um2,lut_re,lut_st"
    assert len(lines) == 5


def test_sweep_monotone_trends(designs, lib):
    levels = [100, 98, 95, 92, 89, 86]
    rows = sweep(designs["counter8"], levels, library=lib)
    for prev, cur in zip(rows, rows[1:]):
        assert cur["cp_ns"] <= prev["cp_ns"]
        assert cur["sum_cp_ns"] <= prev["sum_cp_ns"]
        assert cur["area_re_um2"] <= prev["area_re_um2"]
        assert cur["area_st_um2"] >= prev["area_st_um2"]


def test_sweep_level_100_has_no_conversion_area(designs, lib):
    row = sweep(designs["alu6"], [100], library=lib)[0]
    assert row["area_st_um2"] == 0.0
    assert row["lut_st"] == 0


def test_sweep_rejects_bad_levels(designs, lib):
    with pytest.raises(ObfuscationError):
        sweep(designs["alu6"], [50, 120], library=lib)


def reference_row(nl, level, lib):
    """A sweep row built the slow way: one obfuscation run of its own."""
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=level, library=lib))
    rep = report(res.graph)
    area = res.area_report()
    row = {
        "obf": level,
        "sum_cp_ns": rep.sum_cp / rep.unit,
        "cp_ns": rep.cp / rep.unit,
        "area_re_um2": area.area_re,
        "area_st_um2": area.area_st,
        "lut_re": len(res.l_re),
        "lut_st": len(res.l_st),
    }
    return row, res.trace


def test_sweep_matches_per_level_runs(designs, lib):
    # repeated and unsorted levels; each row must equal a separate run
    levels = [100, 37, 0, 86, 37, 50.5, 100, 12]
    cases = list(designs.values())
    cases.append(random_comb_netlist(random.Random(5), n_pis=8, n_cells=60,
                                     name="dag60"))
    for nl in cases:
        rows = sweep(nl, levels, library=lib)
        _, full_trace = reference_row(nl, 0, lib)
        for level, row in zip(levels, rows):
            expected, trace = reference_row(nl, level, lib)
            assert row == expected, (nl.name, level)
            assert trace == full_trace[:len(trace)], (nl.name, level)


def test_area_report(designs, lib):
    nl = designs["majvote9"]
    res100 = run_obfuscation(nl, ObfuscationConfig(obf_percent=100, library=lib))
    area100 = res100.area_report()
    assert area100.area_st == 0.0
    assert area100.area_re > 0

    res0 = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=lib))
    area0 = res0.area_report()
    assert area0.area_re == 0.0
    assert area0.area_st > 0


def test_empty_netlist(lib):
    nl = netlist("empty", ["a"], ["a"], [])
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=50, library=lib))
    assert res.l_st == set() and res.l_re == set()


def test_candidate_cache_matches_stateless_search(designs, lib, monkeypatch):
    # the timing graph keeps each endpoint's candidate across searches
    # until a splice reaches it; the conversion sequence must equal that
    # of an engine whose every search starts from none
    import easic.obfuscate
    from easic.timing import find_critical

    cases = [(designs[name], level) for name in ("cmp4", "counter8", "mux16")
             for level in (0, 45, 85)]
    # large fan-out cones: most splices reach several endpoints, some not all
    dag = random_comb_netlist(random.Random(12), n_pis=8, n_cells=120,
                              name="dag120")
    cases += [(dag, 0), (dag, 60)]

    def runs():
        return [run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                      library=lib))
                for nl, level in cases]

    shared = runs()

    def stateless(graph):
        graph._candidates.clear()
        return find_critical(graph)

    monkeypatch.setattr(easic.obfuscate, "find_critical", stateless)
    for fast, slow in zip(shared, runs()):
        assert fast.trace == slow.trace
        assert fast.fallback_count == slow.fallback_count
