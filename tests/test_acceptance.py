"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here and nowhere else: trend checks
are exact (tolerance 0), and so are the correlation-trend checks and
the Pearson identities: r is the exact value, rounded once.
"""

import json
import random
import time

import pytest

from easic import (
    EquivalencePolicy,
    ObfuscationConfig,
    blank_state,
    brute_force_key,
    build_and_time,
    check_equivalence,
    composition_attack,
    correlate,
    corpus_union,
    decompose_lut,
    lut_support,
    parse_blif,
    pattern_histogram,
    program,
    read_bitstream,
    run_obfuscation,
    serialize,
    static_target,
    sweep,
    update_timing,
)
from easic.attacks import CLASS_NONE, SCOPE_STATIC, SCOPE_WHOLE, HistogramEntry, PatternHistogram
from easic.bitstream import Bitstream, write_bitstream
from easic.cli import main as cli_main
from easic.netlist import LutMask

from circuits import DelayTable, random_mask, random_timing_dag

EQUIV_LEVELS = (0, 25, 50, 75, 86, 92, 100)
TREND_LEVELS = (100, 98, 95, 92, 89, 86)


def announce(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {status}: {text}")
    assert ok, f"criterion {number}: {text}"


def obfuscate_cached(designs, lib, cache={}):
    """All (design, level) obfuscation results used by several criteria."""
    if cache:
        return cache
    for name, nl in designs.items():
        for level in sorted(set(EQUIV_LEVELS) | set(TREND_LEVELS)
                            | {65, 70, 80, 85, 90, 95, 98}):
            cfg = ObfuscationConfig(obf_percent=level, library=lib)
            cache[(name, level)] = run_obfuscation(nl, cfg)
    return cache


def test_criterion_1_equivalence_suite(designs, lib):
    started = time.monotonic()
    results = obfuscate_cached(designs, lib)
    sequential = sum(1 for nl in designs.values() if nl.is_sequential)
    mismatches = []
    for name, nl in designs.items():
        for level in EQUIV_LEVELS:
            res = results[(name, level)]
            state = program(blank_state(res.netlist), serialize(res.netlist))
            rep = check_equivalence(
                nl, state,
                EquivalencePolicy(seed=1, n_vectors=10000, n_cycles=1000),
            )
            if not rep.equivalent:
                mismatches.append((name, level, rep.counterexample))
    elapsed = time.monotonic() - started
    announce(
        1,
        len(designs) >= 6 and sequential >= 2 and not mismatches
        and elapsed < 600,
        f"{len(designs)} designs ({sequential} sequential) x "
        f"{len(EQUIV_LEVELS)} levels, {len(mismatches)} mismatches, "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_2_decomposition_oracle(lib):
    started = time.monotonic()
    checked = 0
    failures = 0
    for width in (1, 2, 3, 4):
        for bits in range(1 << (1 << width)):
            net = decompose_lut(LutMask(width, bits), lib)
            if net.eval_table() != bits:
                failures += 1
            checked += 1
    rng = random.Random(2024)
    for width in (5, 6):
        for _ in range(10000):
            mask = random_mask(rng, width)
            net = decompose_lut(mask, lib)
            if net.eval_table() != mask.bits:
                failures += 1
            checked += 1
    elapsed = time.monotonic() - started
    announce(
        2,
        failures == 0 and checked == 65812 + 20000 and elapsed < 300,
        f"{checked} masks decomposed and verified exhaustively, "
        f"{failures} failures, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_3_static_target_rounding():
    got = [static_target(29, p) for p in (98, 95, 92, 89, 86)]
    announce(3, got == [0, 1, 2, 3, 4],
             f"static_target(29, 98/95/92/89/86) = {got}, expected [0,1,2,3,4]")


def test_criterion_4_monotonic_trends(designs, lib):
    violations = []
    for name, nl in designs.items():
        rows = sweep(nl, list(TREND_LEVELS), library=lib)
        for prev, cur in zip(rows, rows[1:]):
            if cur["cp_ns"] > prev["cp_ns"]:
                violations.append((name, "cp", prev["obf"], cur["obf"]))
            if cur["sum_cp_ns"] > prev["sum_cp_ns"]:
                violations.append((name, "sum_cp", prev["obf"], cur["obf"]))
            if cur["area_re_um2"] > prev["area_re_um2"]:
                violations.append((name, "area_re", prev["obf"], cur["obf"]))
            if cur["area_st_um2"] < prev["area_st_um2"]:
                violations.append((name, "area_st", prev["obf"], cur["obf"]))
    announce(
        4,
        not violations,
        f"cp/sumCP non-increasing, area_re down / area_st up across "
        f"{len(designs)} designs x {list(TREND_LEVELS)} (exact): "
        f"{violations or 'no violations'}",
    )


def test_criterion_5_bitstream_roundtrip_and_flip(designs, lib, tmp_path):
    results = obfuscate_cached(designs, lib)
    bad = []
    for name in designs:
        for level in EQUIV_LEVELS:
            res = results[(name, level)]
            stream = serialize(res.netlist)
            state = program(blank_state(res.netlist), stream)
            expected = {c.name: c.mask.bits
                        for c in res.netlist.chain_order()}
            if state.configs() != expected:
                bad.append((name, level))

    # flip experiment through the CLI: pick a first-level LUT, flip the
    # output bit for a support-axis minterm, expect exit 5
    from conftest import DESIGNS_DIR

    run_dir = tmp_path / "flip_run"
    code = cli_main(["obfuscate", "--input",
                     str(DESIGNS_DIR / "adder8.blif"),
                     "--obf", "75", "--out", str(run_dir)])
    assert code == 0
    netlist = parse_blif((run_dir / "easic.blif").read_text())
    stream = read_bitstream(run_dir / "easic.ebs")
    pis = set(netlist.inputs)
    flip_at = None
    for entry in stream.offsets():
        cell = netlist.cells[entry["lut"]]
        if set(cell.inputs) <= pis:
            support = sorted(lut_support(cell.mask))
            flip_at = entry["offset"] + (1 << support[0])
            break
    write_bitstream(Bitstream(stream.design, stream.chain,
                              stream.key ^ 1 << flip_at),
                    run_dir / "easic.ebs")
    verify_code = cli_main(["verify", "--golden",
                            str(DESIGNS_DIR / "adder8.blif"),
                            "--easic", str(run_dir),
                            "--out", str(tmp_path / "v")])
    announce(
        5,
        not bad and verify_code == 5,
        f"readback exact on {len(designs)}x{len(EQUIV_LEVELS)} runs "
        f"({bad or 'all exact'}); flipped support bit -> verify exit "
        f"{verify_code} (want 5)",
    )


def test_criterion_6_incremental_timing_oracle(lib):
    rng = random.Random(777)
    updates = 0
    mismatches = 0
    while updates < 1000:
        nl = random_timing_dag(rng, max_cells=500, name=f"acc6_{updates}")
        overrides = {}
        graph = build_and_time(nl, DelayTable(lib, overrides))
        names = sorted(nl.cells)
        for _ in range(min(40, 1000 - updates)):
            target = rng.choice(names)
            overrides[target] = rng.randint(0, 2 * lib.time_unit)
            update_timing(graph, target)
            fresh = build_and_time(nl, DelayTable(lib, dict(overrides)))
            if graph.arrival != fresh.arrival:
                mismatches += 1
            updates += 1
    announce(
        6,
        mismatches == 0,
        f"{updates} random single-cell updates on random DAGs match full "
        f"recomputation exactly ({mismatches} mismatches)",
    )


def test_criterion_7_composition_regions(designs, lib):
    results = obfuscate_cached(designs, lib)
    corpus = [pattern_histogram(nl, SCOPE_WHOLE) for nl in designs.values()]
    levels = [0, 25, 50, 65, 70, 75, 80, 85, 90, 95, 98, 100]
    top1_failures = []
    at_100_failures = []
    trend_failures = []
    for name, nl in designs.items():
        total = len(nl.luts())
        prev_r = None
        for level in levels:
            res = results[(name, level)]
            victim = pattern_histogram(res, SCOPE_STATIC)
            if level == 100:
                report = composition_attack(victim, corpus)
                if report.classification != CLASS_NONE:
                    at_100_failures.append(name)
                continue
            if not victim.entries:
                continue
            report = composition_attack(victim, corpus)
            share = len(res.l_st) / total
            top = report.matches[0][0] if report.matches else None
            if share >= 0.30 and top != name:
                top1_failures.append((name, level))
            self_r = dict(report.matches).get(name)
            if level >= 70 and self_r is not None:
                if prev_r is not None and self_r > prev_r:
                    trend_failures.append((name, level, prev_r, self_r))
                prev_r = self_r
    announce(
        7,
        len(corpus) >= 10 and not top1_failures and not at_100_failures
        and not trend_failures,
        f"corpus of {len(corpus)}: top-1 self-match at static share >= 30% "
        f"({top1_failures or 'ok'}); 100% -> no-correlation "
        f"({at_100_failures or 'ok'}); self-r non-increasing over 70..100 "
        f"({trend_failures or 'ok'})",
    )


def test_criterion_8_structural_statistics(designs):
    hists = [pattern_histogram(nl, SCOPE_WHOLE) for nl in designs.values()]
    union = corpus_union(hists)
    third = len(hists) // 3
    first_rate = sum(n for _, n, _ in union.settling[:third]) / third
    last_rate = sum(n for _, n, _ in union.settling[-third:]) / third

    base = hists[1]
    scaled = PatternHistogram(
        base.design, base.scope, None,
        tuple(HistogramEntry(e.ident, e.pattern, e.frequency * 7)
              for e in base.entries),
    )
    pearson_ok = (
        correlate(base, base) == 1.0
        and correlate(base, scaled) == 1.0
        and correlate(base, hists[2]) == correlate(hists[2], base)
    )
    announce(
        8,
        len(hists) >= 10 and first_rate > last_rate and pearson_ok,
        f"settling rate {first_rate:.2f} -> {last_rate:.2f} strictly "
        f"decreasing over {len(hists)} designs; Pearson identities hold "
        f"exactly",
    )


def test_criterion_9_brute_force_key(tmp_path):
    toy = (
        ".model toy16\n"
        ".inputs a b c\n"
        ".outputs y\n"
        ".names a b c u\n"
        "100 1\n010 1\n001 1\n111 1\n"
        ".names a b c v\n"
        "11- 1\n1-1 1\n-11 1\n"
        "# @static AND2\n"
        ".names u v y\n"
        "11 1\n"
        ".end\n"
    )
    nl = parse_blif(toy)
    started = time.monotonic()
    result = brute_force_key(nl, nl, max_key_bits=16)
    elapsed = time.monotonic() - started
    state = program(blank_state(nl), result.recovered)
    equivalent = check_equivalence(nl, state).equivalent
    announce(
        9,
        result.key_bits == 16 and equivalent and elapsed < 60,
        f"16-bit key recovered in {result.trials} trials, {elapsed:.1f}s "
        f"(< 60s), programmed device equivalent: {equivalent}",
    )


def test_criterion_10_deterministic_manifests(tmp_path):
    from conftest import DESIGNS_DIR

    manifests = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        code = cli_main(["obfuscate", "--input",
                         str(DESIGNS_DIR / "crc8s.blif"),
                         "--obf", "86", "--seed", "7",
                         "--out", str(out)])
        assert code == 0
        manifests.append((out / "manifest.json").read_bytes())
    identical = manifests[0] == manifests[1]
    payload = json.loads(manifests[0])
    announce(
        10,
        identical and payload["outputs"],
        f"two cmd_obfuscate runs produced byte-identical manifests "
        f"({len(payload['outputs'])} hashed artifacts)",
    )
