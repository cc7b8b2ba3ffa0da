import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from easic import (
    ObfuscationConfig,
    blank_state,
    brute_force_key,
    composition_attack,
    corpus_union,
    correlate,
    fit_trendline,
    pattern_histogram,
    program,
    run_obfuscation,
    search_space_report,
    serialize,
)
from easic.attacks import (
    AttackError,
    CLASS_NONE,
    CLASS_SELF,
    HistogramEntry,
    PatternHistogram,
    SCOPE_RECONF,
    SCOPE_STATIC,
    SCOPE_WHOLE,
    _BATCH_LANES,
    histogram_from_json,
)
from easic.bitstream import Bitstream
from easic.netlist import MODE_ST, Cell, LutMask, _input_pattern
from easic.sim import Evaluator

from circuits import AND2, XOR2, lut, netlist, random_comb_netlist


def hist_from_pairs(name, pairs, scope=SCOPE_WHOLE):
    entries = tuple(
        HistogramEntry(i + 1, LutMask(6, bits).lifted(6), freq)
        for i, (bits, freq) in enumerate(pairs)
    )
    return PatternHistogram(name, scope, None, entries)


def test_histogram_counts_and_order():
    cells = [
        lut("u1", ("a", "b"), LutMask(2, 0x6)),
        lut("u2", ("a", "b"), LutMask(2, 0x6)),
        lut("u3", ("a", "b"), LutMask(2, 0x8)),
    ]
    nl = netlist("m", ["a", "b"], ["u1", "u2", "u3"], cells)
    hist = pattern_histogram(nl, SCOPE_WHOLE)
    assert [(e.ident, e.frequency) for e in hist.entries] == [(1, 2), (2, 1)]
    assert hist.entries[0].pattern == LutMask(2, 0x6).lifted(6)
    assert hist.total == 3


def test_histogram_tie_order_by_pattern_value():
    cells = [
        lut("u1", ("a", "b"), LutMask(2, 0x8)),
        lut("u2", ("a", "b"), LutMask(2, 0x6)),
    ]
    nl = netlist("m", ["a", "b"], ["u1", "u2"], cells)
    hist = pattern_histogram(nl, SCOPE_WHOLE)
    assert hist.entries[0].pattern.bits < hist.entries[1].pattern.bits


def test_lifting_equalizes_widths():
    # a 2-input XOR and the same function expressed as a 3-input LUT
    # with an ignored pin land on the same width-6 pattern
    narrow = LutMask(2, 0x6)
    padded = LutMask(3, 0x66)
    assert narrow.lifted(6) == padded.lifted(6)


def test_static_scope_needs_a_result(designs):
    with pytest.raises(AttackError, match="whole-design"):
        pattern_histogram(designs["cmp4"], SCOPE_STATIC)


def test_scopes_partition_the_design(designs, lib):
    nl = designs["adder8"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=60, library=lib))
    whole = pattern_histogram(res, SCOPE_WHOLE)
    static = pattern_histogram(res, SCOPE_STATIC)
    reconf = pattern_histogram(res, SCOPE_RECONF)
    assert whole.total == len(nl.luts())
    assert static.total == len(res.l_st)
    assert reconf.total == len(res.l_re)
    assert static.total + reconf.total == whole.total


def test_full_obfuscation_static_scope_empty(designs, lib):
    res = run_obfuscation(designs["cmp4"],
                          ObfuscationConfig(obf_percent=100, library=lib))
    assert pattern_histogram(res, SCOPE_STATIC).entries == ()


def test_histogram_json_roundtrip(designs):
    hist = pattern_histogram(designs["alu6"], SCOPE_WHOLE)
    again = histogram_from_json(hist.to_json_dict())
    assert again.entries == hist.entries
    assert again.design == hist.design


def test_corpus_union_basics(designs):
    h1 = pattern_histogram(designs["adder8"], SCOPE_WHOLE)
    single = corpus_union([h1])
    assert single.m == h1.unique_count

    twice = corpus_union([h1, h1])
    assert twice.m == single.m
    assert twice.settling[1][1] == 0


def test_corpus_union_monotone(designs):
    hists = [pattern_histogram(nl, SCOPE_WHOLE) for nl in designs.values()]
    union = corpus_union(hists)
    cumulative = [c for _, _, c in union.settling]
    assert cumulative == sorted(cumulative)
    assert union.m == cumulative[-1]


def test_settling_rate_decreases_on_corpus(designs):
    hists = [pattern_histogram(nl, SCOPE_WHOLE) for nl in designs.values()]
    union = corpus_union(hists)
    third = len(hists) // 3
    first = sum(n for _, n, _ in union.settling[:third]) / third
    last = sum(n for _, n, _ in union.settling[-third:]) / third
    assert first > last


def test_trendline_constant_and_linear():
    const = hist_from_pairs("c", [(5, 4), (9, 4), (12, 4)])
    fit = fit_trendline(const, 0)
    assert fit.max_abs_residual == pytest.approx(0.0, abs=1e-9)

    line = hist_from_pairs("l", [(3, 9), (5, 6), (7, 3)])
    fit = fit_trendline(line, 1)
    assert fit.max_abs_residual == pytest.approx(0.0, abs=1e-9)


def test_trendline_underdetermined():
    small = hist_from_pairs("s", [(3, 2), (5, 1)])
    with pytest.raises(AttackError, match="degree"):
        fit_trendline(small, 3)
    # three entries, but one identifier: no line through them is the best
    same = PatternHistogram("d", SCOPE_WHOLE, None, tuple(
        HistogramEntry(1, LutMask(6, bits), 2) for bits in (3, 5, 9)))
    with pytest.raises(AttackError, match="degree 1 to 1 entries"):
        fit_trendline(same, 1)


def test_trendline_outlier_residuals():
    # a heavy-tailed histogram with three big outliers: the best cubic
    # guess stays far from the original frequencies (gap above 100)
    pairs = [(100 + k, 3) for k in range(20)]
    pairs = [(1, 400), (2, 250), (3, 180)] + pairs
    hist = hist_from_pairs("r", pairs)
    fit = fit_trendline(hist, 3)
    assert fit.max_abs_residual > 100


@settings(max_examples=200, deadline=None)
@given(coefficients=st.lists(st.integers(-1000, 1000), min_size=1, max_size=4),
       extra=st.integers(0, 40))
def test_trendline_recovers_integer_polynomials(coefficients, extra):
    # frequencies of an integer polynomial at ranks 1..n: the exact fit
    # gives back its coefficients, with no residual at all
    degree = len(coefficients) - 1
    freqs = []
    for x in range(1, degree + extra + 2):
        y = 0
        for c in coefficients:
            y = y * x + c
        freqs.append(y)
    fit = fit_trendline(hist_from_pairs("p", list(enumerate(freqs))), degree)
    assert fit.coefficients == tuple(float(c) for c in coefficients)
    assert fit.max_abs_residual == 0.0


def test_trendline_matches_numpy_polyfit():
    rng = random.Random(16)
    for _ in range(300):
        n, degree = rng.randint(4, 60), rng.randint(0, 3)
        freqs = sorted((rng.randint(1, 500) for _ in range(n)), reverse=True)
        fit = fit_trendline(hist_from_pairs("r", list(enumerate(freqs))),
                            degree)
        x = np.arange(1, n + 1, dtype=float)
        y = np.array(freqs, dtype=float)
        coeffs = np.polyfit(x, y, degree)
        residual = float(np.max(np.abs(y - np.polyval(coeffs, x))))
        assert fit.degree == degree
        assert fit.coefficients == pytest.approx(tuple(coeffs), rel=1e-9)
        # n = 4 at degree 3 interpolates: exactly 0 here, ~1e-12 in numpy
        assert fit.max_abs_residual == pytest.approx(residual, rel=1e-9,
                                                     abs=1e-9)


def test_correlate_self_is_one(designs):
    hist = pattern_histogram(designs["adder8"], SCOPE_WHOLE)
    assert correlate(hist, hist) == pytest.approx(1.0, abs=1e-12)


def test_correlate_scale_invariance(designs):
    hist = pattern_histogram(designs["adder8"], SCOPE_WHOLE)
    doubled = PatternHistogram(
        hist.design, hist.scope, None,
        tuple(HistogramEntry(e.ident, e.pattern, e.frequency * 2)
              for e in hist.entries),
    )
    assert correlate(hist, doubled) == pytest.approx(1.0, abs=1e-12)


def test_correlate_symmetry(designs):
    a = pattern_histogram(designs["adder8"], SCOPE_WHOLE)
    b = pattern_histogram(designs["cmp4"], SCOPE_WHOLE)
    assert correlate(a, b) == pytest.approx(correlate(b, a), abs=1e-15)


def test_correlate_zero_variance_undefined():
    flat = hist_from_pairs("f", [(1, 3), (2, 3)])
    other = hist_from_pairs("o", [(1, 5), (2, 1)])
    assert correlate(flat, other) is None


def test_correlate_disjoint_negative_and_matches_scipy():
    a = hist_from_pairs("a", [(1, 5), (2, 3)])
    b = hist_from_pairs("b", [(7, 4), (9, 2)])
    r = correlate(a, b)
    xs = [5, 3, 0, 0]
    ys = [0, 0, 4, 2]
    expected = scipy_stats.pearsonr(xs, ys).statistic
    assert r < 0
    assert r == pytest.approx(expected, abs=1e-12)


def test_correlate_matches_scipy_on_random_histograms():
    rng = random.Random(19)
    for _ in range(30):
        a_pairs = [(rng.randrange(1 << 16), rng.randint(1, 9))
                   for _ in range(rng.randint(2, 12))]
        b_pairs = [(rng.randrange(1 << 16), rng.randint(1, 9))
                   for _ in range(rng.randint(2, 12))]
        a = hist_from_pairs("a", dict(a_pairs).items())
        b = hist_from_pairs("b", dict(b_pairs).items())
        r = correlate(a, b)
        union = sorted({e.pattern for e in a.entries}
                       | {e.pattern for e in b.entries},
                       key=lambda p: p.bits)
        fa, fb = a.as_dict(), b.as_dict()
        xs = [fa.get(p, 0) for p in union]
        ys = [fb.get(p, 0) for p in union]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            assert r is None
            continue
        expected = scipy_stats.pearsonr(xs, ys).statistic
        assert r == pytest.approx(expected, abs=1e-12)


def test_composition_attack_identity(designs, lib):
    corpus = [pattern_histogram(nl, SCOPE_WHOLE) for nl in designs.values()]
    res = run_obfuscation(designs["gray8"],
                          ObfuscationConfig(obf_percent=0, library=lib))
    victim = pattern_histogram(res, SCOPE_STATIC)
    report = composition_attack(victim, corpus)
    assert report.classification == CLASS_SELF
    assert report.matches[0] == ("gray8", pytest.approx(1.0, abs=1e-12))


def test_composition_attack_empty_victim(designs, lib):
    corpus = [pattern_histogram(nl, SCOPE_WHOLE) for nl in designs.values()]
    res = run_obfuscation(designs["gray8"],
                          ObfuscationConfig(obf_percent=100, library=lib))
    victim = pattern_histogram(res, SCOPE_STATIC)
    report = composition_attack(victim, corpus)
    assert report.classification == CLASS_NONE
    assert report.warning


def test_composition_attack_needs_corpus(designs):
    victim = pattern_histogram(designs["cmp4"], SCOPE_WHOLE)
    with pytest.raises(AttackError, match="corpus"):
        composition_attack(victim, [victim])


def test_composition_threshold_classification():
    victim = hist_from_pairs("v", [(1, 6), (2, 3)], scope=SCOPE_STATIC)
    near = hist_from_pairs("other", [(1, 5), (2, 4), (3, 1)])
    far = hist_from_pairs("far", [(9, 2), (11, 2), (1, 1)])
    report = composition_attack(victim, [near, far], threshold=0.999)
    assert report.classification == CLASS_NONE
    report = composition_attack(victim, [near, far], threshold=0.5)
    assert report.classification == "cross-correlation"
    assert report.matches[0][0] == "other"
    # a threshold no r can be compared with is refused
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(AttackError, match="finite"):
            composition_attack(victim, [near, far], threshold=threshold)


def test_search_space_report_chain(designs, lib):
    corpus_hists = [pattern_histogram(nl, SCOPE_WHOLE)
                    for nl in designs.values()]
    union = corpus_union(corpus_hists)
    nl = designs["adder8"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=50, library=lib))
    victim = pattern_histogram(res, SCOPE_STATIC)
    match = composition_attack(victim, corpus_hists)
    report = search_space_report(res, union, match)
    assert report.l1 == 1 << 64
    assert report.l2 == union.m
    assert report.l4 <= report.l3 <= report.l2 <= report.l1
    assert report.key_bits == serialize(res.netlist).total_len


def test_search_space_report_minimal(designs, lib):
    res = run_obfuscation(designs["cmp4"],
                          ObfuscationConfig(obf_percent=80, library=lib))
    report = search_space_report(res)
    assert report.l2 is None and report.l3 is None and report.l4 is None
    assert report.l1 == 1 << 64
    assert report.key_bits > 0


def test_brute_force_single_lut1():
    nl = netlist("t", ["a"], ["y"], [lut("y", ("a",), LutMask(1, 0x2))])
    result = brute_force_key(nl, nl, max_key_bits=4)
    assert result.key_bits == 2
    assert result.trials <= 4
    # the recovered key must program an equivalent device
    from easic import blank_state, program
    from easic.sim import check_equivalence

    state = program(blank_state(nl), result.recovered)
    assert check_equivalence(nl, state).equivalent


def test_brute_force_two_lut2s_within_bound():
    cells = [
        lut("u", ("a", "b"), LutMask(2, 0x6)),
        lut("y", ("u", "c"), LutMask(2, 0x8)),
    ]
    nl = netlist("t2", ["a", "b", "c"], ["y"], cells)
    result = brute_force_key(nl, nl, max_key_bits=8)
    assert result.key_bits == 8
    assert result.trials <= 256


def test_brute_force_refuses_large_keys(designs):
    with pytest.raises(AttackError, match="capped at 20"):
        brute_force_key(designs["adder8"], designs["adder8"], max_key_bits=20)


def test_brute_force_may_find_different_key():
    # both LUT pins see the same PI, so two minterms are unreachable and
    # several keys are functionally correct; enumeration finds a smaller
    # one than the shipped mask
    nl = netlist("dc", ["a"], ["y"], [lut("y", ("a", "a"), LutMask(2, 0xA))])
    result = brute_force_key(nl, nl, max_key_bits=4)
    assert not result.matches_original
    from easic import blank_state, program
    from easic.sim import check_equivalence

    state = program(blank_state(nl), result.recovered)
    assert check_equivalence(nl, state).equivalent


def brute_force_by_key(obfuscated, oracle):
    """(key, trials, matches_original) of the first key that makes the
    device match the oracle, programming and simulating one key at a
    time; None when no key does."""
    reference = serialize(obfuscated)
    count = 1 << len(oracle.inputs)
    stim = {net: _input_pattern(i, count) for i, net in enumerate(oracle.inputs)}
    want = Evaluator(oracle).eval_packed(stim, count)
    want = [want[net] for net in oracle.outputs]
    state = blank_state(obfuscated)
    for key in range(1 << reference.total_len):
        program(state, Bitstream(reference.design, reference.chain, key))
        got = Evaluator(state).eval_packed(stim, count)
        if [got[net] for net in obfuscated.outputs] == want:
            return key, key + 1, key == reference.key
    return None


def brute_force_outcome(obfuscated, oracle, max_key_bits=20):
    result = brute_force_key(obfuscated, oracle, max_key_bits=max_key_bits)
    assert result.key_bits == serialize(obfuscated).total_len
    return result.recovered.key, result.trials, result.matches_original


def test_brute_force_matches_key_by_key_search(lib):
    # seeded hybrids at several levels, until six of them match past the
    # first batch of keys
    rng = random.Random(23)
    checked = spanning = 0
    while checked < 24 or spanning < 6:
        golden = random_comb_netlist(rng, n_pis=rng.choice((1, 3, 5, 6, 6, 6, 6, 6)),
                                     n_cells=rng.randint(2, 6))
        level = rng.choice((0, 30, 50, 70, 100))
        hybrid = run_obfuscation(
            golden, ObfuscationConfig(obf_percent=level, library=lib)).netlist
        if serialize(hybrid).total_len > 13:
            continue
        checked += 1
        expected = brute_force_by_key(hybrid, golden)
        assert brute_force_outcome(hybrid, golden) == expected
        spanning += expected[0] >= _BATCH_LANES >> len(golden.inputs)


def lane_design(key):
    """Six PIs and two fully observable reconfigurable LUTs: the 12-bit
    ``key`` is the only one that matches."""
    return netlist("lanes", [f"i{k}" for k in range(6)], ["k0", "k1"], [
        lut("k0", ("i0", "i1", "i2"), LutMask(3, key & 0xFF)),
        lut("k1", ("i3", "i4"), LutMask(2, key >> 8)),
    ])


@pytest.mark.parametrize("lane", ["first-of-second", "last-of-first",
                                  "last-of-second"])
def test_brute_force_finds_keys_at_batch_edges(lane):
    batch = _BATCH_LANES >> 6   # keys per pass under 6 PIs
    key = {"first-of-second": batch, "last-of-first": batch - 1,
           "last-of-second": 2 * batch - 1}[lane]
    nl = lane_design(key)
    assert serialize(nl).key == key
    assert brute_force_outcome(nl, nl) == (key, key + 1, True)
    assert brute_force_by_key(nl, nl) == (key, key + 1, True)


def test_brute_force_without_primary_inputs():
    # one vector per key: the LUTs read tie cells only
    cells = [
        Cell("one", "TIE1", ()),
        Cell("zero", "TIE0", ()),
        lut("a", ("zero", "one"), LutMask(2, 0x4)),
        lut("b", ("a", "one", "a"), LutMask(3, 0xB5)),
    ]
    nl = netlist("nopi", [], ["a", "b"], cells)
    expected = brute_force_by_key(nl, nl)
    assert expected == (0x804, 0x805, False)
    assert brute_force_outcome(nl, nl) == expected


def test_brute_force_lut_reading_a_net_twice_across_batches():
    # the repeated pins leave minterms unreachable, so a smaller key than
    # the shipped 0xA96 matches, past the first batch under 6 PIs
    cells = [
        lut("p", ("i0", "i1", "i0"), LutMask(3, 0x96)),
        lut("q", ("i2", "i2"), LutMask(2, 0xA)),
        lut("y", ("i3", "i4", "i5"), LutMask(3, 0x6C), mode=MODE_ST),
    ]
    nl = netlist("twice", [f"i{k}" for k in range(6)], ["p", "q", "y"], cells)
    expected = brute_force_by_key(nl, nl)
    assert expected == (0x884, 0x885, False)
    assert expected[0] >= _BATCH_LANES >> 6
    assert brute_force_outcome(nl, nl) == expected


def test_brute_force_exhausts_an_inconsistent_pair():
    # the static AND is 0 whenever b is, so no key gives the oracle's XOR
    oracle = netlist("x", ["a", "b"], ["y"], [lut("y", ("a", "b"), XOR2)])
    device = netlist("x", ["a", "b"], ["y"], [
        lut("k", ("a",), LutMask(1, 0x2)),
        lut("y", ("k", "b"), AND2, mode=MODE_ST),
    ])
    assert brute_force_by_key(device, oracle) is None
    with pytest.raises(AttackError, match="exhausted the key space"):
        brute_force_key(device, oracle)


def test_brute_force_refuses_other_ports():
    # the same outputs in the other order, and one input more: the ports
    # are compared as check_equivalence compares them, before any key
    device = lane_design(0x5A3)
    swapped = lane_design(0x5A3)
    swapped.outputs.reverse()
    wider = lane_design(0x5A3)
    wider.inputs.append("i6")
    for oracle in (swapped, wider):
        with pytest.raises(AttackError, match="port mismatch"):
            brute_force_key(device, oracle)


def test_histogram_conservation_across_corpus(designs):
    for name, nl in designs.items():
        hist = pattern_histogram(nl, SCOPE_WHOLE)
        assert hist.total == len(nl.luts())
        assert all(e.frequency >= 1 for e in hist.entries)
        idents = [e.ident for e in hist.entries]
        assert idents == list(range(1, len(idents) + 1))
