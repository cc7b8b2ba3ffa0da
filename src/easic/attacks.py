"""Adversary-side analyses of hybrid designs.

Two analyses work from masking-pattern statistics: the structural
attack tracks <pattern, frequency> tuples (per design and pooled over a
corpus) to bound the key search space, and the composition attack
correlates a victim's exposed static portion against a database of
known designs to guess the circuit's intent.  A small brute-force
key-recovery oracle rounds out the picture for desk-scale designs; it
scores a batch of candidate keys in one bit-parallel pass, with the
key bits carried in the lanes, instead of reprogramming the device once
per key.

All histograms are lifted to the width-6 pattern space (masks of
narrower LUTs are replicated over the ignored inputs) so designs with
mixed LUT sizes are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from . import bitstream as bs
from .netlist import LutMask, Netlist, _input_pattern
from .obfuscate import ObfuscationResult
from .sim import Evaluator, _lut_bits, _ports_match, eval_cells, mux_tree

PATTERN_WIDTH = 6

# brute force scores about this many (key, input vector) lanes per pass
_BATCH_LANES = 1 << 14

SCOPE_WHOLE = "whole-design"
SCOPE_STATIC = "static-portion"
SCOPE_RECONF = "reconfigurable-portion"


class AttackError(Exception):
    pass


@dataclass(frozen=True)
class HistogramEntry:
    ident: int
    pattern: LutMask
    frequency: int


@dataclass
class PatternHistogram:
    design: str
    scope: str
    obf_percent: float | None
    entries: tuple  # HistogramEntry, descending frequency

    @property
    def total(self):
        return sum(e.frequency for e in self.entries)

    @property
    def unique_count(self):
        return len(self.entries)

    def as_dict(self):
        return {e.pattern: e.frequency for e in self.entries}

    def to_json_dict(self):
        return {
            "design": self.design,
            "scope": self.scope,
            "obf_percent": self.obf_percent,
            "lifted_to_width": PATTERN_WIDTH,
            "entries": [
                [e.ident, f"0x{e.pattern.bits:016x}", e.frequency]
                for e in self.entries
            ],
        }


def histogram_from_json(payload) -> PatternHistogram:
    """The histogram of a :meth:`PatternHistogram.to_json_dict` payload,
    whose patterns are lifted to ``PATTERN_WIDTH`` inputs: patterns of
    another width would be compared with the wrong ones."""
    rows = payload["entries"]
    width = payload.get("lifted_to_width", PATTERN_WIDTH)
    if width != PATTERN_WIDTH:
        raise ValueError(f"lifted_to_width is {width!r}, not {PATTERN_WIDTH}")
    entries = tuple(
        HistogramEntry(ident, LutMask(PATTERN_WIDTH, int(pattern, 16)), freq)
        for ident, pattern, freq in rows
    )
    return PatternHistogram(
        design=payload["design"],
        scope=payload["scope"],
        obf_percent=payload.get("obf_percent"),
        entries=entries,
    )


def _build_histogram(masks, design, scope, obf_percent=None) -> PatternHistogram:
    counts = {}
    for mask in masks:
        lifted = mask.lifted(PATTERN_WIDTH)
        counts[lifted] = counts.get(lifted, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].bits))
    entries = tuple(
        HistogramEntry(i + 1, pattern, freq)
        for i, (pattern, freq) in enumerate(ordered)
    )
    return PatternHistogram(design, scope, obf_percent, entries)


def pattern_histogram(source, scope=SCOPE_WHOLE) -> PatternHistogram:
    """<pattern, frequency> statistics for one design.

    ``source`` is a plain netlist (whole-design view) or an obfuscation
    result, whose trace of converted masks feeds the static-portion
    view; the adversary is granted perfect LUT reconstruction of static
    logic.
    """
    if isinstance(source, ObfuscationResult):
        name = source.netlist.name
        level = float(source.config.obf_percent)
        if scope == SCOPE_WHOLE:
            masks = [c.mask for c in source.trace]
            masks += [source.netlist.cells[n].mask for n in source.l_re]
        elif scope == SCOPE_STATIC:
            masks = [c.mask for c in source.trace]
        elif scope == SCOPE_RECONF:
            masks = [source.netlist.cells[n].mask for n in source.l_re]
        else:
            raise AttackError(f"unknown scope {scope}")
        return _build_histogram(masks, name, scope, level)
    if isinstance(source, Netlist):
        if scope != SCOPE_WHOLE:
            raise AttackError(
                f"scope {scope} needs a conversion trace; a bare netlist "
                "only supports the whole-design scope"
            )
        masks = [c.mask for c in source.luts()]
        return _build_histogram(masks, source.name, scope)
    raise AttackError(f"cannot build a histogram from {type(source).__name__}")


@dataclass
class UniquePatternSet:
    patterns: set
    contributing: list
    settling: list  # (design, new_patterns, cumulative_m) per addition

    @property
    def m(self):
        return len(self.patterns)


def corpus_union(histograms) -> UniquePatternSet:
    """Running union of unique patterns; the settling curve records how
    many new patterns each added design contributes."""
    histograms = list(histograms)
    if not histograms:
        raise AttackError("corpus_union needs at least one design")
    patterns = set()
    settling = []
    contributing = []
    for hist in histograms:
        fresh = {e.pattern for e in hist.entries} - patterns
        patterns |= fresh
        contributing.append(hist.design)
        settling.append((hist.design, len(fresh), len(patterns)))
    return UniquePatternSet(patterns, contributing, settling)


@dataclass
class TrendlineFit:
    degree: int
    coefficients: tuple   # highest power first
    max_abs_residual: float


def fit_trendline(histogram: PatternHistogram, degree: int) -> TrendlineFit:
    """Least-squares polynomial over (identifier, frequency) pairs.

    Identifiers and frequencies are ints, so the normal equations are
    solved exactly: fraction-free (Bareiss) elimination keeps every
    entry an int, and back-substitution over the common denominator
    ``det`` gives each coefficient as ``num / det``, rounded once.  The
    residuals ``(y * det - N(x)) / det``, with ``N = det * p`` the
    fitted polynomial scaled to ints, are exact too.
    """
    if degree < 0:
        raise AttackError(f"trendline degree must be >= 0, not {degree}")
    xs = [e.ident for e in histogram.entries]
    ys = [e.frequency for e in histogram.entries]
    # fewer distinct identifiers than unknowns leave the fit undetermined
    distinct = len(set(xs))
    if distinct < degree + 1:
        raise AttackError(f"cannot fit degree {degree} to {distinct} entries")
    n = degree + 1
    moments, rhs = [], []         # sum x^k for k < 2n - 1, sum x^k y for k < n
    power = [1] * len(xs)
    for k in range(2 * n - 1):
        moments.append(sum(power))
        if k < n:
            rhs.append(sum(map(mul, power, ys)))
        power = list(map(mul, power, xs))
    # row i: sum_j moments[i + j] * a_j = rhs[i], a_j the x^j coefficient
    rows = [moments[i:i + n] + [rhs[i]] for i in range(n)]
    # the moment matrix is positive definite on >= n distinct identifiers,
    # so every leading minor, and so every Bareiss pivot, is > 0
    prev = 1
    for k in range(n - 1):
        top = rows[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            rows[i] = [0] * (k + 1) + [
                (pivot * row[j] - lead * top[j]) // prev
                for j in range(k + 1, n + 1)
            ]
        prev = pivot
    det = rows[-1][-2]
    nums = [0] * n                # nums[j] = det * a_j, an int by Cramer
    for i in reversed(range(n)):
        acc = det * rows[i][n] - sum(rows[i][j] * nums[j]
                                     for j in range(i + 1, n))
        nums[i] = acc // rows[i][i]
    values = [nums[-1]] * len(xs)  # N(x), by Horner
    for num in reversed(nums[:-1]):
        values = [v * x + num for v, x in zip(values, xs)]
    worst = max(abs(y * det - v) for y, v in zip(ys, values))
    return TrendlineFit(
        degree=degree,
        coefficients=tuple(num / det for num in reversed(nums)),
        max_abs_residual=worst / det,
    )


def correlate(a: PatternHistogram, b: PatternHistogram):
    """Pearson correlation over frequency vectors aligned on the union
    of patterns (absent patterns count as 0).  Returns None when either
    aligned vector has zero variance."""
    if not a.entries or not b.entries:
        raise AttackError("cannot correlate an empty histogram")
    fa = a.as_dict()
    fb = b.as_dict()
    union = sorted(set(fa) | set(fb), key=lambda p: p.bits)
    xs = [float(fa.get(p, 0)) for p in union]
    ys = [float(fb.get(p, 0)) for p in union]
    n = len(union)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


CLASS_NONE = "no-correlation"
CLASS_SELF = "self-correlation"
CLASS_CROSS = "cross-correlation"

DEFAULT_THRESHOLD = 0.75


@dataclass
class CorrelationReport:
    victim: str
    obf_percent: float | None
    threshold: float
    matches: list            # (design, r) descending r
    classification: str
    warning: str = ""
    top_histogram: PatternHistogram | None = field(repr=False, default=None)

    def to_json_dict(self):
        return {
            "victim": self.victim,
            "obf_percent": self.obf_percent,
            "threshold": self.threshold,
            "method": "pearson, zero-filled union alignment",
            "matches": [[d, r] for d, r in self.matches],
            "classification": self.classification,
            "warning": self.warning,
        }


def composition_attack(victim: PatternHistogram, corpus,
                       threshold=DEFAULT_THRESHOLD) -> CorrelationReport:
    """Correlate a victim's static-portion histogram against a corpus of
    whole-design histograms and classify the leak.

    no-correlation: nothing reaches the threshold (or the static portion
    is empty); self-correlation: the top match is the victim's own
    design; cross-correlation: some other design matches best.  The
    threshold must be finite.
    """
    if not math.isfinite(threshold):
        raise AttackError(f"threshold must be a finite number, not {threshold}")
    corpus = list(corpus)
    if len(corpus) < 2:
        raise AttackError("composition attack needs a corpus of >= 2 designs")
    if not victim.entries:
        return CorrelationReport(
            victim=victim.design,
            obf_percent=victim.obf_percent,
            threshold=threshold,
            matches=[],
            classification=CLASS_NONE,
            warning="victim static portion is empty; nothing to correlate",
        )
    scored = []
    by_name = {}
    for hist in corpus:
        r = correlate(victim, hist)
        if r is None:
            continue
        scored.append((hist.design, r))
        by_name[hist.design] = hist
    scored.sort(key=lambda t: (-t[1], t[0]))
    if not scored or scored[0][1] < threshold:
        classification = CLASS_NONE
    elif scored[0][0] == victim.design:
        classification = CLASS_SELF
    else:
        classification = CLASS_CROSS
    top_hist = by_name.get(scored[0][0]) if scored else None
    return CorrelationReport(
        victim=victim.design,
        obf_percent=victim.obf_percent,
        threshold=threshold,
        matches=scored,
        classification=classification,
        top_histogram=top_hist,
    )


@dataclass
class SearchSpaceReport:
    """Per-LUT candidate-set sizes as the attacks bite, plus the raw key
    length.  l1: naive 2^64; l2: corpus-wide unique patterns; l3: unique
    patterns of the matched design; l4: l3 minus patterns fully consumed
    by the static portion."""

    key_bits: int
    l1: int
    l2: int | None = None
    l3: int | None = None
    l4: int | None = None

    def __post_init__(self):
        chain = [v for v in (self.l4, self.l3, self.l2, self.l1) if v is not None]
        for small, big in zip(chain, chain[1:]):
            if small > big:
                raise AttackError(
                    f"search-space chain violated: {chain} must be "
                    "non-decreasing"
                )

    def to_json_dict(self):
        return {
            "key_bits": self.key_bits,
            "l1_per_lut": self.l1,
            "l2_per_lut": self.l2,
            "l3_per_lut": self.l3,
            "l4_per_lut": self.l4,
        }


def search_space_report(result: ObfuscationResult,
                        corpus: UniquePatternSet | None = None,
                        match: CorrelationReport | None = None) -> SearchSpaceReport:
    key_bits = bs.serialize(result.netlist).total_len
    l1 = 1 << 64
    l2 = corpus.m if corpus is not None else None
    l3 = None
    l4 = None
    if match is not None and match.top_histogram is not None:
        matched = match.top_histogram
        l3 = matched.unique_count
        static_hist = pattern_histogram(result, SCOPE_STATIC)
        consumed = static_hist.as_dict()
        l4 = sum(
            1 for e in matched.entries
            if e.frequency - consumed.get(e.pattern, 0) > 0
        )
        if l2 is not None:
            l3 = min(l3, l2)
            l4 = min(l4, l3)
    return SearchSpaceReport(key_bits=key_bits, l1=l1, l2=l2, l3=l3, l4=l4)


@dataclass
class BruteForceResult:
    recovered: bs.Bitstream | None
    trials: int
    key_bits: int
    matches_original: bool

    def to_json_dict(self):
        return {
            "key_bits": self.key_bits,
            "trials": self.trials,
            "recovered": "".join(str(b) for b in self.recovered.bits)
            if self.recovered else None,
            "matches_original": self.matches_original,
        }


def brute_force_key(obfuscated: Netlist, oracle: Netlist,
                    max_key_bits=20, orders=None) -> BruteForceResult:
    """Enumerate keys in order and keep the first one that makes the
    device match the oracle on every input vector.

    Each pass scores a batch of consecutive keys at once.  Lane
    ``j * count + v`` holds key ``k0 + j`` under input vector ``v``, so a
    key bit below the batch size varies across lanes like an extra
    primary input and a higher one is constant over the batch.  A
    reconfigurable LUT evaluates as a multiplexer tree over the lanes of
    its key bits; static cells keep their netlist masks.  The first key
    whose lanes all match is the one a key-by-key loop would stop at, so
    ``trials`` is its index + 1.

    The recovered key may differ from the shipped bitstream while being
    functionally equivalent.  Refuses designs whose key is longer than
    ``max_key_bits`` and a device whose ports differ from the oracle's.
    ``orders`` holds the two netlists' combinational cells as their
    ``validate`` returns them; without it, both are validated here.
    """
    order, oracle_order = (None, None) if orders is None else orders
    reference = bs.serialize(obfuscated)
    n = reference.total_len
    if n > max_key_bits:
        raise AttackError(
            f"key has {n} bits; brute force is capped at {max_key_bits}"
        )
    if oracle.is_sequential or obfuscated.is_sequential:
        raise AttackError("brute-force oracle supports combinational toys only")
    if not _ports_match(obfuscated, oracle):
        raise AttackError(
            f"port mismatch: {obfuscated.inputs}/{obfuscated.outputs} vs "
            f"{oracle.inputs}/{oracle.outputs}"
        )

    pis = oracle.inputs
    count = 1 << len(pis)
    stim = {net: _input_pattern(i, count) for i, net in enumerate(pis)}
    oracle_vals = Evaluator(oracle, oracle_order).eval_packed(stim, count)

    if order is None:
        order = obfuscated.validate()
    chain = {lut: (offset, size)
             for lut, _, offset, size in bs._layout(reference.chain)}
    static_bits = _lut_bits(None)
    batch = min(1 << n, max(1, _BATCH_LANES // count))
    lanes = batch * count
    full = (1 << lanes) - 1
    rep = full // ((1 << count) - 1)   # bit j * count set for every key j
    inputs = {net: pattern * rep for net, pattern in stim.items()}
    if obfuscated.clock is not None:
        inputs.setdefault(obfuscated.clock, 0)
    expected = [oracle_vals[net] * rep for net in oracle.outputs]
    # key bit p < log2(batch) is bit p of the key's index j in its batch
    low = [_input_pattern(len(pis) + p, lanes)
           for p in range(batch.bit_length() - 1)]
    for k0 in range(0, 1 << n, batch):
        keys = low + [full if (k0 >> p) & 1 else 0 for p in range(len(low), n)]
        values = dict(inputs)
        for cell in order:
            if cell.name in chain:
                offset, size = chain[cell.name]
                values[cell.name] = mux_tree(keys[offset:offset + size],
                                             [values[net] for net in cell.inputs])
            else:
                eval_cells((cell,), values, full, static_bits)
        miss = 0
        for net, want in zip(obfuscated.outputs, expected):
            miss |= values[net] ^ want
        # fold each key's count lanes into its lowest lane
        shift = 1
        while shift < count:
            miss |= miss >> shift
            shift <<= 1
        hits = rep & ~miss
        if hits:
            key = k0 + ((hits & -hits).bit_length() - 1) // count
            return BruteForceResult(
                recovered=bs.Bitstream(reference.design, reference.chain, key),
                trials=key + 1,
                key_bits=n,
                matches_original=key == reference.key,
            )
    raise AttackError(
        "exhausted the key space without a match; the obfuscated design "
        "and oracle are inconsistent"
    )
