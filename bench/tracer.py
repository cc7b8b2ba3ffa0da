"""Per-module spans around calls into easic's public functions.

Each traced function is replaced by a wrapper under every easic module
name that refers to it (``obfuscate`` and ``cli`` bind names with
``from .x import y``, so patching the defining module alone would miss
those calls).  Spans nest: a module's self time is the time of its spans
minus the time of the spans they contain.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function or Class.method); the metric prefix is
# "<module>.<function>", e.g. "netlist.topo_cells".
TRACED = [
    ("cli", "main"),
    ("netlist", "parse_blif"),
    ("netlist", "Netlist.validate"),
    ("netlist", "Netlist.topo_cells"),
    ("netlist", "Netlist.copy"),
    ("netlist", "emit_blif"),
    ("timing", "build_and_time"),
    ("timing", "update_timing"),
    ("timing", "endpoint_worst_path"),
    ("timing", "endpoint_deviations"),
    ("timing", "report"),
    ("staticgen", "decompose_lut"),
    ("obfuscate", "run_obfuscation"),
    ("bitstream", "serialize"),
    ("bitstream", "program"),
    ("bitstream", "write_bitstream"),
    ("bitstream", "read_bitstream"),
    ("sim", "check_equivalence"),
    ("sim", "Evaluator.eval_packed"),
    ("attacks", "pattern_histogram"),
    ("attacks", "composition_attack"),
    ("attacks", "search_space_report"),
    ("attacks", "fit_trendline"),
    ("attacks", "brute_force_key"),
    ("verilog", "emit_verilog"),
]

MODULES = sorted({module for module, _ in TRACED})

COUNTERS = [
    "obfuscate.conversions",
    "obfuscate.fallback_conversions",
    "bitstream.bits_shifted",
    "sim.vectors_simulated",
    "attacks.bruteforce_trials",
]


def metric_prefix(module, target):
    return f"{module}.{target.rsplit('.', 1)[-1]}"


def rebind(module, target, make_wrapper):
    """Replace one easic function everywhere it is bound; returns an undo."""
    owner = sys.modules[f"easic.{module}"]
    if "." in target:
        cls_name, attr = target.split(".")
        cls = getattr(owner, cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        return lambda: setattr(cls, attr, original)
    original = getattr(owner, target)
    wrapper = make_wrapper(original)
    bound = []
    for name, mod in list(sys.modules.items()):
        if name != "easic" and not name.startswith("easic."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound.append((mod, attr))

    def undo():
        for mod, attr in bound:
            setattr(mod, attr, original)
    return undo


def _on_result(counters, key, args, result):
    """Counters read off a traced call's arguments or result."""
    if key == "obfuscate.run_obfuscation":
        counters["obfuscate.conversions"] += len(result.trace)
        counters["obfuscate.fallback_conversions"] += result.fallback_count
    elif key == "bitstream.program":
        counters["bitstream.bits_shifted"] += args[1].total_len
    elif key == "sim.eval_packed":
        counters["sim.vectors_simulated"] += args[2]
    elif key == "attacks.brute_force_key":
        counters["attacks.bruteforce_trials"] += result.trials


class Tracer:
    """Span totals per traced function and self time per module."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        self._children = []   # child-span time of each open span

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.counters.clear()

    def _wrap(self, module, key, fn):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = children.pop()
                self.calls[key] += 1
                self.seconds[key] += spent
                self.self_seconds[module] += spent - inner
                if children:
                    children[-1] += spent
            _on_result(self.counters, key, args, result)
            return result
        return traced

    def install(self):
        """Wrap every traced function; returns an undo."""
        undos = [
            rebind(module, target, functools.partial(
                self._wrap, module, metric_prefix(module, target)))
            for module, target in TRACED
        ]

        def undo():
            for step in reversed(undos):
                step()
        return undo

    def metrics(self):
        """One round's per-layer figures, by metric name."""
        out = {}
        for module, target in TRACED:
            key = metric_prefix(module, target)
            out[f"{key}_s"] = self.seconds[key]
            out[f"{key}_calls"] = self.calls[key]
        for module in MODULES:
            out[f"{module}.self_s"] = self.self_seconds[module]
        for name in COUNTERS:
            out[name] = self.counters[name]
        searched = self.counters["obfuscate.conversions"] \
            - self.counters["obfuscate.fallback_conversions"]
        out["timing.worst_path_calls_per_conversion"] = (
            self.calls["timing.endpoint_worst_path"] / searched if searched else 0.0)
        return out


def slow_down(module, target, factor):
    """Make every call of one easic function take (1 + factor) times as
    long, busy-waiting so that wall and CPU time both grow; returns an
    undo."""
    def make(fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                until = time.perf_counter() + factor * (time.perf_counter() - start)
                while time.perf_counter() < until:
                    pass
        return slowed
    return rebind(module, target, make)
