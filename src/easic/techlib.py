"""Delay/area model for static gates, FFs, and reconfigurable LUT macros.

The built-in default library is calibrated so that for every width n
``lut_delay(n) >= n * gate_delay(MUX2)``.  Because a decomposed LUT is a
MUX tree of at most n levels (and the peephole substitutions are never
slower than the MUX2 they replace), this guarantees that converting a
LUT to static logic never slows any path down.

Time and area are exact int counts of 1/``time_unit`` ns and 1/``area_unit``
um^2, as fine as the library's decimals need: ints have no cap.  Each
library value is 0 or lies in [``VALUE_MIN``, ``VALUE_MAX``], so that every
time, area and fmax written from those counts is a finite float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal

from .netlist import GATE_KINDS, KIND_FF, KIND_LUT, MAX_LUT_WIDTH


VALUE_MIN = 1e-9
VALUE_MAX = 1e9


class LibraryError(Exception):
    """Malformed or incomplete library configuration."""


@dataclass(frozen=True)
class TechLibrary:
    gate_delay: dict  # kind -> ns
    gate_area: dict   # kind -> um^2
    lut_delay: dict   # width -> ns
    lut_area: dict    # width -> um^2
    ff_clk2q: float
    ff_setup: float
    ff_area: float
    calibration_ok: bool = True
    warnings: tuple = field(default_factory=tuple)
    time_unit: int = 1    # delays below count 1/time_unit ns
    area_unit: int = 1    # areas below count 1/area_unit um^2
    # keyed by gate kind, LUT width and KIND_FF (clk-to-q, FF area)
    delay_q: dict = field(default_factory=dict)
    area_q: dict = field(default_factory=dict)
    setup_q: int = 0

    def cell_delay(self, cell) -> int:
        """Pin-to-output delay of any netlist cell, in 1/time_unit ns."""
        return _count(self.delay_q, cell)

    def cell_area(self, cell) -> int:
        """Area of any netlist cell, in 1/area_unit um^2."""
        return _count(self.area_q, cell)


def _count(table, cell):
    try:
        return table[cell.mask.width if cell.kind == KIND_LUT else cell.kind]
    except KeyError:
        raise LibraryError(f"unknown cell kind {cell.kind}") from None


# Stand-in 65nm-flavored numbers.  Only trends matter; the absolute
# values are not tied to any real PDK.
_DEFAULT_CONFIG = {
    "gates": {
        "INV":   {"delay_ns": 0.010, "area_um2": 1.44},
        "BUF":   {"delay_ns": 0.015, "area_um2": 1.80},
        "AND2":  {"delay_ns": 0.035, "area_um2": 2.16},
        "OR2":   {"delay_ns": 0.035, "area_um2": 2.16},
        "NAND2": {"delay_ns": 0.025, "area_um2": 1.80},
        "NOR2":  {"delay_ns": 0.025, "area_um2": 1.80},
        "MUX2":  {"delay_ns": 0.050, "area_um2": 4.32},
        "TIE0":  {"delay_ns": 0.0,   "area_um2": 0.72},
        "TIE1":  {"delay_ns": 0.0,   "area_um2": 0.72},
    },
    "luts": {
        "1": {"delay_ns": 0.080, "area_um2": 62.0},
        "2": {"delay_ns": 0.140, "area_um2": 95.0},
        "3": {"delay_ns": 0.200, "area_um2": 148.0},
        "4": {"delay_ns": 0.270, "area_um2": 228.0},
        "5": {"delay_ns": 0.350, "area_um2": 342.0},
        "6": {"delay_ns": 0.440, "area_um2": 455.0},
    },
    "ff": {"clk2q_ns": 0.120, "setup_ns": 0.050, "area_um2": 9.00},
}


def _object(value, what):
    if not isinstance(value, dict):
        raise LibraryError(
            f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _require(table, key, what, where):
    if key not in table:
        raise LibraryError(f"missing {what} for {key!r} in {where}")
    return table[key]


def _table(table, key, what, where):
    return _object(_require(table, key, what, where),
                   f"{what} {key!r} in {where}")


def _number(value, what):
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise LibraryError(f"{what} is not a number: {value!r}") from None
    except OverflowError:   # an int too large for a float
        value = math.inf
    if math.isnan(value):
        raise LibraryError(f"{what} is not finite: {value}")
    if value and not VALUE_MIN <= abs(value) <= VALUE_MAX:
        raise LibraryError(f"{what} {value:g} is outside "
                           f"[{VALUE_MIN:g}, {VALUE_MAX:g}] and not 0")
    return value


def _non_negative(value, what):
    value = _number(value, what)
    if value < 0:
        raise LibraryError(f"negative {what}: {value}")
    return value


def _positive(value, what):
    value = _number(value, what)
    if value <= 0:
        raise LibraryError(f"non-positive {what}: {value}")
    return value


def load_library(config=None) -> TechLibrary:
    """Build a TechLibrary from a config mapping (or the built-in default).

    Unknown keys are rejected.  A library that violates the calibration
    constraint still loads, but carries ``calibration_ok=False`` plus a
    warning; monotone-timing guarantees are void for such libraries.
    """
    if config is None:
        config = _DEFAULT_CONFIG
    _object(config, "library config")
    unknown = set(config) - {"gates", "luts", "ff"}
    if unknown:
        raise LibraryError(f"unknown library sections: {sorted(unknown)}")

    gates_cfg = _table(config, "gates", "section", "library config")
    unknown = set(gates_cfg) - GATE_KINDS
    if unknown:
        raise LibraryError(f"unknown gate kinds: {sorted(unknown)}")
    gate_delay = {}
    gate_area = {}
    for kind in sorted(GATE_KINDS):
        entry = _table(gates_cfg, kind, "gate entry", "gates")
        unknown = set(entry) - {"delay_ns", "area_um2"}
        if unknown:
            raise LibraryError(f"unknown keys for gate {kind}: {sorted(unknown)}")
        gate_delay[kind] = _non_negative(
            _require(entry, "delay_ns", "delay", kind), f"{kind} delay")
        gate_area[kind] = _positive(
            _require(entry, "area_um2", "area", kind), f"{kind} area")

    luts_cfg = _table(config, "luts", "section", "library config")
    lut_delay = {}
    lut_area = {}
    for width in range(1, MAX_LUT_WIDTH + 1):
        entry = _table(luts_cfg, str(width), "LUT entry", "luts")
        unknown = set(entry) - {"delay_ns", "area_um2"}
        if unknown:
            raise LibraryError(f"unknown keys for LUT{width}: {sorted(unknown)}")
        lut_delay[width] = _non_negative(
            _require(entry, "delay_ns", "delay", f"LUT{width}"),
            f"LUT{width} delay")
        lut_area[width] = _positive(
            _require(entry, "area_um2", "area", f"LUT{width}"),
            f"LUT{width} area")
    unknown = set(luts_cfg) - {str(w) for w in range(1, MAX_LUT_WIDTH + 1)}
    if unknown:
        raise LibraryError(f"unknown LUT widths: {sorted(unknown)}")

    ff_cfg = _table(config, "ff", "section", "library config")
    unknown = set(ff_cfg) - {"clk2q_ns", "setup_ns", "area_um2"}
    if unknown:
        raise LibraryError(f"unknown keys in ff section: {sorted(unknown)}")
    ff_clk2q = _non_negative(
        _require(ff_cfg, "clk2q_ns", "ff clk2q", "ff"), "ff clk2q")
    ff_setup = _non_negative(
        _require(ff_cfg, "setup_ns", "ff setup", "ff"), "ff setup")
    ff_area = _positive(
        _require(ff_cfg, "area_um2", "ff area", "ff"), "ff area")

    time_unit, delay_q = _counts({**gate_delay, **lut_delay,
                                  KIND_FF: ff_clk2q, "setup": ff_setup})
    setup_q = delay_q.pop("setup")
    area_unit, area_q = _counts({**gate_area, **lut_area, KIND_FF: ff_area})

    warnings = tuple(
        f"lut_delay({width})={lut_delay[width]} < "
        f"{width} * MUX2 delay {gate_delay['MUX2']}; "
        "static replacements may be slower than the LUTs they replace"
        for width in range(1, MAX_LUT_WIDTH + 1)
        if delay_q[width] < width * delay_q["MUX2"])

    return TechLibrary(gate_delay, gate_area, lut_delay, lut_area,
                       ff_clk2q, ff_setup, ff_area,
                       calibration_ok=not warnings, warnings=warnings,
                       time_unit=time_unit, area_unit=area_unit,
                       delay_q=delay_q, area_q=area_q, setup_q=setup_q)


def _counts(values):
    """(unit, counts): the least common multiple of the denominators of
    the values' shortest decimal forms (as ``--obf`` is read), and each
    value as an int count of 1/unit."""
    exact = {key: Decimal(repr(v)).as_integer_ratio()
             for key, v in values.items()}
    unit = math.lcm(*(d for _, d in exact.values()))
    return unit, {key: n * (unit // d) for key, (n, d) in exact.items()}


def load_library_file(path) -> TechLibrary:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise LibraryError(f"cannot read library {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8 or an int too long to read
        raise LibraryError(f"bad library JSON in {path}: {exc}") from exc
    return load_library(config)


def default_library() -> TechLibrary:
    return load_library(None)

