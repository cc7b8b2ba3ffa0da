import copy
import json
from fractions import Fraction

import pytest

from easic import (ObfuscationConfig, default_library, load_library,
                   load_library_file, run_obfuscation)
from easic.netlist import Cell, LutMask
from easic.techlib import LibraryError, _DEFAULT_CONFIG

from circuits import ff, lut


def test_default_calibration_constraint(lib):
    for width in range(1, 7):
        assert lib.delay_q[width] >= width * lib.delay_q["MUX2"]
    assert lib.calibration_ok
    assert lib.warnings == ()


def test_missing_gate_entry_names_kind():
    config = copy.deepcopy(_DEFAULT_CONFIG)
    del config["gates"]["AND2"]
    with pytest.raises(LibraryError, match="AND2"):
        load_library(config)


def test_missing_area_names_kind():
    config = copy.deepcopy(_DEFAULT_CONFIG)
    del config["gates"]["AND2"]["area_um2"]
    with pytest.raises(LibraryError, match="AND2"):
        load_library(config)


def test_calibration_violation_warns_but_loads():
    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["luts"]["6"]["delay_ns"] = 0.1
    config["gates"]["MUX2"]["delay_ns"] = 0.05
    lib = load_library(config)
    assert not lib.calibration_ok
    assert any("lut_delay(6)" in w for w in lib.warnings)


def test_calibration_at_the_boundary_is_exact():
    # LUTn = n * MUX2 exactly, where the float products 3 * 0.1 and
    # 6 * 0.1 exceed 0.3 and 0.6
    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["gates"]["MUX2"]["delay_ns"] = 0.1
    for width, delay in enumerate([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 1):
        config["luts"][str(width)]["delay_ns"] = delay
    lib = load_library(config)
    assert lib.calibration_ok
    assert lib.warnings == ()

    # one quantum faster is a violation, reported in ns
    config["luts"]["3"]["delay_ns"] = 0.295
    lib = load_library(config)
    assert not lib.calibration_ok
    assert len(lib.warnings) == 1
    assert lib.warnings[0].startswith(
        "lut_delay(3)=0.295 < 3 * MUX2 delay 0.1;")


@pytest.mark.parametrize("value, count", [(0.1234567, 1234567), (1e-07, 1)])
def test_a_fine_decimal_sets_a_large_unit(designs, value, count):
    """The unit is whatever the decimals need, with no cap: ints stay
    exact at any size."""
    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["gates"]["AND2"] = {"delay_ns": value, "area_um2": value}
    lib = load_library(config)
    assert lib.time_unit == lib.area_unit == 10**7
    assert lib.delay_q["AND2"] == lib.area_q["AND2"] == count
    for key, ns in {**lib.gate_delay, **lib.lut_delay}.items():
        assert Fraction(lib.delay_q[key], lib.time_unit) == Fraction(repr(ns))
    for key, um2 in {**lib.gate_area, **lib.lut_area}.items():
        assert Fraction(lib.area_q[key], lib.area_unit) == Fraction(repr(um2))

    res = run_obfuscation(designs["cmp4"],
                          ObfuscationConfig(obf_percent=0, library=lib))
    kinds = [res.netlist.cells[name].kind for c in res.trace
             for name in c.cells]
    assert "AND2" in kinds
    areas = {"AND2": Fraction(repr(value))}
    for kind, area in _DEFAULT_CONFIG["gates"].items():
        areas.setdefault(kind, Fraction(repr(area["area_um2"])))
    exact = sum(areas[kind] for kind in kinds)
    assert res.area_report().to_json_dict()["area_st_um2"] == float(exact)


def test_unknown_keys_rejected():
    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["wires"] = {}
    with pytest.raises(LibraryError, match="wires"):
        load_library(config)

    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["gates"]["XOR9"] = {"delay_ns": 1, "area_um2": 1}
    with pytest.raises(LibraryError, match="XOR9"):
        load_library(config)


def test_negative_delay_rejected():
    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["gates"]["INV"]["delay_ns"] = -0.1
    with pytest.raises(LibraryError, match="negative"):
        load_library(config)


def test_zero_area_rejected():
    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["ff"]["area_um2"] = 0
    with pytest.raises(LibraryError):
        load_library(config)


def test_cell_lookups(lib):
    # the default library counts 1/200 ns and 1/25 um^2
    assert (lib.time_unit, lib.area_unit) == (200, 25)
    tie = Cell("t", "TIE1", ())
    assert lib.cell_delay(tie) == 0
    assert lib.cell_area(tie) == 18         # 0.72 um^2

    wide = lut("w", tuple(f"i{k}" for k in range(6)), LutMask(6, 123))
    assert lib.cell_delay(wide) == 88       # 0.440 ns
    assert lib.cell_area(wide) == 11375     # 455 um^2

    flop = ff("q", "d")
    assert lib.cell_delay(flop) == 24       # 0.120 ns clk-to-q
    assert lib.setup_q == 10                # 0.050 ns
    assert lib.cell_area(flop) == 225       # 9 um^2


def test_load_twice_is_value_equal():
    assert load_library(copy.deepcopy(_DEFAULT_CONFIG)) == default_library()


def test_load_library_file(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(_DEFAULT_CONFIG))
    assert load_library_file(path) == default_library()

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(LibraryError, match="JSON"):
        load_library_file(bad)

    bad.write_bytes(b'{"caf\xff": 1}')
    with pytest.raises(LibraryError, match="JSON"):
        load_library_file(bad)


def test_unknown_kind_rejected(lib):
    class FakeCell:
        kind = "XOR9"
        name = "x"
    with pytest.raises(LibraryError, match="XOR9"):
        lib.cell_delay(FakeCell())
    with pytest.raises(LibraryError, match="XOR9"):
        lib.cell_area(FakeCell())
