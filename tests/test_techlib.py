import copy
import json

import pytest

from easic import default_library, load_library, load_library_file
from easic.netlist import Cell, LutMask
from easic.techlib import LibraryError, _DEFAULT_CONFIG

from circuits import ff, lut


def test_default_calibration_constraint(lib):
    for width in range(1, 7):
        assert lib.lut_delay[width] >= width * lib.gate_delay["MUX2"]
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
    tie = Cell("t", "TIE1", ())
    assert lib.cell_delay(tie) == 0.0
    assert lib.cell_area(tie) > 0

    wide = lut("w", tuple(f"i{k}" for k in range(6)), LutMask(6, 123))
    assert lib.cell_delay(wide) == lib.lut_delay[6]
    assert lib.cell_area(wide) == lib.lut_area[6]

    flop = ff("q", "d")
    assert lib.cell_delay(flop) == lib.ff_clk2q
    assert lib.cell_area(flop) == lib.ff_area


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
