import re

import pytest

from easic import ObfuscationConfig, emit_verilog, run_obfuscation
from easic.netlist import LutMask, MODE_ST, Netlist, NetlistError
from easic.verilog import VerilogEmitError, legalize

from circuits import BUF1, ff, lut, netlist


def test_no_config_pins_without_reconfigurable_luts(designs, lib):
    res = run_obfuscation(designs["cmp4"],
                          ObfuscationConfig(obf_percent=0, library=lib))
    text = "".join(emit_verilog(res.netlist))
    assert "serial_in" not in text
    assert "serial_out" not in text
    assert "LUT" not in text


def test_daisy_chain_wiring():
    cells = [lut("u1", ("a",), BUF1), lut("u2", ("a",), BUF1)]
    nl = netlist("pair", ["a"], ["u1", "u2"], cells)
    text = "".join(emit_verilog(nl))
    assert ".serial_in(serial_in)" in text
    # chain-first LUT drives the chain-second through one wire
    m1 = re.search(r"LUT1 u_u1 \((.*)\);", text).group(1)
    m2 = re.search(r"LUT1 u_u2 \((.*)\);", text).group(1)
    assert ".serial_out(cfg_chain_0)" in m1
    assert ".serial_in(cfg_chain_0)" in m2
    assert ".serial_out(serial_out)" in m2
    assert text.count(".enable(enable)") == 2


def test_sbm29_macro_instances_at_full_obfuscation(designs, lib):
    res = run_obfuscation(designs["sbm29"],
                          ObfuscationConfig(obf_percent=98, library=lib))
    text = "".join(emit_verilog(res.netlist))
    instances = re.findall(r"^\s+LUT(\d) ", text, flags=re.M)
    assert len(instances) == 29


def test_emission_is_deterministic(designs):
    first = "".join(emit_verilog(designs["alu6"]))
    assert "".join(emit_verilog(designs["alu6"])) == first


def test_sequential_design_gets_clock_and_dff(designs):
    text = "".join(emit_verilog(designs["counter8"]))
    assert "input clk" in text
    assert text.count("DFF") == 8


def test_identifier_legalization():
    assert legalize("plain_name") == "plain_name"
    assert legalize("a.b[3]") == "a_b_3_"
    assert legalize("3net").startswith("n_")
    assert legalize("module") == "module_"


# each VerilogEmitError case calls emit_verilog and takes no chunk:
# every check runs when the emitter is called, before any text exists


def test_collision_after_legalization_reports_both():
    cells = [
        lut("a.b", ("x",), BUF1),
        lut("a_b", ("x",), BUF1),
    ]
    nl = netlist("bad", ["x"], ["a.b", "a_b"], cells)
    with pytest.raises(VerilogEmitError) as err:
        emit_verilog(nl)
    msg = str(err.value)
    assert "a.b" in msg and "a_b" in msg


@pytest.mark.parametrize("blif, net", [
    pytest.param(".inputs a serial_in\n.outputs y\n.names a serial_in y\n11 1\n",
                 "serial_in", id="pi-serial-in"),
    pytest.param(".inputs a b\n.outputs y\n.names a b enable\n11 1\n"
                 ".names enable y\n0 1\n", "enable", id="net-enable"),
    pytest.param(".inputs a cfg_chain_0\n.outputs y z\n.names a y\n1 1\n"
                 ".names cfg_chain_0 z\n1 1\n", "cfg_chain_0",
                 id="pi-chain-wire"),
])
def test_net_named_like_a_configuration_port_collides(tmp_path, blif, net):
    from easic import parse_blif
    from easic.cli import main

    text = ".model m\n" + blif + ".end\n"
    with pytest.raises(VerilogEmitError) as err:
        emit_verilog(parse_blif(text))
    assert str(err.value) == (
        f"identifier collision after legalization: {net!r} and "
        f"'{net} (configuration chain)' both map to {net!r}")
    src = tmp_path / "m.blif"
    src.write_text(text)
    assert main(["obfuscate", "--input", str(src), "--obf", "100",
                 "--out", str(tmp_path / "o")]) == 3


def test_net_named_enable_without_a_chain(lib):
    from easic import parse_blif

    nl = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b enable\n"
                    "11 1\n.names enable y\n0 1\n.end\n")
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=lib))
    text = "".join(emit_verilog(res.netlist))
    assert "  wire enable;" in text and "serial_in" not in text


def test_static_lut_rejected():
    nl = netlist("st", ["a"], ["y"],
                 [lut("y", ("a",), LutMask(1, 0x2), mode=MODE_ST)])
    with pytest.raises(VerilogEmitError, match="static LUT"):
        emit_verilog(nl)


def test_gate_and_tie_instances(designs, lib):
    res = run_obfuscation(designs["parity12"],
                          ObfuscationConfig(obf_percent=0, library=lib))
    text = "".join(emit_verilog(res.netlist))
    assert re.search(r"(AND2|OR2|MUX2|INV) u_", text)
    assert text.strip().endswith("endmodule")


def test_hybrid_contains_both_worlds(designs, lib):
    res = run_obfuscation(designs["adder8"],
                          ObfuscationConfig(obf_percent=50, library=lib))
    text = "".join(emit_verilog(res.netlist))
    assert re.search(r"LUT\d u_", text)
    assert re.search(r"(AND2|OR2|MUX2|INV|BUF) u_", text)
    assert text.count(".serial_in(") == len(res.l_re)


def test_pi_po_passthrough_rejected():
    from easic import parse_blif

    nl = parse_blif(".model p\n.inputs a\n.outputs a y\n.names a y\n1 1\n.end\n")
    with pytest.raises(VerilogEmitError, match="buffer"):
        emit_verilog(nl)


def test_emit_verilog_checks_before_the_first_chunk():
    nl = Netlist(name="m", inputs=["a"], outputs=["y"])
    nl.add_cell(lut("y", ("ghost",), BUF1))
    with pytest.raises(NetlistError, match="net ghost used by cell y"):
        emit_verilog(nl)
