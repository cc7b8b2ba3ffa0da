import random
import struct

import pytest

from easic import (
    ObfuscationConfig,
    blank_state,
    program,
    read_bitstream,
    run_obfuscation,
    serialize,
    write_bitstream,
)
from easic.bitstream import (
    Bitstream,
    BitstreamError,
    chain_manifest,
)
from easic.netlist import LutMask

from circuits import BUF1, INV1, lut, netlist, random_mask


def test_chain_order_is_lexicographic():
    cells = [lut("u2", ("a",), BUF1), lut("u1", ("a",), INV1)]
    nl = netlist("two", ["a"], ["u1", "u2"], cells)
    assert [c.name for c in nl.chain_order()] == ["u1", "u2"]


def test_chain_order_empty_without_reconfigurable_luts():
    nl = netlist("none", ["a"], ["a"], [])
    assert nl.chain_order() == []
    assert serialize(nl).bits == ()


def test_serialize_single_and_lut():
    nl = netlist("one", ["a", "b"], ["y"],
                 [lut("y", ("a", "b"), LutMask(2, 0x8))])
    assert serialize(nl).bits == (0, 0, 0, 1)


def test_serialize_buffer_then_inverter():
    cells = [lut("u1", ("a",), BUF1), lut("u2", ("a",), INV1)]
    nl = netlist("two", ["a"], ["u1", "u2"], cells)
    assert serialize(nl).bits == (0, 1, 1, 0)


def test_program_readback_roundtrip(designs):
    for name in ("cmp4", "sbm29", "lfsr16"):
        nl = designs[name]
        stream = serialize(nl)
        state = program(blank_state(nl), stream)
        assert state.configs() == {c.name: c.mask.bits for c in nl.chain_order()}
        assert state.programmed


def test_program_rejects_wrong_length(designs):
    nl = designs["cmp4"]
    stream = serialize(nl)
    short = Bitstream(stream.design, stream.chain[:-1], 0)
    with pytest.raises(BitstreamError) as err:
        program(blank_state(nl), short)
    msg = str(err.value)
    assert short.total_len < stream.total_len
    assert str(stream.total_len) in msg and str(short.total_len) in msg


def test_key_wider_than_its_chain_is_refused(designs):
    stream = serialize(designs["cmp4"])
    for key in (1 << stream.total_len, -1):
        with pytest.raises(BitstreamError, match="does not fit"):
            Bitstream(stream.design, stream.chain, key)
    top = (1 << stream.total_len) - 1
    assert Bitstream(stream.design, stream.chain, top).bits == \
        (1,) * stream.total_len


def naive_shift_register(total, fed_bits, regs=None):
    """Independent oracle: plain list shifting, head index 0."""
    regs = list(regs) if regs is not None else [0] * total
    for bit in fed_bits:
        regs = [bit] + regs[:-1]
    return regs


def positions(state):
    """The register as a list of bits, chain head first."""
    return [(state.regs >> p) & 1 for p in range(state.total_len)]


def test_program_equals_streaming_the_key_tail_first(designs):
    # from a stale register: program loads in one step what total_len
    # shift cycles would leave
    nl = designs["cmp4"]
    stream = serialize(nl)
    rng = random.Random(7)
    loaded = blank_state(nl)
    loaded.regs = rng.getrandbits(stream.total_len)
    before = positions(loaded)
    assert program(loaded, stream) is loaded
    assert loaded.programmed
    fed = list(reversed(stream.bits))
    assert positions(loaded) == naive_shift_register(stream.total_len, fed,
                                                     before)
    assert positions(loaded) == list(stream.bits)


def test_bitstream_file_roundtrip(tmp_path, designs):
    nl = designs["sbm29"]
    stream = serialize(nl)
    path = tmp_path / "design.ebs"
    write_bitstream(stream, path)
    again = read_bitstream(path)
    assert again == stream

    data = path.read_bytes()
    assert data.startswith(b"EASICBS1")


def test_bitstream_file_bad_magic(tmp_path):
    path = tmp_path / "bad.ebs"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 10)
    with pytest.raises(BitstreamError, match="magic"):
        read_bitstream(path)


def test_bitstream_file_truncated(tmp_path, designs):
    stream = serialize(designs["cmp4"])
    path = tmp_path / "cut.ebs"
    write_bitstream(stream, path)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(BitstreamError, match="truncated"):
        read_bitstream(path)


def test_bitstream_file_trailing_bytes(tmp_path, designs):
    path = tmp_path / "long.ebs"
    write_bitstream(serialize(designs["cmp4"]), path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(BitstreamError, match="trailing"):
        read_bitstream(path)


def test_bitstream_file_padding_bits_must_be_zero(tmp_path):
    # one LUT2: four bits in one byte, the upper four are padding
    nl = netlist("pad", ["a", "b"], ["y"], [lut("y", ("a", "b"), LutMask(2, 0x6))])
    path = tmp_path / "pad.ebs"
    write_bitstream(serialize(nl), path)
    assert read_bitstream(path).bits == (0, 1, 1, 0)
    data = bytearray(path.read_bytes())
    data[-1] |= 0x80
    path.write_bytes(bytes(data))
    with pytest.raises(BitstreamError, match="padding"):
        read_bitstream(path)


def test_bitstream_file_names_must_be_utf8(tmp_path, designs):
    path = tmp_path / "name.ebs"
    stream = serialize(designs["cmp4"])
    write_bitstream(stream, path)
    data = path.read_bytes()
    design_at = 8 + 4   # magic, then the design name's length
    lut_at = design_at + len(stream.design) + 4 + 4   # chain length, id length
    for at in (design_at, lut_at):
        bad = bytearray(data)
        bad[at] = 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(BitstreamError, match="UTF-8"):
            read_bitstream(path)


def test_bitstream_file_bytes_for_a_known_key(tmp_path):
    # a LUT3 and a LUT1: ten stream bits, bit i at byte i // 8, position
    # i % 8, six zero padding bits
    bits = (1, 0, 1, 1, 0, 0, 0, 1, 1, 0)
    key = sum(bit << i for i, bit in enumerate(bits))
    stream = Bitstream("pk", (("u1", 3), ("u2", 1)), key)
    assert stream.bits == bits
    path = tmp_path / "pk.ebs"
    write_bitstream(stream, path)
    assert path.read_bytes() == (
        b"EASICBS1" + struct.pack("<I", 2) + b"pk" + struct.pack("<I", 2)
        + struct.pack("<I", 2) + b"u1" + bytes([3])
        + struct.pack("<I", 2) + b"u2" + bytes([1])
        + struct.pack("<I", 10) + bytes([0b10001101, 0b00000001]))
    assert read_bitstream(path) == stream


def test_chain_manifest(designs):
    stream = serialize(designs["cmp4"])
    manifest = chain_manifest(stream)
    assert manifest["total_bits"] == stream.total_len
    offsets = [e["offset"] for e in manifest["chain"]]
    assert offsets == sorted(offsets)


def test_key_length_formula(designs, lib):
    nl = designs["alu6"]
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=60, library=lib))
    stream = serialize(res.netlist)
    expected = sum(1 << c.mask.width for c in res.netlist.reconfigurable_luts())
    assert stream.total_len == expected


def test_key_length_order_of_magnitude_midsize_lut6_design(lib):
    # a c7552-scale LUT6 netlist at 50% keeps a key in the 10^4-bit range
    rng = random.Random(99)
    pis = [f"i{k}" for k in range(8)]
    nets = list(pis)
    cells = []
    for k in range(430):
        ins = rng.sample(nets, 6) if len(nets) >= 6 else list(nets)
        while len(ins) < 6:
            ins.append(rng.choice(pis))
        cell = lut(f"u{k:03d}", tuple(ins), random_mask(rng, 6))
        cells.append(cell)
        nets.append(cell.name)
    outs = [c.name for c in cells[-8:]]
    nl = netlist("midsize", pis, outs, cells)
    res = run_obfuscation(nl, ObfuscationConfig(obf_percent=50, library=lib))
    stream = serialize(res.netlist)
    assert 5_000 <= stream.total_len <= 30_000
