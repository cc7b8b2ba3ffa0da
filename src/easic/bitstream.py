"""Bitstream serialization and the scan-style programming model.

Every reconfigurable LUT owns a configuration shift register of
2^width bits.  The registers of all LUTs form one daisy chain ordered
by cell name (chain head first); the bitstream is the concatenation of
the per-LUT masks in chain order, LSB-first within each LUT, held as
one integer key whose bit i is stream bit i.  The programming model
treats the chain as a single long shift register with serial_in at the
head: because the first bit shifted in travels deepest, a programmer
streams the bitstream tail-first, exactly like loading a scan chain.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

from .netlist import Netlist

MAGIC = b"EASICBS1"


class BitstreamError(Exception):
    pass


def _layout(chain):
    """(lut, width, offset, size) for each LUT of ``chain``, head first:
    a LUT of width w holds 2^w stream bits from ``offset`` on."""
    offset = 0
    for lut, width in chain:
        size = 1 << width
        yield lut, width, offset, size
        offset += size


def chain_length(chain) -> int:
    return sum(1 << width for _, width in chain)


def _chain(netlist: Netlist) -> tuple:
    return tuple((c.name, c.mask.width) for c in netlist.chain_order())


@dataclass(frozen=True)
class Bitstream:
    design: str
    chain: tuple      # ordered (lut name, width) pairs, head first
    # bit i is stream bit i: chain head first, LSB-first per LUT
    key: int = field(repr=False)

    def __post_init__(self):
        if self.key >> self.total_len:
            raise BitstreamError(
                f"key does not fit in the {self.total_len}-bit chain")

    @cached_property
    def total_len(self):
        return chain_length(self.chain)

    @property
    def bits(self) -> tuple:
        """The key as 0/1 ints in stream order."""
        return tuple((self.key >> i) & 1 for i in range(self.total_len))

    def offsets(self) -> list:
        return [{"lut": lut, "width": width, "offset": offset}
                for lut, width, offset, _ in _layout(self.chain)]


def serialize(netlist: Netlist) -> Bitstream:
    chain = _chain(netlist)
    key = 0
    for lut, _, offset, _ in _layout(chain):
        key |= netlist.cells[lut].mask.bits << offset
    return Bitstream(design=netlist.name, chain=chain, key=key)


@dataclass
class ChainState:
    """A manufactured-but-blank device: netlist plus configuration
    registers.  LUT masks in the netlist are ignored during evaluation;
    the registers are what the device actually computes with."""

    netlist: Netlist
    chain: tuple
    regs: int = field(repr=False, default=0)   # bit p: chain position p, head 0
    programmed: bool = False

    @cached_property
    def total_len(self):
        return chain_length(self.chain)

    def configs(self) -> dict:
        """All register contents as lut name -> mask bits int."""
        return {lut: (self.regs >> offset) & ((1 << size) - 1)
                for lut, _, offset, size in _layout(self.chain)}


def blank_state(netlist: Netlist) -> ChainState:
    return ChainState(netlist=netlist, chain=_chain(netlist))


def program(state: ChainState, bitstream: Bitstream) -> ChainState:
    """Load a full bitstream into a blank (or stale) device.  The end
    state is that of streaming the bitstream tail-first through
    ``total_len`` shift cycles: every register bit is replaced, so the
    registers hold the key."""
    if bitstream.total_len != state.total_len:
        raise BitstreamError(
            f"bitstream length {bitstream.total_len} does not match chain "
            f"length {state.total_len}"
        )
    if tuple(bitstream.chain) != tuple(state.chain):
        raise BitstreamError("bitstream chain manifest does not match design")
    state.regs = bitstream.key
    state.programmed = True
    return state


# -- file format -------------------------------------------------------------


def write_bitstream(bitstream: Bitstream, path) -> bytes:
    """Write the .ebs file; returns the bytes written."""
    blob = bytearray()
    blob += MAGIC
    name = bitstream.design.encode("utf-8")
    blob += struct.pack("<I", len(name)) + name
    blob += struct.pack("<I", len(bitstream.chain))
    for lut, width in bitstream.chain:
        lut_b = lut.encode("utf-8")
        blob += struct.pack("<I", len(lut_b)) + lut_b + struct.pack("<B", width)
    n = bitstream.total_len
    # stream bit i is byte i // 8, bit position i % 8
    blob += struct.pack("<I", n) + bitstream.key.to_bytes((n + 7) // 8, "little")
    data = bytes(blob)
    # rewritten in place, then cut at its end: truncating an existing
    # file to zero first costs several times the write on some file
    # systems (as in cli._write_text)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        handle.truncate()
    return data


def read_bitstream(path) -> Bitstream:
    with open(path, "rb") as handle:
        data = handle.read()
    view = memoryview(data)
    if bytes(view[:8]) != MAGIC:
        raise BitstreamError(f"{path}: bad magic (not an EASICBS1 file)")
    pos = 8

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise BitstreamError(f"{path}: truncated bitstream file")
        chunk = bytes(view[pos:pos + n])
        pos += n
        return chunk

    def take_name():
        (length,) = struct.unpack("<I", take(4))
        try:
            return take(length).decode("utf-8")
        except UnicodeDecodeError:
            raise BitstreamError(f"{path}: name field is not UTF-8") from None

    design = take_name()
    (chain_len,) = struct.unpack("<I", take(4))
    chain = []
    for _ in range(chain_len):
        lut = take_name()
        (width,) = struct.unpack("<B", take(1))
        chain.append((lut, width))
    (bit_count,) = struct.unpack("<I", take(4))
    expected = chain_length(chain)
    if bit_count != expected:
        raise BitstreamError(
            f"{path}: bit count {bit_count} does not match chain manifest "
            f"total {expected}"
        )
    key = int.from_bytes(take((bit_count + 7) // 8), "little")
    if pos != len(data):
        raise BitstreamError(
            f"{path}: {len(data) - pos} trailing bytes after the bit field")
    if key >> bit_count:
        raise BitstreamError(f"{path}: nonzero padding bits after the last bit")
    return Bitstream(design=design, chain=tuple(chain), key=key)


def chain_manifest(bitstream: Bitstream) -> dict:
    return {
        "design": bitstream.design,
        "total_bits": bitstream.total_len,
        "chain": bitstream.offsets(),
    }

