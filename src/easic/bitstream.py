"""Bitstream serialization and the scan-style programming model.

Every reconfigurable LUT owns a configuration shift register of
2^width bits.  The registers of all LUTs form one daisy chain ordered
by cell name (chain head first); the bitstream is the concatenation of
the per-LUT masks in chain order, LSB-first within each LUT.  The
programming simulator models the chain as a single long shift register
with serial_in at the head: because the first bit shifted in travels
deepest, a programmer streams the bitstream tail-first, exactly like
loading a scan chain.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass, field

from .netlist import LutMask, Netlist

MAGIC = b"EASICBS1"


class BitstreamError(Exception):
    pass


@dataclass(frozen=True)
class Bitstream:
    design: str
    chain: tuple      # ordered (lut name, width) pairs, head first
    bits: tuple       # 0/1 ints, chain-head-first, LSB-first per LUT

    @property
    def total_len(self):
        return len(self.bits)

    def offsets(self) -> list:
        out = []
        offset = 0
        for name, width in self.chain:
            out.append({"lut": name, "width": width, "offset": offset})
            offset += 1 << width
        return out


def serialize(netlist: Netlist) -> Bitstream:
    chain = []
    bits = []
    for cell in netlist.chain_order():
        width = cell.mask.width
        chain.append((cell.name, width))
        for i in range(1 << width):
            bits.append((cell.mask.bits >> i) & 1)
    return Bitstream(design=netlist.name, chain=tuple(chain), bits=tuple(bits))


@dataclass
class ChainState:
    """A manufactured-but-blank device: netlist plus configuration
    registers.  LUT masks in the netlist are ignored during evaluation;
    the registers are what the device actually computes with."""

    netlist: Netlist
    chain: tuple
    regs: deque = field(repr=False, default=None)
    enable: bool = False
    shifted: int = 0
    programmed: bool = False

    @property
    def total_len(self):
        return sum(1 << width for _, width in self.chain)

    def shift_bit(self, bit) -> int | None:
        """One programming clock: with enable high the chain shifts one
        position (head takes ``bit``) and the old tail falls out as
        serial_out.  With enable low nothing happens."""
        if not self.enable:
            return None
        out = self.regs.pop()
        self.regs.appendleft(1 if bit else 0)
        self.shifted += 1
        return out

    def configs(self) -> dict:
        """All register contents as lut name -> mask bits int."""
        out = {}
        start = 0
        flat = list(self.regs)
        for lut, width in self.chain:
            size = 1 << width
            value = 0
            for i in range(size):
                value |= flat[start + i] << i
            out[lut] = value
            start += size
        return out


def blank_state(netlist: Netlist) -> ChainState:
    chain = tuple((c.name, c.mask.width) for c in netlist.chain_order())
    total = sum(1 << width for _, width in chain)
    return ChainState(netlist=netlist, chain=chain, regs=deque([0] * total))


def program(state: ChainState, bitstream: Bitstream) -> ChainState:
    """Shift a full bitstream into a blank (or stale) device."""
    if bitstream.total_len != state.total_len:
        raise BitstreamError(
            f"bitstream length {bitstream.total_len} does not match chain "
            f"length {state.total_len}"
        )
    if tuple(bitstream.chain) != tuple(state.chain):
        raise BitstreamError("bitstream chain manifest does not match design")
    state.enable = True
    for bit in reversed(bitstream.bits):
        state.shift_bit(bit)
    state.enable = False
    state.programmed = True
    return state


def readback(state: ChainState) -> dict:
    """Current register contents as per-LUT masks."""
    configs = state.configs()
    return {name: LutMask(width, configs[name]) for name, width in state.chain}


# -- file format -------------------------------------------------------------


def pack_bits(bits) -> bytes:
    """Bit i of the stream goes to byte i//8, bit position i%8."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def unpack_bits(data, count) -> tuple:
    return tuple((data[i >> 3] >> (i & 7)) & 1 for i in range(count))


def write_bitstream(bitstream: Bitstream, path):
    blob = bytearray()
    blob += MAGIC
    name = bitstream.design.encode("utf-8")
    blob += struct.pack("<I", len(name)) + name
    blob += struct.pack("<I", len(bitstream.chain))
    for lut, width in bitstream.chain:
        lut_b = lut.encode("utf-8")
        blob += struct.pack("<I", len(lut_b)) + lut_b + struct.pack("<B", width)
    blob += struct.pack("<I", len(bitstream.bits))
    blob += pack_bits(bitstream.bits)
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


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
    expected = sum(1 << width for _, width in chain)
    if bit_count != expected:
        raise BitstreamError(
            f"{path}: bit count {bit_count} does not match chain manifest "
            f"total {expected}"
        )
    packed = take((bit_count + 7) // 8)
    if pos != len(data):
        raise BitstreamError(
            f"{path}: {len(data) - pos} trailing bytes after the bit field")
    if bit_count % 8 and packed[-1] >> (bit_count % 8):
        raise BitstreamError(f"{path}: nonzero padding bits after the last bit")
    bits = unpack_bits(packed, bit_count)
    return Bitstream(design=design, chain=tuple(chain), bits=bits)


def chain_manifest(bitstream: Bitstream) -> dict:
    return {
        "design": bitstream.design,
        "total_bits": bitstream.total_len,
        "chain": bitstream.offsets(),
    }


def write_chain_manifest(bitstream: Bitstream, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chain_manifest(bitstream), handle, indent=2, sort_keys=True)
        handle.write("\n")
