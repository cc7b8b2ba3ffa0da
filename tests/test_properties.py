"""Property tests over random LUT DAGs (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from easic import (  # noqa: E402
    ObfuscationConfig, default_library, report, run_obfuscation, sweep)
from easic.netlist import LutMask  # noqa: E402

from circuits import lut, netlist  # noqa: E402

LIB = default_library()


@st.composite
def lut_dags(draw):
    """LUTs of widths 1..6 over primary inputs and earlier LUTs; some
    LUTs may drive nothing, which exercises the fallback order."""
    pis = [f"i{k}" for k in range(draw(st.integers(1, 6)))]
    nets = list(pis)
    cells = []
    for k in range(draw(st.integers(1, 24))):
        width = draw(st.integers(1, min(6, len(nets))))
        ins = draw(st.lists(st.sampled_from(nets), min_size=width,
                            max_size=width, unique=True))
        bits = draw(st.integers(0, (1 << (1 << width)) - 1))
        cells.append(lut(f"n{k}", ins, LutMask(width, bits)))
        nets.append(f"n{k}")
    outs = draw(st.lists(st.sampled_from(nets[len(pis):]), min_size=1,
                         max_size=4, unique=True))
    return netlist("hyp", pis, outs, cells)


levels = st.lists(st.sampled_from([0, 12.5, 33, 50, 71, 86, 99, 100]),
                  min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(lut_dags(), levels)
def test_every_level_is_a_prefix_of_the_full_run(nl, sweep_levels):
    full = run_obfuscation(nl, ObfuscationConfig(obf_percent=0, library=LIB))
    rows = sweep(nl, sweep_levels, library=LIB)
    for level, row in zip(sweep_levels, rows):
        res = run_obfuscation(nl, ObfuscationConfig(obf_percent=level,
                                                    library=LIB))
        assert res.trace == full.trace[:len(res.trace)]
        assert row["lut_st"] == len(res.l_st)
        assert row["lut_re"] == len(res.l_re)
        assert row["area_st_um2"] == res.area_report().area_st
        rep = report(res.graph)
        assert (row["cp_ns"], row["sum_cp_ns"]) == (rep.cp, rep.sum_cp)
