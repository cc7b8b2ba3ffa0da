"""Tuneable LUT-netlist obfuscation toolkit.

Turns a LUT-mapped netlist into a hybrid of reconfigurable LUT macros
and static standard-cell logic, generates the programming bitstream,
verifies functional equivalence, and analyzes the result with
structural and composition reverse-engineering attacks.
"""

__version__ = "0.1.0"

from .netlist import (
    BlifError,
    Cell,
    LutMask,
    Netlist,
    NetlistError,
    emit_blif,
    parse_blif,
    stats,
)
from .techlib import TechLibrary, default_library, load_library, load_library_file
from .timing import TimingGraph, build_and_time, find_critical, lut_support, report, update_timing
from .staticgen import Bdd, GateNetwork, build_bdd, bdd_to_gates, decompose_lut
from .obfuscate import (
    AreaReport,
    ObfuscationConfig,
    ObfuscationResult,
    gen_case_constraints,
    run_obfuscation,
    static_target,
    sweep,
)
from .bitstream import (
    Bitstream,
    ChainState,
    blank_state,
    program,
    read_bitstream,
    serialize,
    write_bitstream,
)
from .sim import (
    CutCheck,
    EquivalencePolicy,
    EquivalenceReport,
    Evaluator,
    check_equivalence,
    prove_by_cuts,
)
from .attacks import (
    PatternHistogram,
    SearchSpaceReport,
    UniquePatternSet,
    brute_force_key,
    composition_attack,
    corpus_union,
    correlate,
    fit_trendline,
    pattern_histogram,
    search_space_report,
)
from .verilog import emit_verilog
