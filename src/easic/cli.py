"""Command-line front end.

Subcommands: obfuscate, sweep, verify, attack (structural | corpus |
composition | bruteforce).  All artifacts are deterministic: running a
command twice on the same inputs produces byte-identical files, which
the run manifest (input/output hashes) makes checkable.

Exit codes: 0 ok, 2 netlist parse error, 3 configuration error,
4 internal invariant violation, 5 equivalence counterexample.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import attacks as atk
from . import bitstream as bs
from .netlist import BlifError, NetlistError, parse_blif, emit_blif, stats
from .obfuscate import (
    ObfuscationConfig,
    ObfuscationError,
    ObfuscationResult,
    TraceMismatch,
    gen_case_constraints,
    result_from_json,
    run_obfuscation,
    sweep,
    sweep_to_csv,
)
from .sim import (EquivalencePolicy, EquivalenceReport, SimError,
                  check_equivalence, prove_by_cuts)
from .staticgen import StaticGenError
from .techlib import LibraryError, default_library, load_library_file
from .timing import report as timing_report
from .verilog import VerilogEmitError, emit_verilog

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4
EXIT_COUNTEREXAMPLE = 5


class CliConfigError(Exception):
    pass


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_text(path, error=CliConfigError, digests=None) -> str:
    """The UTF-8 text of a file; text that does not decode raises
    ``error`` (BlifError for netlists, so that it exits as a parse error).
    Given a ``digests`` dict, records in it the digest of the file's bytes
    under the file's name, for the manifest.  No line end is translated:
    the BLIF reader and the JSON decoder take CR LF and a lone CR as they
    come."""
    path = Path(path)
    if not path.is_file():
        raise CliConfigError(f"no such file: {path}")
    try:
        data = path.read_bytes()
        if digests is not None:
            digests[path.name] = _sha256(data)
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise CliConfigError(f"cannot read {path}: {exc.strerror}") from None


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:   # bad JSON, or an int too long to read
        raise CliConfigError(f"{path}: bad JSON ({exc})") from None


# what reading a JSON document of the wrong shape raises: a missing key,
# a value of the wrong type, or a number or mask out of range
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, NetlistError)


def _read_histogram(path):
    payload = _read_json(path)
    try:
        hist = atk.histogram_from_json(payload)
    except _SHAPE_ERRORS as exc:
        raise CliConfigError(f"{path}: not a pattern histogram "
                             f"({type(exc).__name__}: {exc})") from None
    if any(type(e.frequency) is not int or e.frequency < 0
           for e in hist.entries):
        raise CliConfigError(f"{path}: histogram frequencies must be counts")
    return hist


def _write_text(path: Path, chunks) -> str:
    """Write text chunks as UTF-8, encoding and hashing one chunk at a
    time; returns the digest of the bytes written.  An existing file is
    rewritten in place and cut at the new end: truncating it to zero
    first costs several times the write on some file systems (ext4
    mounted with ``discard``).  Neither way is atomic."""
    digest = hashlib.sha256()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            f.write(data)
            digest.update(data)
        f.truncate()
    return "sha256:" + digest.hexdigest()


def _write_json(path: Path, payload) -> str:
    return _write_text(
        path, (json.dumps(payload, indent=2, sort_keys=True) + "\n",))


def _load_library(args):
    """(library, name): ``--lib``, ``$EASIC_LIB`` or the built-in one.
    Its calibration warnings go to stderr; stdout may carry a CSV."""
    lib_path = getattr(args, "lib", None) or os.environ.get("EASIC_LIB")
    if lib_path:
        library, name = load_library_file(lib_path), str(lib_path)
    else:
        library, name = default_library(), "builtin-default"
    for warning in library.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return library, name


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliConfigError(f"cannot make output directory {out}: "
                             f"{exc.strerror}") from None
    return out


def _manifest(command, inputs, config, outputs, out_dir):
    """Write manifest.json: ``inputs`` maps input names to the digests of
    the bytes read, ``outputs`` output names to those of the bytes
    written."""
    _write_json(out_dir / "manifest.json", {
        "tool": "easic",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "config": config,
        "outputs": outputs,
    })


# -- obfuscate ---------------------------------------------------------------


def cmd_obfuscate(args) -> int:
    inputs = {}
    netlist = parse_blif(_read_text(args.input, BlifError, inputs))
    library, lib_name = _load_library(args)
    config = ObfuscationConfig(obf_percent=args.obf, seed=args.seed,
                               library=library)
    out = _out_dir(args)
    result = run_obfuscation(netlist, config)

    # the hybrid is checked once for both emitters, and both are called
    # before any file is written, so that a netlist they refuse leaves no
    # output file behind
    order = result.netlist.validate()
    blif = emit_blif(result.netlist, order)
    verilog = emit_verilog(result.netlist, order)
    digests = {}

    def save(name, write, payload):
        digests[name] = write(out / name, payload)

    save("easic.blif", _write_text, blif)
    save("easic.v", _write_text, verilog)
    stream = bs.serialize(result.netlist)
    digests["easic.ebs"] = _sha256(bs.write_bitstream(stream, out / "easic.ebs"))
    save("chain.json", _write_json, bs.chain_manifest(stream))
    save("timing.json", _write_json, timing_report(result.graph).to_json_dict())
    save("area.json", _write_json, result.area_report().to_json_dict())
    save("constraints.json", _write_json, gen_case_constraints(result))
    save("trace.json", _write_json, result.to_json_dict())

    _manifest(
        "obfuscate",
        inputs=inputs,
        config={
            "obf_percent": float(args.obf),
            "seed": args.seed,
            "library": lib_name,
        },
        outputs=digests,
        out_dir=out,
    )
    st = stats(result.netlist)
    print(
        f"{netlist.name}: {len(result.l_re)} reconfigurable / "
        f"{len(result.l_st)} static LUTs, key {stream.total_len} bits, "
        f"gates {st.gate_count}, outputs in {out}"
    )
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _parse_levels(spec_text):
    try:
        levels = [float(part) for part in spec_text.split(",") if part != ""]
    except ValueError as exc:
        raise CliConfigError(f"bad --levels value: {spec_text!r}") from exc
    if not levels:
        raise CliConfigError("--levels is empty")
    return levels


def cmd_sweep(args) -> int:
    inputs = {}
    netlist = parse_blif(_read_text(args.input, BlifError, inputs))
    library, lib_name = _load_library(args)
    levels = _parse_levels(args.levels)
    out = _out_dir(args)
    rows = sweep(netlist, levels, library=library)
    csv_text = sweep_to_csv(rows)
    digest = _write_text(out / "sweep.csv", (csv_text,))
    _manifest(
        "sweep",
        inputs=inputs,
        config={
            "levels": levels,
            "seed": args.seed,
            "library": lib_name,
        },
        outputs={"sweep.csv": digest},
        out_dir=out,
    )
    sys.stdout.write(csv_text)
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _load_run_netlist(run: Path, *names, orders=None):
    """The parsed easic.blif of an obfuscate run directory, once the
    directory is known to hold it and the files ``names`` too (see
    ``parse_blif`` for ``orders``)."""
    needed = ("easic.blif", *names)
    if not all((run / name).is_file() for name in needed):
        raise CliConfigError(
            f"{run} is not an obfuscate output directory "
            f"(missing {' / '.join(needed)})"
        )
    return parse_blif(_read_text(run / "easic.blif", BlifError), orders)


def cmd_verify(args) -> int:
    orders = []     # each design is sorted once, as it is read
    golden = parse_blif(_read_text(args.golden, BlifError), orders)
    run = Path(args.easic)
    netlist = _load_run_netlist(run, "easic.ebs", orders=orders)
    state = bs.blank_state(netlist)
    bs.program(state, bs.read_bitstream(run / "easic.ebs"))
    cut = prove_by_cuts(golden, state, orders)
    if cut.proved:
        rep = EquivalenceReport(
            mode="cut-point", equivalent=True, vectors=cut.patterns,
            note=f"cut-point proof over {cut.cells} cells, {cut.ffs} FFs matched")
    else:
        # a cut mismatch may be unobservable: simulation gives the verdict
        rep = check_equivalence(golden, state,
                                EquivalencePolicy(seed=args.seed), orders)
        n = len(cut.mismatches)
        rep.note += (f"; cut-point check: {n} mismatch{'es' if n > 1 else ''}, "
                     f"first {cut.mismatches[0]}")
    out = _out_dir(args)
    _write_json(out / "verify.json", rep.to_json_dict())
    if rep.equivalent:
        print(f"equivalent ({rep.note})")
        return EXIT_OK
    print(f"counterexample found ({rep.note}); see verify.json")
    return EXIT_COUNTEREXAMPLE


# -- attack ------------------------------------------------------------------


def _result_from_run_dir(path) -> ObfuscationResult:
    """The obfuscation result an attack sees in a run directory: the
    hybrid netlist and the conversion trace, which must describe it."""
    run = Path(path)
    netlist = _load_run_netlist(run)
    if not (run / "trace.json").is_file():
        raise CliConfigError(f"{path}/trace.json is required for this attack")
    payload = _read_json(run / "trace.json")
    try:
        return result_from_json(payload, netlist)
    except _SHAPE_ERRORS as exc:
        raise CliConfigError(f"{path}/trace.json: not a conversion trace "
                             f"({type(exc).__name__}: {exc})") from None
    except TraceMismatch as exc:
        raise CliConfigError(f"{path}/trace.json does not describe "
                             f"easic.blif: {exc}") from None


def _load_corpus_dir(path):
    corpus_dir = Path(path)
    if not corpus_dir.is_dir():
        raise CliConfigError(f"missing corpus directory: {corpus_dir}")
    histograms = []
    for entry in sorted(corpus_dir.glob("*.histogram.json")):
        histograms.append(_read_histogram(entry))
    if not histograms:
        raise CliConfigError(f"no *.histogram.json files in {corpus_dir}")
    return histograms


def cmd_attack_structural(args) -> int:
    source = Path(args.input)
    if source.is_dir():
        result = _result_from_run_dir(source)
        hist = atk.pattern_histogram(result, args.scope)
    else:
        netlist = parse_blif(_read_text(source, BlifError))
        hist = atk.pattern_histogram(netlist, args.scope)
    fit = None
    if args.degree is not None and hist.entries:
        fit = atk.fit_trendline(hist, args.degree)
    out = _out_dir(args)
    _write_json(out / "histogram.json", hist.to_json_dict())
    ranks = ["rank,frequency"]
    ranks += [f"{e.ident},{e.frequency}" for e in hist.entries]
    _write_text(out / "ranks.csv", ("\n".join(ranks) + "\n",))
    if not hist.entries:
        print("warning: empty histogram for this scope")
    if fit is not None:
        _write_json(out / "trendline.json", {
            "degree": fit.degree,
            "coefficients": list(fit.coefficients),
            "max_abs_residual": fit.max_abs_residual,
        })
    print(
        f"{hist.design} [{hist.scope}]: {hist.unique_count} unique patterns, "
        f"{hist.total} LUTs"
    )
    return EXIT_OK


def cmd_attack_corpus(args) -> int:
    # model name -> histogram; each name names a file in --out
    histograms = {}
    for blif_path in args.inputs:
        netlist = parse_blif(_read_text(blif_path, BlifError))
        name = netlist.name
        if (name in ("", ".", "..") or Path(name).name != name
                or "\0" in name):
            raise CliConfigError(f"{blif_path}: model name {name!r} is not "
                                 "a file name")
        if name in histograms:
            raise CliConfigError(f"{blif_path}: model name {name!r} is "
                                 "already taken by another input")
        histograms[name] = atk.pattern_histogram(netlist, atk.SCOPE_WHOLE)
    out = _out_dir(args)
    for name, hist in histograms.items():
        _write_json(out / f"{name}.histogram.json", hist.to_json_dict())
    union = atk.corpus_union(histograms.values())
    _write_json(out / "union.json", {
        "m": union.m,
        "contributing": union.contributing,
        "settling": [
            {"design": d, "new_patterns": n, "cumulative": c}
            for d, n, c in union.settling
        ],
    })
    settling = ["design,new_patterns,cumulative"]
    settling += [f"{d},{n},{c}" for d, n, c in union.settling]
    _write_text(out / "settling.csv", ("\n".join(settling) + "\n",))
    print(f"corpus of {len(histograms)} designs: m = {union.m} unique patterns")
    return EXIT_OK


def cmd_attack_composition(args) -> int:
    result = None
    if Path(args.victim).is_dir():
        result = _result_from_run_dir(args.victim)
        victim = atk.pattern_histogram(result, atk.SCOPE_STATIC)
    else:
        victim = _read_histogram(args.victim)
    corpus = _load_corpus_dir(args.corpus)
    report = atk.composition_attack(victim, corpus, threshold=args.threshold)
    out = _out_dir(args)
    _write_json(out / "composition.json", report.to_json_dict())
    if result is not None:
        space = atk.search_space_report(result, victim, corpus, report)
        _write_json(out / "search_space.json", space.to_json_dict())
    if report.warning:
        print(f"warning: {report.warning}")
    top = report.matches[0] if report.matches else None
    print(
        f"{victim.design}: {report.classification}"
        + (f" (top match {top[0]}, r={top[1]:.4f})" if top else "")
    )
    return EXIT_OK


def cmd_attack_bruteforce(args) -> int:
    orders = []     # each netlist is sorted once, as it is read
    netlist = _load_run_netlist(Path(args.easic), orders=orders)
    golden = parse_blif(_read_text(args.golden, BlifError), orders)
    result = atk.brute_force_key(netlist, golden,
                                 max_key_bits=args.max_key_bits, orders=orders)
    out = _out_dir(args)
    _write_json(out / "bruteforce.json", result.to_json_dict())
    bs.write_bitstream(result.recovered, out / "recovered.ebs")
    print(
        f"recovered a functionally correct {result.key_bits}-bit key in "
        f"{result.trials} trials"
        + ("" if result.matches_original else " (differs from shipped key)")
    )
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it takes
    over a millisecond, which a process running many commands would
    otherwise pay on every one."""
    parser = argparse.ArgumentParser(
        prog="easic",
        description="Tuneable LUT-netlist obfuscation tool",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obfuscate", help="convert a LUT netlist to a hybrid")
    p.add_argument("--input", required=True, help="input BLIF netlist")
    p.add_argument("--obf", required=True, type=float,
                   help="percent of LUTs left reconfigurable (0..100)")
    p.add_argument("--lib", help="technology library JSON (or $EASIC_LIB)")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the outputs; the engine never reads it")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("sweep", help="obfuscate at several levels, emit CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--levels", required=True,
                   help="comma-separated obfuscation percentages")
    p.add_argument("--lib")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in manifest.json; never read")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="program the bitstream and check "
                                      "equivalence against a golden netlist")
    p.add_argument("--golden", required=True)
    p.add_argument("--easic", required=True,
                   help="output directory of an obfuscate run")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attack", help="reverse-engineering analyses")
    attack_sub = p.add_subparsers(dest="attack_command", required=True)

    q = attack_sub.add_parser("structural", help="pattern statistics")
    q.add_argument("--input", required=True,
                   help="BLIF netlist or obfuscate output directory")
    q.add_argument("--scope", default=atk.SCOPE_WHOLE,
                   choices=[atk.SCOPE_WHOLE, atk.SCOPE_STATIC, atk.SCOPE_RECONF])
    q.add_argument("--degree", type=int, default=None,
                   help="fit a polynomial trendline of this degree")
    q.add_argument("--out")
    q.set_defaults(func=cmd_attack_structural)

    q = attack_sub.add_parser("corpus", help="build a histogram database")
    q.add_argument("--inputs", nargs="+", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_attack_corpus)

    q = attack_sub.add_parser("composition", help="correlate a victim "
                                                  "against known designs")
    q.add_argument("--victim", required=True,
                   help="obfuscate output directory or histogram JSON")
    q.add_argument("--corpus", required=True,
                   help="directory of *.histogram.json files")
    q.add_argument("--threshold", type=float, default=atk.DEFAULT_THRESHOLD)
    q.add_argument("--out")
    q.set_defaults(func=cmd_attack_composition)

    q = attack_sub.add_parser("bruteforce", help="enumerate small keys")
    q.add_argument("--easic", required=True)
    q.add_argument("--golden", required=True)
    q.add_argument("--max-key-bits", type=int, default=20)
    q.add_argument("--out")
    q.set_defaults(func=cmd_attack_bruteforce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BlifError, NetlistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CliConfigError, LibraryError, ObfuscationError, SimError,
            bs.BitstreamError, atk.AttackError, VerilogEmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # inputs are read through _read_text or checked to be files first,
        # so an OSError that gets here is taken to come from an output
        print(f"error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_CONFIG
    except StaticGenError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
