#!/usr/bin/env python3
"""Check that two easic source trees write the same bytes.

    python3 scripts/byte_identity.py --parent <src> --change <src> [--work <dir>]

Each <src> is a directory holding the ``easic`` package (a tree's
``src/``).  One fixed set of inputs is written once, entirely with the
parent tree: its ``easic`` and the ``tests/circuits.py`` of its
checkout (``<parent>/../tests``), so the inputs never depend on the
change's test helpers:

* the 12 designs under designs/;
* ``scripts/reader_paths.blif``, written by hand to hold the reader's
  rarer paths (continuations, comments, ``-`` cubes, covers listed with
  output 0, constant blocks, repeated covers);
* ``bench/workloads.lut6_dag`` at 120 LUT6 for mask seeds 1-3, and at
  430 and 1000 LUT6 for mask seed 1;
* ``bench/workloads.seqmix`` for seeds 1-8, and ``bench/workloads.toy``
  for seeds 1-8 and ``bench/workloads.TOY_SEEDS``;
* eight ``tests/circuits.random_seq_netlist`` designs from seeds 1-8,
  written as ``"".join(emit_blif(...))`` with the parent tree, which
  reads the same whether its ``emit_blif`` returns a string or an
  iterator of chunks;
* the FLIPS run directories: a design obfuscated by the parent tree with
  one bit of its easic.ebs flipped (``bench/checker.flip_ebs_bit``).

Both trees then run the same `easic` commands through ``easic.cli.main``,
each tree in its own interpreter under PYTHONHASHSEED=0 and in its own
working directory, with the same relative paths.  Per input: obfuscate
at 0/37/50/86/100 percent, each followed by verify; the composition
attack (against a histogram corpus of the 12 designs) and the
structural attack at 37 and 86 percent, the latter also over the static
portion with a trendline of degree 1 and of degree 3 wherever that
portion holds more patterns than the degree; three sweeps.  Then the
brute-force attack on each TOY_SEEDS toy at 0, 50 and 86 percent (an
empty key, keys of 12-20 bits, keys over the 20-bit cap), and on the
MISMATCH toy at 50 percent against another toy's golden design, the
430- and 1000-LUT6 DAGs at 50 percent, each followed by verify, and a
verify of each FLIPS directory.  Last, the rewrite pass: per input but
the two large DAGs, obfuscate again at every level into one shared
directory, ascending and then descending (0, 37, ..., 100, 86, ..., 0),
so that each output file is rewritten over a longer and a shorter one.

Every file the commands write, and every command's exit code, standard
output and standard error, must be the same in both trees.  Each FLIPS
verify must end in the mode and exit code listed for it, and the
MISMATCH brute force in exit 3 with the key space exhausted.  In each
tree, the files a rewrite-pass command leaves in its directory must be
those the same command wrote into a fresh directory, and no others.  In
the change tree, every output digest of every manifest.json the commands
wrote must be the sha256 of that file on disk: a tree hashes its
outputs as it writes them, so two trees that agree byte for byte could
still both record a digest that no file has.  The script prints the
differences it finds and exits 1 when there is any, 0 when there is
none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# LUT6 DAGs (mask seed 1) obfuscated at 50 percent only: the loop is slow
BIG = (430, 1000)
LEVELS = (0, 37, 50, 86, 100)
ATTACK_LEVELS = (37, 86)
# static-portion trendlines fitted at ATTACK_LEVELS
FIT_DEGREES = (1, 3)
SWEEPS = ("100,50,0", "0,37,50,86,100", "90,10")
TOY_LEVELS = (0, 50, 86)
# (toy seed, toy seed): the first toy's hybrid at 50 percent brute-forced
# against the second's golden design; same ports, different functions
MISMATCH = (6, 20)
# (design, obf percent, flipped stream bit, verify mode, verify exit code):
# counterexamples of every simulation mode, and two flips that the
# cut-point check refutes but sampling passes
FLIPS = (
    ("cmp4", 50, 5, "exhaustive", 5),
    ("mux16", 50, 0, "random", 5),
    ("mux16", 50, 1, "random", 0),
    ("sbm29", 50, 4, "sequential", 5),
    ("counter8", 50, 3, "sequential", 0),
)

# Runs one tree's commands in this directory and writes results.json:
# argv[1] is the tree's src/, argv[2] the JSON list of command lines.
# Each result holds the digests of the files in the command's --out
# directory right after the command, which the rewrite pass compares.
RUNNER = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import easic
from easic.cli import main
if Path(easic.__file__).resolve() != src / "easic" / "__init__.py":
    sys.exit(f"easic resolves to {easic.__file__}, not to {src}")
results = []
for argv in json.loads(Path(sys.argv[2]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    out_dir = Path(argv[argv.index("--out") + 1])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out_dir.glob("*")) if p.is_file()}
    results.append({"argv": argv, "code": code, "files": files,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})
Path("results.json").write_text(json.dumps(results, indent=1) + "\n")
"""


def write_inputs(inputs: Path):
    """Write every input BLIF into ``inputs`` with the parent tree;
    returns (name, path) pairs (paths relative to a tree's working
    directory)."""
    import circuits
    import workloads
    from easic import emit_blif

    texts = {}
    for src in sorted((REPO / "designs").glob("*.blif")):
        texts[src.stem] = src.read_text(encoding="utf-8")
    texts["reader_paths"] = (REPO / "scripts" / "reader_paths.blif").read_text(
        encoding="utf-8")
    for seed in (1, 2, 3):
        texts[f"lut6_120_{seed}"] = workloads.lut6_dag(f"lut6_{seed}", 120, seed)
    for seed in range(1, 9):
        texts[f"seqmix{seed}"] = workloads.seqmix(seed)
    for seed in sorted({*range(1, 9), *workloads.TOY_SEEDS}):
        texts[f"toy{seed}"] = workloads.toy(seed)
    for seed in range(1, 9):
        rng = random.Random(seed)
        texts[f"randseq{seed}"] = "".join(emit_blif(
            circuits.random_seq_netlist(rng, n_cells=rng.randint(4, 14),
                                        name=f"randseq{seed}")))
    for size in BIG:
        texts[f"lut6_{size}"] = workloads.lut6_dag(f"lut6_{size}", size, 1)
    inputs.mkdir(parents=True)
    for name, text in texts.items():
        (inputs / f"{name}.blif").write_text(text, encoding="utf-8")
    return [(name, f"{inputs.name}/{name}.blif") for name in texts]


def write_flips(inputs: Path):
    """Obfuscate each FLIPS design with the parent tree and flip one bit
    of its bitstream; returns the run directories (relative paths)."""
    import checker
    from easic.cli import main

    runs = []
    for design, level, bit, _, _ in FLIPS:
        run = inputs / "flips" / f"{design}_{level}_bit{bit}"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["obfuscate", "--input", str(inputs / f"{design}.blif"),
                  "--obf", str(level), "--out", str(run)])
        ebs = run / "easic.ebs"
        data = ebs.read_bytes()
        ebs.write_bytes(checker.flip_ebs_bit(data, checker.read_ebs(data), bit))
        runs.append(str(run.relative_to(inputs.parent)))
    return runs


def static_patterns(blif: Path, level):
    """Distinct patterns in the static portion of ``blif`` obfuscated at
    ``level`` percent by the parent tree."""
    from easic import (ObfuscationConfig, parse_blif, pattern_histogram,
                       run_obfuscation)
    from easic.attacks import SCOPE_STATIC

    result = run_obfuscation(parse_blif(blif.read_text(encoding="utf-8")),
                             ObfuscationConfig(obf_percent=level))
    return pattern_histogram(result, SCOPE_STATIC).unique_count


def command_lines(work: Path, inputs, flips):
    from workloads import TOY_SEEDS

    corpus = {src.stem for src in (REPO / "designs").glob("*.blif")}
    designs = [path for name, path in inputs if name in corpus]
    cmds = [["attack", "corpus", "--inputs", *designs, "--out", "corpus"]]
    big = {f"lut6_{size}" for size in BIG}
    for name, path in inputs:
        if name in big:
            continue
        for level in LEVELS:
            run = f"runs/{name}/obf{level}"
            cmds.append(["obfuscate", "--input", path, "--obf", str(level),
                         "--out", run])
            cmds.append(["verify", "--golden", path, "--easic", run,
                         "--out", f"{run}/verify"])
        for level in ATTACK_LEVELS:
            run = f"runs/{name}/obf{level}"
            cmds.append(["attack", "composition", "--victim", run,
                         "--corpus", "corpus", "--out", f"{run}/composition"])
            cmds.append(["attack", "structural", "--input", run,
                         "--out", f"{run}/structural"])
            # a fit of degree d needs d + 1 patterns
            patterns = static_patterns(work / path, level)
            for degree in FIT_DEGREES:
                if patterns > degree:
                    cmds.append(["attack", "structural", "--input", run,
                                 "--scope", "static-portion", "--degree",
                                 str(degree), "--out",
                                 f"{run}/trendline{degree}"])
        for k, levels in enumerate(SWEEPS):
            cmds.append(["sweep", "--input", path, "--levels", levels,
                         "--out", f"runs/{name}/sweep{k}"])
    paths = dict(inputs)
    for seed in TOY_SEEDS:
        for level in TOY_LEVELS:
            run = f"runs/toy{seed}/obf{level}"
            cmds.append(["attack", "bruteforce", "--easic", run, "--golden",
                         paths[f"toy{seed}"], "--out", f"{run}/bruteforce"])
    cmds.append(mismatch_command(paths))
    for size in BIG:
        run = f"runs/lut6_{size}/obf50"
        path = paths[f"lut6_{size}"]
        cmds.append(["obfuscate", "--input", path, "--obf", "50",
                     "--out", run])
        cmds.append(["verify", "--golden", path, "--easic", run,
                     "--out", f"{run}/verify"])
    for (design, *_), run in zip(FLIPS, flips):
        cmds.append(["verify", "--golden", paths[design], "--easic", run,
                     "--out", f"flips/{Path(run).name}"])
    for name, path in inputs:
        if name in big:
            continue
        for level in LEVELS + LEVELS[-2::-1]:
            cmds.append(["obfuscate", "--input", path, "--obf", str(level),
                         "--out", f"rewrite/{name}"])
    return cmds


def mismatch_command(paths):
    victim, golden = MISMATCH
    run = f"runs/toy{victim}/obf50"
    return ["attack", "bruteforce", "--easic", run, "--golden",
            paths[f"toy{golden}"], "--out", f"{run}/bruteforce-toy{golden}"]


def run_tree(src: Path, work: Path, commands: Path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", RUNNER, str(src), str(commands)],
                   cwd=work, env=env, check=True)
    return time.perf_counter() - start


def tree_files(root: Path):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def compare(parent: Path, change: Path):
    """Differences between the two working directories, as lines."""
    diffs = []
    a = json.loads((parent / "results.json").read_text())
    b = json.loads((change / "results.json").read_text())
    for ra, rb in zip(a, b):
        for key in ("code", "stdout", "stderr"):
            if ra[key] != rb[key]:
                diffs.append(f"{' '.join(ra['argv'])}: {key} "
                             f"{ra[key]!r} != {rb[key]!r}")
        names = sorted(name for name in ra["files"].keys() | rb["files"].keys()
                       if ra["files"].get(name) != rb["files"].get(name))
        if names:
            diffs.append(f"{' '.join(ra['argv'])}: {', '.join(names)} "
                         "differ right after the command")
    files_a, files_b = tree_files(parent), tree_files(change)
    for name in sorted(files_a ^ files_b):
        diffs.append(f"{name}: only in {'parent' if name in files_a else 'change'}")
    for name in sorted(files_a & files_b - {"results.json"}):
        if (parent / name).read_bytes() != (change / name).read_bytes():
            diffs.append(f"{name}: bytes differ")
    outputs = [n for n in files_a & files_b
               if n != "results.json" and not n.startswith("inputs/")]
    return diffs, len(outputs), a


def outcome_misses(parent: Path, results, paths):
    """FLIPS verifies (the commands writing under flips/) that no longer
    end in the listed mode and exit code, and a MISMATCH brute force that
    no longer ends in an exhausted key space."""
    misses = []
    argv = mismatch_command(paths)
    (result,) = (r for r in results if r["argv"] == argv)
    if (result["code"], "exhausted the key space" in result["stderr"]) != (3, True):
        misses.append(f"{' '.join(argv)}: parent gave exit {result['code']} "
                      f"{result['stderr']!r}, not exit 3 with the key space "
                      "exhausted")
    flips = [r for r in results if r["argv"][-1].startswith("flips/")]
    for (*_, mode, code), result in zip(FLIPS, flips, strict=True):
        out = result["argv"][-1]
        report = parent / out / "verify.json"
        got = (json.loads(report.read_text())["mode"]
               if report.is_file() else None, result["code"])
        if got != (mode, code):
            misses.append(f"{out}: parent verify gave mode {got[0]} exit "
                          f"{got[1]}, not mode {mode} exit {code}")
    return misses


def rewrite_misses(root: Path):
    """Rewrite-pass commands (--out under rewrite/) run in ``root`` whose
    directory did not hold exactly the files of the same command in a
    fresh directory (runs/<input>/obf<level>); and the number of commands
    checked."""
    misses = []
    checked = 0
    for result in json.loads((root / "results.json").read_text()):
        argv = result["argv"]
        out = Path(argv[argv.index("--out") + 1])
        if out.parent.name != "rewrite":
            continue
        checked += 1
        fresh = root / "runs" / out.name / f"obf{argv[argv.index('--obf') + 1]}"
        want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in fresh.iterdir() if p.is_file()}
        for name in sorted(want.keys() | result["files"].keys()):
            if want.get(name) != result["files"].get(name):
                misses.append(f"{root.name}: {' '.join(argv)}: {name} is not "
                              f"the file of {fresh.relative_to(root)}")
    return misses, checked


def digest_misses(root: Path):
    """Outputs, named in a manifest.json the commands wrote under
    ``root``, whose recorded digest is not the sha256 of the file; and
    the number of digests checked."""
    misses = []
    checked = 0
    for manifest in sorted(root.rglob("manifest.json")):
        rel = manifest.parent.relative_to(root)
        if rel.parts[0] == "inputs":
            continue
        outputs = json.loads(manifest.read_text())["outputs"]
        for name, digest in sorted(outputs.items()):
            checked += 1
            path = manifest.parent / name
            if not path.is_file():
                misses.append(f"{rel / name}: in manifest.json, not on disk")
            elif digest != "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest():
                misses.append(f"{rel / name}: manifest.json digest {digest} "
                              "is not the file's")
    return misses, checked


def src_dir(text):
    path = Path(text).resolve()
    if not (path / "easic" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} holds no easic package")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=src_dir)
    parser.add_argument("--change", required=True, type=src_dir)
    parser.add_argument("--work", type=Path,
                        help="empty directory to keep the outputs in "
                             "(default: a temporary one, removed)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        sys.path[:0] = [str(args.parent), str(REPO / "bench"),
                        str(args.parent.parent / "tests")]
        inputs = write_inputs(work / "inputs")
        flips = write_flips(work / "inputs")
        commands = work / "commands.json"
        commands.write_text(json.dumps(command_lines(work, inputs, flips),
                                       indent=1) + "\n")
        seconds = {}
        for side, src in (("parent", args.parent), ("change", args.change)):
            shutil.copytree(work / "inputs", work / side / "inputs")
            seconds[side] = run_tree(src, work / side, commands)
        diffs, n_files, results = compare(work / "parent", work / "change")
        diffs += outcome_misses(work / "parent", results, dict(inputs))
        for side in ("parent", "change"):
            misses, rewrites = rewrite_misses(work / side)
            diffs += misses
        misses, digests = digest_misses(work / "change")
        diffs += misses
    codes = sorted({str(r["code"]) for r in results})
    print(f"{len(inputs)} inputs, {len(results)} commands (exit codes "
          f"{', '.join(codes)}), {n_files} output files, {rewrites} "
          f"rewrites checked against fresh runs in each tree, {digests} "
          f"manifest digests checked in the change tree; parent "
          f"{seconds['parent']:.1f} s, change {seconds['change']:.1f} s")
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
