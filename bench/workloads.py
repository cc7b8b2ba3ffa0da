"""The two workloads: their inputs, their easic commands and their checks.

A workload is a list of `easic` commands run in one process, made of
two parts that stress different layers.  Inputs that depend on --seed
are made here; the program only sees the files.

Seeds and why:
* The LUT6 DAGs take their connectivity from a fixed shape seed and
  their masks from --seed.  Connectivity decides how much path search
  the conversion loop does, so a seeded shape made one sweep take 7.7 s
  on one seed and 16.3 s on another; seeded masks keep the work alike
  from seed to seed while the hybrids still differ.
* The corpus workloads add one sequential design (`seqmix`, fixed
  shape, seeded masks) to the twelve designs of designs/, so their
  hybrids differ by seed too.
* The brute-force toys are fixed: the trials a brute force needs are
  uniform over the key space, so seeded keys would swing the run time
  of the attack part from seed to seed.  TOY_SEEDS are the toys among
  seeds 1..60 whose brute force at 50% takes 1,000 to 15,000 trials
  (about 30,000 in all): fewer trials time nothing but start-up, more
  would leave the other attacks a small share of the round.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import checker

SHAPE_SEED = 99
TOY_SEEDS = (6, 20, 23, 31, 32, 48, 53, 59)
CORPUS_LEVELS = (0, 50, 86, 100)
ATTACK_LEVELS = (0, 50, 86)
SWEEP_LEVELS = tuple(range(100, -1, -10))
OBFUSCATE_LEVEL = 50
TOY_LEVEL = 50


@dataclass
class Command:
    argv: list
    expect: int = 0


@dataclass
class Plan:
    """What one run of a workload does, in order."""

    setup_inputs: list                        # netlists a fresh set-up parses
    prep: list = field(default_factory=list)  # commands before the timed rounds
    rounds: object = None  # one round's commands, or a callable listing
                           # them once the prep commands have run
    check: object = None   # callable(run_cli, lib, figures)


# -- input generators --------------------------------------------------------


def _names_block(ins, out, table):
    rows = ["".join("1" if (m >> j) & 1 else "0" for j in range(len(ins))) + " 1"
            for m in range(1 << len(ins)) if (table >> m) & 1]
    return [".names " + " ".join(list(ins) + [out])] + rows


def lut6_dag(name, n_luts, mask_seed, n_pis=8, n_outs=8):
    """A c7552-scale LUT6 DAG: each LUT reads 6 distinct earlier nets."""
    shape = random.Random(SHAPE_SEED)
    masks = random.Random(mask_seed)
    nets = [f"i{k}" for k in range(n_pis)]
    body = []
    for k in range(n_luts):
        ins = shape.sample(nets, 6)
        out = f"u{k:04d}"
        body += _names_block(ins, out, masks.getrandbits(64))
        nets.append(out)
    head = [f".model {name}", ".inputs " + " ".join(nets[:n_pis]),
            ".outputs " + " ".join(nets[-n_outs:])]
    return "\n".join(head + body + [".end"]) + "\n"


def random_design(name, shape_seed, mask_seed, n_pis, n_luts, n_ffs, widths,
                  n_outs):
    """LUTs over primary inputs, FF outputs and earlier LUTs; every FF
    latches one LUT.  The shape seed draws the connectivity, the mask
    seed the truth tables."""
    shape = random.Random(shape_seed)
    masks = random.Random(mask_seed)
    pis = [f"i{k}" for k in range(n_pis)]
    qs = [f"q{k}" for k in range(n_ffs)]
    nets = pis + qs
    body = []
    luts = []
    for k in range(n_luts):
        width = min(shape.choice(widths), len(nets))
        out = f"n{k}"
        body += _names_block(shape.sample(nets, width), out,
                             masks.getrandbits(1 << width))
        nets.append(out)
        luts.append(out)
    latches = [f".latch {shape.choice(luts)} {q} re clk {shape.randint(0, 1)}"
               for q in qs]
    head = [f".model {name}", ".inputs " + " ".join(pis),
            ".outputs " + " ".join(luts[-n_outs:])]
    return "\n".join(head + latches + body + [".end"]) + "\n"


def seqmix(seed):
    return random_design("seqmix", SHAPE_SEED, seed, n_pis=3, n_luts=12,
                         n_ffs=4, widths=(3, 4), n_outs=3)


def toy(seed):
    return random_design(f"toy{seed}", seed, seed, n_pis=6, n_luts=6, n_ffs=0,
                         widths=(2, 3), n_outs=2)


# -- shared pieces -----------------------------------------------------------


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _corpus(work, repo, seed):
    """designs/*.blif plus the seeded `seqmix`, copied into the run."""
    out = []
    for src in sorted((repo / "designs").glob("*.blif")):
        out.append(work / "designs" / src.name)
        out[-1].parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, out[-1])
    out.append(_write(work / "designs" / "seqmix.blif", seqmix(seed)))
    return out


def _obfuscate(src, level, out):
    return Command(["obfuscate", "--input", str(src), "--obf", str(level),
                    "--out", str(out)])


def _verify(src, run, out, seed, expect=0):
    return Command(["verify", "--golden", str(src), "--easic", str(run),
                    "--out", str(out), "--seed", str(seed)], expect)


def _plant_fault(run_cli, src, run, work, tag, rng):
    """Flip an observable configuration bit of a run; `easic verify` must
    exit 5 and its counterexample must replay in the checker."""
    source = checker.read_blif_file(src)
    hybrid = checker.read_blif_file(run / "easic.blif")
    data = (run / "easic.ebs").read_bytes()
    ebs = checker.read_ebs(data)
    index, flipped = checker.observable_flip(source, hybrid, ebs, rng)
    bad = work / "planted" / tag
    bad.mkdir(parents=True, exist_ok=True)
    for name in ("easic.blif", "trace.json"):
        shutil.copyfile(run / name, bad / name)
    (bad / "easic.ebs").write_bytes(checker.flip_ebs_bit(data, ebs, index))
    if run_cli(_verify(src, bad, bad, 0, expect=5)):
        report = checker.read_json(bad / "verify.json")
        checker.expect(report["verdict"] == "counterexample",
                       f"{tag}: verify of a flipped bit says {report['verdict']}")
        checker.expect(
            checker.replays(checker.Machine(source),
                            checker.programmed(hybrid, flipped),
                            report["counterexample"]),
            f"{tag}: the counterexample does not replay")


# -- the four parts of the two workloads --------------------------------------


def lut6_obfuscate(work, repo, seed):
    """`obfuscate --obf 50` and `verify` of a 430-LUT6 DAG."""
    src = _write(work / "lut6_430.blif", lut6_dag("lut6_430", 430, seed))
    run, out = work / "run", work / "verify"

    def check(run_cli, lib, figures):
        rng = random.Random(seed)
        checker.check_obfuscate_run(src, OBFUSCATE_LEVEL, run, lib, rng, figures)
        _plant_fault(run_cli, src, run, work, "lut6_430", rng)

    return Plan(setup_inputs=[src],
                rounds=[_obfuscate(src, OBFUSCATE_LEVEL, run),
                        _verify(src, run, out, seed)],
                check=check)


def lut6_sweep(work, repo, seed):
    """`sweep` of a 120-LUT6 DAG from 100% down to 0%."""
    src = _write(work / "lut6_120.blif", lut6_dag("lut6_120", 120, seed))
    out = work / "sweep"

    def check(run_cli, lib, figures):
        checker.check_sweep(src, SWEEP_LEVELS, out / "sweep.csv", lib, figures)

    levels = ",".join(str(level) for level in SWEEP_LEVELS)
    return Plan(setup_inputs=[src],
                rounds=[Command(["sweep", "--input", str(src), "--levels", levels,
                                 "--out", str(out)])],
                check=check)


def corpus_verify(work, repo, seed):
    """`obfuscate` and `verify` of every corpus design at four levels."""
    designs = _corpus(work, repo, seed)
    runs = [(src, level, work / "runs" / f"{src.stem}_{level}")
            for src in designs for level in CORPUS_LEVELS]
    rounds = []
    for src, level, run in runs:
        rounds += [_obfuscate(src, level, run), _verify(src, run, run / "verify", seed)]

    def check(run_cli, lib, figures):
        rng = random.Random(seed)
        for src, level, run in runs:
            checker.check_obfuscate_run(src, level, run, lib, rng, figures)
        hosts = [(src, run) for src, level, run in runs if level == 86]
        seq = [h for h in hosts if checker.read_blif_file(h[0]).sequential]
        comb = [h for h in hosts if h not in seq]
        for src, run in (rng.choice(comb), rng.choice(seq)):
            _plant_fault(run_cli, src, run, work, src.stem, rng)

    return Plan(setup_inputs=designs, rounds=rounds, check=check)


def _static_patterns(src, run):
    source = checker.read_blif_file(src)
    converted = [e["lut"] for e in checker.read_json(run / "trace.json")["conversions"]]
    return len(checker.pattern_counts(
        (source.cells[n].table, source.cells[n].width) for n in converted))


def corpus_attack(work, repo, seed):
    """The attacks on victims and toys obfuscated before the timed rounds."""
    designs = _corpus(work, repo, seed)
    toys = [_write(work / "toys" / f"toy{s}.blif", toy(s)) for s in TOY_SEEDS]
    victims = [(src, level, work / "victims" / f"{src.stem}_{level}")
               for src in designs for level in ATTACK_LEVELS]
    toy_runs = [(src, TOY_LEVEL, work / "toyruns" / src.stem) for src in toys]
    corpus = work / "corpus"

    def rounds():
        out = [Command(["attack", "corpus", "--inputs", *map(str, designs),
                        "--out", str(corpus)])]
        for src, level, run in victims:
            out.append(Command(["attack", "composition", "--victim", str(run),
                                "--corpus", str(corpus),
                                "--out", str(run / "composition")]))
            # a cubic trendline needs four distinct static patterns
            degree = ["--degree", "3"] if _static_patterns(src, run) >= 4 else []
            out.append(Command(["attack", "structural", "--input", str(run),
                                "--scope", "static-portion", *degree,
                                "--out", str(run / "structural")]))
        for src, _, run in toy_runs:
            out.append(Command(["attack", "bruteforce", "--easic", str(run),
                                "--golden", str(src),
                                "--out", str(run / "bruteforce")]))
        return out

    def check(run_cli, lib, figures):
        rng = random.Random(seed)
        checker.check_corpus(designs, corpus)
        for src, level, run in victims + toy_runs:
            checker.check_obfuscate_run(src, level, run, lib, rng, figures)
        for src, level, run in victims:
            checker.check_structural(src, run, run / "structural")
            space = checker.read_json(run / "composition" / "search_space.json")
            checker.expect(space["key_bits"] == checker.key_bits(
                checker.read_blif_file(run / "easic.blif")),
                f"{run.name}: search_space.json has the wrong key length")
            if level == 0:
                checker.check_self_correlation(src, run / "composition")
        for src, _, run in toy_runs:
            checker.check_bruteforce(src, run, run / "bruteforce")

    return Plan(setup_inputs=designs + toys,
                prep=[_obfuscate(src, level, run) for src, level, run in victims + toy_runs],
                rounds=rounds, check=check)


# -- workloads ---------------------------------------------------------------


def combine(*parts):
    """One workload made of parts; each part's commands and checks in turn."""
    def build(work, repo, seed):
        plans = [part(work, repo, seed) for part in parts]
        inputs = []
        for plan in plans:
            inputs += [p for p in plan.setup_inputs if p not in inputs]

        def rounds():
            return [c for plan in plans
                    for c in (plan.rounds() if callable(plan.rounds) else plan.rounds)]

        def check(run_cli, lib, figures):
            for plan in plans:
                plan.check(run_cli, lib, figures)

        return Plan(setup_inputs=inputs,
                    prep=[c for plan in plans for c in plan.prep],
                    rounds=rounds, check=check)
    return build


WORKLOADS = {
    "lut6-obfuscate-sweep": combine(lut6_obfuscate, lut6_sweep),
    "corpus-verify-attack": combine(corpus_verify, corpus_attack),
}
