"""The checker must reject planted wrong outputs.

    python3 -m pytest bench/test_checker.py -q
"""

import json
import random
import shutil

import pytest

import checker
import run
import workloads
from workloads import Command

easic = run.load_easic()
LIB = easic.default_library()
DESIGNS = run.ROOT / "designs"


def cli(*argv, expect=0):
    runner = run.Runner(easic.cli)
    assert runner(Command(list(map(str, argv)), expect))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A combinational and a sequential design obfuscated at 50%."""
    base = tmp_path_factory.mktemp("runs")
    out = {}
    for name in ("cmp4", "counter8"):
        src = DESIGNS / f"{name}.blif"
        cli("obfuscate", "--input", src, "--obf", 50, "--out", base / name)
        out[name] = (src, base / name)
    return out


def copy_run(run_dir, tmp_path):
    dest = tmp_path / run_dir.name
    shutil.copytree(run_dir, dest)
    return dest


def edit_json(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def check(src, run_dir, obf=50):
    return checker.check_obfuscate_run(src, obf, run_dir, LIB, random.Random(1))


@pytest.mark.parametrize("name", ["cmp4", "counter8"])
def test_clean_run_passes(runs, name):
    check(*runs[name])


def plant_flip(src, run_dir, rng_seed=3):
    source = checker.read_blif_file(src)
    hybrid = checker.read_blif_file(run_dir / "easic.blif")
    data = (run_dir / "easic.ebs").read_bytes()
    ebs = checker.read_ebs(data)
    index, flipped = checker.observable_flip(source, hybrid, ebs,
                                             random.Random(rng_seed))
    (run_dir / "easic.ebs").write_bytes(checker.flip_ebs_bit(data, ebs, index))
    return source, hybrid, flipped


@pytest.mark.parametrize("name", ["cmp4", "counter8"])
def test_flipped_configuration_bit_is_rejected(runs, name, tmp_path):
    src, good = runs[name]
    bad = copy_run(good, tmp_path)
    plant_flip(src, bad)
    with pytest.raises(checker.CheckError, match="differs from its source"):
        check(src, bad)


@pytest.mark.parametrize("name", ["cmp4", "counter8"])
def test_planted_fault_counterexample_replays(runs, name, tmp_path):
    src, good = runs[name]
    bad = copy_run(good, tmp_path)
    source, hybrid, flipped = plant_flip(src, bad)
    cli("verify", "--golden", src, "--easic", bad, "--out", bad, expect=5)
    cex = checker.read_json(bad / "verify.json")["counterexample"]
    golden = checker.Machine(source)
    assert checker.replays(golden, checker.programmed(hybrid, flipped), cex)
    shipped = checker.read_ebs((good / "easic.ebs").read_bytes())
    assert not checker.replays(golden, checker.programmed(hybrid, shipped), cex)


def test_cp_off_by_one_gate_delay_is_rejected(runs, tmp_path):
    src, good = runs["cmp4"]
    bad = copy_run(good, tmp_path)
    edit_json(bad / "timing.json",
              lambda t: t.update(cp_ns=t["cp_ns"] + LIB.gate_delay["INV"]))
    with pytest.raises(checker.CheckError, match="reported CP"):
        check(src, bad)


def test_wrong_converted_lut_count_is_rejected(runs):
    src, good = runs["cmp4"]
    with pytest.raises(checker.CheckError, match="LUTs converted"):
        check(src, good, obf=40)


def test_wrong_key_bits_is_rejected(runs, tmp_path):
    src, good = runs["counter8"]
    bad = copy_run(good, tmp_path)
    edit_json(bad / "chain.json", lambda c: c.update(total_bits=c["total_bits"] + 1))
    with pytest.raises(checker.CheckError, match="key of"):
        check(src, bad)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    src = base / "dag.blif"
    src.write_text(workloads.lut6_dag("dag", 24, 5))
    cli("sweep", "--input", src, "--levels", "100,50,0", "--out", base)
    return src, base / "sweep.csv"


def tamper_row(csv, row, column, delta, tmp_path):
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    col = header.index(column)
    cells[col] = str(type(delta)(float(cells[col])) + delta)
    lines[row] = ",".join(cells)
    out = tmp_path / "sweep.csv"
    out.write_text("\n".join(lines) + "\n")
    return out


def test_clean_sweep_passes(sweep):
    checker.check_sweep(sweep[0], (100, 50, 0), sweep[1], LIB)


@pytest.mark.parametrize("row,column,delta,message", [
    (2, "lut_st", 1, "converted"),
    (2, "lut_re", 1, "converted"),
    (1, "cp_ns", 0.01, "computed"),   # one INV delay at 100%
    (3, "cp_ns", 5.0, "CP rose"),
])
def test_tampered_sweep_is_rejected(sweep, row, column, delta, message, tmp_path):
    bad = tamper_row(sweep[1], row, column, delta, tmp_path)
    with pytest.raises(checker.CheckError, match=message):
        checker.check_sweep(sweep[0], (100, 50, 0), bad, LIB)
