import builtins
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import easic
from easic import (ObfuscationConfig, emit_blif, parse_blif, read_bitstream,
                   run_obfuscation, serialize, write_bitstream)
from easic.bitstream import Bitstream
from easic.cli import main
from easic.netlist import LutMask, Netlist

from circuits import CUT_REFUSALS, cut_golden, lut, netlist


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def sbm_out(tmp_path, designs_dir):
    out = tmp_path / "run"
    code = run_cli("obfuscate", "--input", designs_dir / "sbm29.blif",
                   "--obf", "95", "--out", out)
    assert code == 0
    return out


def test_obfuscate_outputs(sbm_out):
    names = {p.name for p in sbm_out.iterdir()}
    assert names >= {
        "easic.blif", "easic.v", "easic.ebs", "chain.json", "timing.json",
        "area.json", "constraints.json", "trace.json", "manifest.json",
    }
    trace = json.loads((sbm_out / "trace.json").read_text())
    # 29 LUTs at 95 percent: exactly one conversion
    assert trace["lut_st"] == 1
    assert len(trace["conversions"]) == 1


def test_outputs_self_consume(sbm_out):
    netlist = parse_blif((sbm_out / "easic.blif").read_text())
    stream = read_bitstream(sbm_out / "easic.ebs")
    assert stream.total_len == sum(
        1 << c.mask.width for c in netlist.reconfigurable_luts())
    for name in ("chain.json", "timing.json", "area.json",
                 "constraints.json", "trace.json", "manifest.json"):
        json.loads((sbm_out / name).read_text())


def test_manifest_hashes_are_reproducible(tmp_path, designs_dir):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("obfuscate", "--input", designs_dir / "adder8.blif",
                       "--obf", "86", "--out", out) == 0
    m1 = (out1 / "manifest.json").read_bytes()
    m2 = (out2 / "manifest.json").read_bytes()
    assert m1 == m2


def test_obf_100_full_bitstream(tmp_path, designs_dir):
    out = tmp_path / "full"
    assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                   "--obf", "100", "--out", out) == 0
    area = json.loads((out / "area.json").read_text())
    assert area["area_st_um2"] == 0.0
    stream = read_bitstream(out / "easic.ebs")
    original = parse_blif((designs_dir / "cmp4.blif").read_text())
    assert len(stream.chain) == len(original.luts())


def test_obf_0_no_macros(tmp_path, designs_dir):
    out = tmp_path / "none"
    assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                   "--obf", "0", "--out", out) == 0
    assert read_bitstream(out / "easic.ebs").total_len == 0
    assert "LUT" not in (out / "easic.v").read_text()


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.blif"
    bad.write_text(".model m\n.inputs a\n.outputs y\n.names a y\nzz 1\n.end\n")
    assert run_cli("obfuscate", "--input", bad, "--obf", "50",
                   "--out", tmp_path / "o") == 2


def test_bad_obf_percent_exit_code(tmp_path, designs_dir):
    assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                   "--obf", "150", "--out", tmp_path / "o") == 3


def test_missing_input_exit_code(tmp_path):
    assert run_cli("obfuscate", "--input", tmp_path / "nope.blif",
                   "--obf", "50", "--out", tmp_path / "o") == 3


def test_sweep_csv(tmp_path, designs_dir, capsys):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--input", designs_dir / "sbm29.blif",
                   "--levels", "98,95,92,89,86", "--out", out)
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "obf,sum_cp_ns,cp_ns,area_re_um2,area_st_um2,lut_re,lut_st"
    st_column = [int(line.split(",")[-1]) for line in lines[1:]]
    assert st_column == [0, 1, 2, 3, 4]


def test_verify_ok(tmp_path, designs_dir, sbm_out):
    assert run_cli("verify", "--golden", designs_dir / "sbm29.blif",
                   "--easic", sbm_out, "--out", tmp_path / "v") == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["verdict"] == "equivalent"


def test_verify_detects_flipped_support_bit(tmp_path, designs_dir):
    out = tmp_path / "run"
    assert run_cli("obfuscate", "--input", designs_dir / "adder8.blif",
                   "--obf", "75", "--out", out) == 0

    from easic import lut_support
    from easic.bitstream import Bitstream, write_bitstream

    netlist = parse_blif((out / "easic.blif").read_text())
    stream = read_bitstream(out / "easic.ebs")
    pis = set(netlist.inputs)
    flip_at = None
    for entry in stream.offsets():
        cell = netlist.cells[entry["lut"]]
        if set(cell.inputs) <= pis:
            support = sorted(lut_support(cell.mask))
            # flip the output for the all-zeros-except-support vector
            flip_at = entry["offset"] + (1 << support[0])
            break
    assert flip_at is not None
    write_bitstream(Bitstream(stream.design, stream.chain,
                              stream.key ^ 1 << flip_at),
                    out / "easic.ebs")
    code = run_cli("verify", "--golden", designs_dir / "adder8.blif",
                   "--easic", out, "--out", tmp_path / "v")
    assert code == 5
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["verdict"] == "counterexample"
    assert report["counterexample"]


def test_verify_corrupted_bitstream_length(tmp_path, designs_dir, sbm_out):
    run_dir = tmp_path / "corrupt"
    shutil.copytree(sbm_out, run_dir)
    ebs = run_dir / "easic.ebs"
    data = bytearray(ebs.read_bytes())
    data[-1] ^= 0xFF
    data = data[:-1]
    ebs.write_bytes(bytes(data))
    assert run_cli("verify", "--golden", designs_dir / "sbm29.blif",
                   "--easic", run_dir, "--out", tmp_path / "v") == 3


def test_verify_rejects_trailing_bytes(tmp_path, designs_dir, sbm_out):
    run_dir = tmp_path / "long"
    shutil.copytree(sbm_out, run_dir)
    ebs = run_dir / "easic.ebs"
    ebs.write_bytes(ebs.read_bytes() + b"junk")
    assert run_cli("verify", "--golden", designs_dir / "sbm29.blif",
                   "--easic", run_dir, "--out", tmp_path / "v") == 3


def test_verify_proves_every_corpus_hybrid(tmp_path, designs_dir):
    for src in sorted(designs_dir.glob("*.blif")):
        for level in (0, 50, 86, 100):
            run = tmp_path / f"{src.stem}_{level}"
            assert run_cli("obfuscate", "--input", src, "--obf", level,
                           "--out", run) == 0
            assert run_cli("verify", "--golden", src, "--easic", run,
                           "--out", run) == 0
            report = json.loads((run / "verify.json").read_text())
            assert (report["method"], report["mode"], report["seed"]) == \
                ("cut-point-proof", "cut-point", None), (src.stem, level)
            assert report["note"].startswith("cut-point proof over ")


def _flip_bit(run, index):
    stream = read_bitstream(run / "easic.ebs")
    write_bitstream(Bitstream(stream.design, stream.chain,
                              stream.key ^ 1 << index),
                    run / "easic.ebs")


def test_verify_labels_a_sampled_verdict(tmp_path, designs_dir, capsys):
    # flipping bit 3 breaks the cut check on cc1, but random lock-step
    # cycles rarely reach the states that show it: the verdict is
    # sampled evidence, not a proof
    src = designs_dir / "counter8.blif"
    run = tmp_path / "run"
    assert run_cli("obfuscate", "--input", src, "--obf", "50",
                   "--out", run) == 0
    _flip_bit(run, 3)
    capsys.readouterr()
    assert run_cli("verify", "--golden", src, "--easic", run,
                   "--out", run) == 0
    report = json.loads((run / "verify.json").read_text())
    assert (report["verdict"], report["method"]) == ("equivalent", "sampled")
    assert report["note"].endswith("cut-point check: 1 mismatch, first cc1")
    assert report["note"] in capsys.readouterr().out


@pytest.mark.parametrize("edit", sorted(CUT_REFUSALS))
def test_verify_falls_back_on_cut_refusals(tmp_path, edit):
    golden = tmp_path / "cuts.blif"
    golden.write_text("".join(emit_blif(cut_golden())))
    hybrid = run_obfuscation(cut_golden(), ObfuscationConfig(obf_percent=100)).netlist
    change, named = CUT_REFUSALS[edit]
    change(hybrid)
    run = tmp_path / "run"
    run.mkdir()
    (run / "easic.blif").write_text("".join(emit_blif(hybrid)))
    write_bitstream(serialize(hybrid), run / "easic.ebs")
    code = run_cli("verify", "--golden", golden, "--easic", run, "--out", run)
    if edit == "ports":
        assert code == 3  # simulation refuses to compare other ports
        return
    report = json.loads((run / "verify.json").read_text())
    assert code == (0 if report["verdict"] == "equivalent" else 5)
    assert report["method"] in ("exhaustive", "sampled")
    assert report["note"].endswith(f"first {named[0]}")


TOY = ".model toy\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"


def test_non_utf8_blif_is_a_parse_error(tmp_path, sbm_out):
    good = tmp_path / "toy.blif"
    good.write_text(TOY)
    bad = tmp_path / "bad.blif"
    bad.write_bytes(b"# caf\xff\n" + TOY.encode())
    run_dir = tmp_path / "toy_run"
    assert run_cli("obfuscate", "--input", good, "--obf", "50",
                   "--out", run_dir) == 0
    out = tmp_path / "o"
    assert run_cli("obfuscate", "--input", bad, "--obf", "50", "--out", out) == 2
    assert run_cli("sweep", "--input", bad, "--levels", "50", "--out", out) == 2
    assert run_cli("verify", "--golden", bad, "--easic", run_dir,
                   "--out", out) == 2
    assert run_cli("attack", "structural", "--input", bad, "--out", out) == 2
    assert run_cli("attack", "corpus", "--inputs", good, bad, "--out", out) == 2
    assert run_cli("attack", "bruteforce", "--easic", run_dir, "--golden", bad,
                   "--out", out) == 2
    shutil.copyfile(bad, run_dir / "easic.blif")
    assert run_cli("verify", "--golden", good, "--easic", run_dir,
                   "--out", out) == 2


def test_non_utf8_json_is_a_config_error(tmp_path, designs_dir, sbm_out):
    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "sbm29.blif",
                   designs_dir / "cmp4.blif", "--out", corpus) == 0
    out = tmp_path / "o"
    for payload in (b'{"caf\xff": 1}', b"{nope"):
        victim = tmp_path / "victim.histogram.json"
        victim.write_bytes(payload)
        assert run_cli("attack", "composition", "--victim", victim,
                       "--corpus", corpus, "--out", out) == 3
        lib = tmp_path / "lib.json"
        lib.write_bytes(payload)
        assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                       "--obf", "50", "--lib", lib, "--out", out) == 3
        run_dir = tmp_path / "run_copy"
        shutil.copytree(sbm_out, run_dir, dirs_exist_ok=True)
        (run_dir / "trace.json").write_bytes(payload)
        assert run_cli("attack", "structural", "--input", run_dir,
                       "--scope", "static-portion", "--out", out) == 3
        bad_corpus = tmp_path / "bad_corpus"
        shutil.copytree(corpus, bad_corpus, dirs_exist_ok=True)
        (bad_corpus / "cmp4.histogram.json").write_bytes(payload)
        assert run_cli("attack", "composition", "--victim", sbm_out,
                       "--corpus", bad_corpus, "--out", out) == 3


def test_malformed_histogram_is_a_config_error(tmp_path, designs_dir,
                                               sbm_out):
    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "sbm29.blif",
                   designs_dir / "cmp4.blif", "--out", corpus) == 0
    good = json.loads((corpus / "cmp4.histogram.json").read_text())
    out = tmp_path / "o"
    for payload in ({}, [], {**good, "entries": [[1, "0x3"]]},
                    {**good, "entries": [[1, "zz", 2]]},
                    {**good, "entries": [[1, "0x3", "2"]]},
                    {k: v for k, v in good.items() if k != "design"}):
        victim = tmp_path / "victim.histogram.json"
        victim.write_text(json.dumps(payload))
        assert run_cli("attack", "composition", "--victim", victim,
                       "--corpus", corpus, "--out", out) == 3
        bad_corpus = tmp_path / "bad_corpus"
        shutil.copytree(corpus, bad_corpus, dirs_exist_ok=True)
        shutil.copyfile(victim, bad_corpus / "cmp4.histogram.json")
        assert run_cli("attack", "composition", "--victim", sbm_out,
                       "--corpus", bad_corpus, "--out", out) == 3


def test_malformed_trace_is_a_config_error(tmp_path, designs_dir, sbm_out):
    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "sbm29.blif",
                   designs_dir / "cmp4.blif", "--out", corpus) == 0
    good = json.loads((sbm_out / "trace.json").read_text())
    entry = good["conversions"][0]
    out = tmp_path / "o"
    for payload in ({k: v for k, v in good.items() if k != "conversions"},
                    {k: v for k, v in good.items() if k != "obf_percent"},
                    {**good, "obf_percent": "half"},
                    {**good, "conversions": [7]},
                    {**good, "conversions": [
                        {k: v for k, v in entry.items() if k != "mask"}]},
                    {**good, "conversions": [{**entry, "width": 9}]},
                    []):
        run_dir = tmp_path / "run_copy"
        shutil.copytree(sbm_out, run_dir, dirs_exist_ok=True)
        (run_dir / "trace.json").write_text(json.dumps(payload))
        assert run_cli("attack", "structural", "--input", run_dir,
                       "--scope", "static-portion", "--out", out) == 3
        assert run_cli("attack", "composition", "--victim", run_dir,
                       "--corpus", corpus, "--out", out) == 3


def test_attack_composition_loads_victim_once(tmp_path, designs_dir, sbm_out,
                                              monkeypatch):
    import easic.cli

    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "sbm29.blif",
                   designs_dir / "cmp4.blif", "--out", corpus) == 0
    parses = []

    def counting_parse(text, orders=None):
        parses.append(text)
        return parse_blif(text, orders)

    monkeypatch.setattr(easic.cli, "parse_blif", counting_parse)
    assert run_cli("attack", "composition", "--victim", sbm_out,
                   "--corpus", corpus, "--out", tmp_path / "comp") == 0
    assert len(parses) == 1
    assert (tmp_path / "comp" / "search_space.json").is_file()


def test_attack_structural(tmp_path, designs_dir):
    out = tmp_path / "hist"
    code = run_cli("attack", "structural", "--input",
                   designs_dir / "adder8.blif", "--degree", "2", "--out", out)
    assert code == 0
    hist = json.loads((out / "histogram.json").read_text())
    assert hist["design"] == "adder8"
    assert hist["entries"]
    ranks = (out / "ranks.csv").read_text().strip().split("\n")
    assert ranks[0] == "rank,frequency"
    json.loads((out / "trendline.json").read_text())


def test_attack_structural_static_scope(tmp_path, designs_dir, sbm_out):
    out = tmp_path / "hist"
    code = run_cli("attack", "structural", "--input", sbm_out,
                   "--scope", "static-portion", "--out", out)
    assert code == 0
    hist = json.loads((out / "histogram.json").read_text())
    assert hist["scope"] == "static-portion"
    assert len(hist["entries"]) == 1


def test_attack_structural_interpolates_without_noise(tmp_path, recwarn,
                                                     capsys):
    # 30 distinct LUT6 patterns with frequencies 1-6: a fit of degree
    # unique_count - 1 interpolates, so every residual is exactly 0
    rng = random.Random(3)
    pis = [f"x{i}" for i in range(6)]
    cells = []
    for k in range(30):
        mask = LutMask(6, rng.getrandbits(64))
        cells += [lut(f"p{k}_{j}", pis, mask) for j in range(rng.randint(1, 6))]
    design = tmp_path / "many.blif"
    design.write_text("".join(emit_blif(netlist(
        "many", pis, [c.name for c in cells], cells))), encoding="utf-8")
    out = tmp_path / "hist"
    assert run_cli("attack", "structural", "--input", design,
                   "--out", out) == 0
    unique = len(json.loads((out / "histogram.json").read_text())["entries"])
    assert unique == 30
    capsys.readouterr()
    assert run_cli("attack", "structural", "--input", design,
                   "--degree", unique - 1, "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert not recwarn.list
    fit = json.loads((out / "trendline.json").read_text())
    assert fit["degree"] == unique - 1
    assert fit["max_abs_residual"] == 0.0


def test_attack_structural_runs_without_numpy(tmp_path, designs_dir):
    # any numpy import fails in this interpreter
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "import easic\n"
              "from easic.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(easic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "hist"
    proc = subprocess.run(
        [sys.executable, "-c", script, "attack", "structural", "--input",
         str(designs_dir / "sbm29.blif"), "--degree", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads((out / "trendline.json").read_text())["degree"] == 3


def test_attack_structural_empty_scope_warns(tmp_path, designs_dir, capsys):
    run_dir = tmp_path / "run100"
    assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                   "--obf", "100", "--out", run_dir) == 0
    out = tmp_path / "hist"
    code = run_cli("attack", "structural", "--input", run_dir,
                   "--scope", "static-portion", "--out", out)
    assert code == 0
    assert "empty histogram" in capsys.readouterr().out
    hist = json.loads((out / "histogram.json").read_text())
    assert hist["entries"] == []


def test_attack_corpus_and_composition(tmp_path, designs_dir):
    corpus_dir = tmp_path / "corpus"
    blifs = sorted(designs_dir.glob("*.blif"))
    code = run_cli("attack", "corpus", "--inputs", *blifs,
                   "--out", corpus_dir)
    assert code == 0
    union = json.loads((corpus_dir / "union.json").read_text())
    assert union["m"] > 0
    assert len(list(corpus_dir.glob("*.histogram.json"))) == len(blifs)

    victim_run = tmp_path / "victim"
    assert run_cli("obfuscate", "--input", designs_dir / "lfsr16.blif",
                   "--obf", "40", "--out", victim_run) == 0
    out = tmp_path / "comp"
    code = run_cli("attack", "composition", "--victim", victim_run,
                   "--corpus", corpus_dir, "--out", out)
    assert code == 0
    report = json.loads((out / "composition.json").read_text())
    assert report["classification"] == "self-correlation"
    assert report["matches"][0][0] == "lfsr16"
    space = json.loads((out / "search_space.json").read_text())
    assert space["l4_per_lut"] <= space["l3_per_lut"] <= space["l2_per_lut"]


def test_attack_composition_missing_corpus(tmp_path, designs_dir, sbm_out):
    assert run_cli("attack", "composition", "--victim", sbm_out,
                   "--corpus", tmp_path / "absent",
                   "--out", tmp_path / "c") == 3


def test_attack_bruteforce(tmp_path):
    toy = tmp_path / "toy.blif"
    toy.write_text(
        ".model toy\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
    )
    run_dir = tmp_path / "run"
    assert run_cli("obfuscate", "--input", toy, "--obf", "100",
                   "--out", run_dir) == 0
    out = tmp_path / "bf"
    code = run_cli("attack", "bruteforce", "--easic", run_dir,
                   "--golden", toy, "--out", out)
    assert code == 0
    report = json.loads((out / "bruteforce.json").read_text())
    assert report["key_bits"] == 4
    recovered = read_bitstream(out / "recovered.ebs")
    assert recovered.total_len == 4


def test_attack_bruteforce_too_many_bits(tmp_path, designs_dir, sbm_out):
    code = run_cli("attack", "bruteforce", "--easic", sbm_out,
                   "--golden", designs_dir / "sbm29.blif",
                   "--max-key-bits", "8", "--out", tmp_path / "bf")
    assert code == 3


def test_custom_library_via_flag(tmp_path, designs_dir, capsys):
    import copy
    import json as json_mod

    from easic.techlib import _DEFAULT_CONFIG

    config = copy.deepcopy(_DEFAULT_CONFIG)
    config["luts"]["6"]["delay_ns"] = 0.9
    lib_path = tmp_path / "lib.json"
    lib_path.write_text(json_mod.dumps(config))
    out = tmp_path / "o"
    assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                   "--obf", "50", "--lib", lib_path, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(lib_path) in manifest["config"]["library"]
    assert "warning" not in capsys.readouterr().err
    # a LUT6 faster than six MUX2 levels: the library loads with a
    # warning on stderr, and stdout keeps only the command's output
    config["luts"]["6"]["delay_ns"] = 0.1
    lib_path.write_text(json_mod.dumps(config))
    assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                   "--obf", "50", "--lib", lib_path, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: lut_delay(6)=0.1 < 6 * MUX2")
    assert "warning" not in captured.out
    assert run_cli("sweep", "--input", designs_dir / "cmp4.blif",
                   "--levels", "100,0", "--lib", lib_path,
                   "--out", tmp_path / "s") == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: lut_delay(6)=0.1 < 6 * MUX2")
    assert captured.out == (tmp_path / "s" / "sweep.csv").read_text()


def _default_library_with(path, value):
    """The built-in library as JSON text, with one entry replaced."""
    import copy

    from easic.techlib import _DEFAULT_CONFIG

    config = copy.deepcopy(_DEFAULT_CONFIG)
    table = config
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return json.dumps(config)


def _obfuscate_cmp4(tmp_path, designs_dir, *options):
    return ("obfuscate", "--input", designs_dir / "cmp4.blif", "--obf", "50",
            *options)


def _lib(make_path):
    def args(tmp_path, designs_dir, monkeypatch):
        return _obfuscate_cmp4(tmp_path, designs_dir, "--lib",
                               make_path(tmp_path), "--out", tmp_path / "o")
    return args


def _lib_text(text):
    def write(tmp_path):
        (tmp_path / "lib.json").write_text(text)
        return tmp_path / "lib.json"
    return _lib(write)


def _env_lib_missing(tmp_path, designs_dir, monkeypatch):
    monkeypatch.setenv("EASIC_LIB", str(tmp_path / "absent.json"))
    return ("sweep", "--input", designs_dir / "cmp4.blif", "--levels", "50",
            "--out", tmp_path / "o")


def _out_is_a_file(tmp_path, designs_dir, monkeypatch):
    (tmp_path / "taken").write_text("")
    return _obfuscate_cmp4(tmp_path, designs_dir, "--out", tmp_path / "taken")


def _sweep_out_is_a_file(tmp_path, designs_dir, monkeypatch):
    (tmp_path / "taken").write_text("")
    return ("sweep", "--input", designs_dir / "cmp4.blif", "--levels", "50",
            "--out", tmp_path / "taken")


def _negative_degree(tmp_path, designs_dir, monkeypatch):
    return ("attack", "structural", "--input", designs_dir / "cmp4.blif",
            "--degree", "-1", "--out", tmp_path / "o")


def _trace_lists_a_lut_twice(tmp_path, designs_dir, monkeypatch):
    run = tmp_path / "run"
    assert run_cli(*_obfuscate_cmp4(tmp_path, designs_dir, "--out", run)) == 0
    trace = json.loads((run / "trace.json").read_text())
    trace["conversions"].append({**trace["conversions"][0], "iteration": 99})
    (run / "trace.json").write_text(json.dumps(trace))
    return ("attack", "structural", "--input", run, "--scope",
            "static-portion", "--out", tmp_path / "o")


def _histogram_at_width_4(tmp_path, designs_dir, monkeypatch):
    # cmp4's patterns cut to their low 16 bits and declared at width 4
    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "cmp4.blif",
                   designs_dir / "sbm29.blif", "--out", corpus) == 0
    hist = json.loads((corpus / "cmp4.histogram.json").read_text())
    hist["lifted_to_width"] = 4
    hist["entries"] = [[ident, f"0x{int(bits, 16) & 0xffff:04x}", freq]
                       for ident, bits, freq in hist["entries"]]
    victim = tmp_path / "victim.histogram.json"
    victim.write_text(json.dumps(hist))
    return ("attack", "composition", "--victim", victim, "--corpus", corpus,
            "--out", tmp_path / "o")


def _corpus_model_named(name):
    """attack corpus over cmp4 and a copy of it whose model is ``name``."""
    def args(tmp_path, designs_dir, monkeypatch):
        text = (designs_dir / "cmp4.blif").read_text()
        copy = tmp_path / "copy.blif"
        copy.write_text(text.replace(".model cmp4", f".model {name}", 1))
        return ("attack", "corpus", "--inputs", designs_dir / "cmp4.blif",
                copy, "--out", tmp_path / "o")
    return args


def _threshold_nan(tmp_path, designs_dir, monkeypatch):
    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "cmp4.blif",
                   designs_dir / "sbm29.blif", "--out", corpus) == 0
    return ("attack", "composition", "--victim",
            corpus / "cmp4.histogram.json", "--corpus", corpus,
            "--threshold", "nan", "--out", tmp_path / "o")


def _verify_json_is_a_directory(tmp_path, designs_dir, monkeypatch):
    run = tmp_path / "run"
    assert run_cli(*_obfuscate_cmp4(tmp_path, designs_dir, "--out", run)) == 0
    (tmp_path / "v" / "verify.json").mkdir(parents=True)
    return ("verify", "--golden", designs_dir / "cmp4.blif", "--easic", run,
            "--out", tmp_path / "v")


@pytest.mark.parametrize("make_args", [
    pytest.param(_lib(lambda tmp: tmp / "absent.json"), id="lib-missing"),
    pytest.param(_lib(lambda tmp: tmp), id="lib-directory"),
    pytest.param(_env_lib_missing, id="env-lib-missing"),
    pytest.param(_lib_text("5"), id="lib-not-object"),
    pytest.param(_lib_text(_default_library_with(["gates"], 5)),
                 id="lib-section-not-object"),
    pytest.param(_lib_text(_default_library_with(["luts", "3"], 5)),
                 id="lib-entry-not-object"),
    pytest.param(_lib_text(_default_library_with(["ff", "setup_ns"], None)),
                 id="lib-value-not-number"),
    pytest.param(_lib_text(_default_library_with(["luts", "6", "delay_ns"],
                                                 float("nan"))),
                 id="lib-value-not-finite"),
    pytest.param(_out_is_a_file, id="out-is-a-file"),
    pytest.param(_sweep_out_is_a_file, id="sweep-out-is-a-file"),
    pytest.param(_negative_degree, id="negative-degree"),
    pytest.param(_trace_lists_a_lut_twice, id="trace-lists-a-lut-twice"),
    pytest.param(_verify_json_is_a_directory, id="verify-json-is-a-directory"),
    pytest.param(_histogram_at_width_4, id="histogram-at-width-4"),
    # a model name writes <out>/<name>.histogram.json
    pytest.param(_corpus_model_named("../esc"), id="corpus-name-leaves-out"),
    pytest.param(_corpus_model_named("cmp\0"), id="corpus-name-holds-nul"),
    pytest.param(_corpus_model_named("cmp4"), id="corpus-name-repeats"),
    pytest.param(_threshold_nan, id="threshold-nan"),
])
def test_bad_inputs_exit_3_with_a_message(tmp_path, designs_dir, capsys,
                                          monkeypatch, make_args):
    """Each is refused before the conversion loop runs and before any
    file is written."""
    args = make_args(tmp_path, designs_dir, monkeypatch)
    capsys.readouterr()
    files = sorted(tmp_path.rglob("*"))

    def refuse(*args, **kwargs):
        raise AssertionError("the conversion loop ran")

    monkeypatch.setattr("easic.cli.run_obfuscation", refuse)
    monkeypatch.setattr("easic.cli.sweep", refuse)
    assert run_cli(*args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("name", ["easic.blif", "easic.ebs"])
def test_an_output_that_cannot_be_written_exits_3(tmp_path, designs_dir,
                                                  capsys, name):
    (tmp_path / "o" / name).mkdir(parents=True)
    assert run_cli(*_obfuscate_cmp4(tmp_path, designs_dir,
                                    "--out", tmp_path / "o")) == 3
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'o' / name}: Is a directory\n")


def test_a_netlist_the_emitters_refuse_leaves_no_file(tmp_path, capsys):
    src = tmp_path / "m.blif"
    src.write_text(".model m\n.inputs a serial_in\n.outputs y\n"
                   ".names a serial_in y\n11 1\n.end\n")
    out = tmp_path / "o"
    assert run_cli("obfuscate", "--input", src, "--obf", "100",
                   "--out", out) == 3
    assert capsys.readouterr().err == (
        "error: identifier collision after legalization: 'serial_in' and "
        "'serial_in (configuration chain)' both map to 'serial_in'\n")
    assert list(out.iterdir()) == []


def test_each_command_sorts_each_netlist_once(tmp_path, designs_dir,
                                             monkeypatch):
    """One topological sort per netlist read, per timing graph, per
    file written and per design compared; none repeated, except where a
    public entry point checks a netlist it is handed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    toy = tmp_path / "toy6.blif"
    toy.write_text(workloads.toy(6))
    toy_run = tmp_path / "toy_run"
    assert run_cli("obfuscate", "--input", toy, "--obf", "50",
                   "--out", toy_run) == 0
    sorts = []
    sort = Netlist._comb_order

    def counted(self):
        sorts.append(self.name)
        return sort(self)

    monkeypatch.setattr(Netlist, "_comb_order", counted)
    src = designs_dir / "counter8.blif"
    run = tmp_path / "run"
    expected = [
        # parse, graph, emit_blif, emit_verilog
        (("obfuscate", "--input", src, "--obf", "50", "--out", run), 4),
        # parse, graph
        (("sweep", "--input", src, "--levels", "0,50,100",
          "--out", tmp_path / "sweep"), 2),
        # parse twice, prove_by_cuts on both designs
        (("verify", "--golden", src, "--easic", run, "--out", run), 4),
        # parse each input
        (("attack", "corpus", "--inputs", src, designs_dir / "cmp4.blif",
          "--out", tmp_path / "corpus"), 2),
        # parse easic.blif
        (("attack", "structural", "--input", run,
          "--out", tmp_path / "s"), 1),
        (("attack", "composition", "--victim", run,
          "--corpus", tmp_path / "corpus", "--out", tmp_path / "c"), 1),
        # parse both designs, which hands their orders to brute_force_key
        (("attack", "bruteforce", "--easic", toy_run, "--golden", toy,
          "--out", tmp_path / "bf"), 2),
    ]
    for args, count in expected:
        sorts.clear()
        assert run_cli(*args) == 0
        assert len(sorts) == count, args[0]
    _flip_bit(run, 3)
    sorts.clear()
    assert run_cli("verify", "--golden", src, "--easic", run, "--out", run) == 0
    # the cut check fails on cc1: simulation sorts each design once more
    assert len(sorts) == 6


def _counter8_runs(tmp_path, designs_dir):
    """counter8 obfuscated at 50 and 86 percent, and a histogram corpus."""
    runs = {}
    for level in (50, 86):
        runs[level] = tmp_path / f"obf{level}"
        assert run_cli("obfuscate", "--input", designs_dir / "counter8.blif",
                       "--obf", level, "--out", runs[level]) == 0
    corpus = tmp_path / "corpus"
    assert run_cli("attack", "corpus", "--inputs", designs_dir / "counter8.blif",
                   designs_dir / "cmp4.blif", "--out", corpus) == 0
    return runs, corpus


@pytest.mark.parametrize("trace_level, blif_level, reason", [
    # the 86% netlist keeps 8 of the LUTs the 50% trace converted
    (50, 86, "converted LUT cc4 is still reconfigurable (8 in all)"),
    # the 50% netlist has 11 reconfigurable LUTs, the 86% trace says 19
    (86, 50, "lut_re is 19, the netlist has 11 reconfigurable LUTs"),
])
def test_attacks_refuse_a_trace_of_another_netlist(tmp_path, designs_dir,
                                                   capsys, trace_level,
                                                   blif_level, reason):
    runs, corpus = _counter8_runs(tmp_path, designs_dir)
    for level in (50, 86):
        for victim in (("structural", "--input"), ("composition", "--victim")):
            extra = ("--corpus", corpus) if victim[0] == "composition" else ()
            assert run_cli("attack", *victim, runs[level], *extra,
                           "--out", tmp_path / "ok") == 0
    mixed = tmp_path / "mixed"
    shutil.copytree(runs[trace_level], mixed)
    shutil.copyfile(runs[blif_level] / "easic.blif", mixed / "easic.blif")
    capsys.readouterr()
    assert run_cli("attack", "structural", "--input", mixed,
                   "--out", tmp_path / "s") == 3
    assert reason in capsys.readouterr().err
    assert run_cli("attack", "composition", "--victim", mixed,
                   "--corpus", corpus, "--out", tmp_path / "c") == 3
    assert reason in capsys.readouterr().err


def test_attacks_do_not_need_the_bitstream(tmp_path, designs_dir):
    runs, corpus = _counter8_runs(tmp_path, designs_dir)
    (runs[50] / "easic.ebs").unlink()
    assert run_cli("attack", "structural", "--input", runs[50],
                   "--out", tmp_path / "s") == 0
    assert run_cli("attack", "composition", "--victim", runs[50],
                   "--corpus", corpus, "--out", tmp_path / "c") == 0
    assert run_cli("verify", "--golden", designs_dir / "counter8.blif",
                   "--easic", runs[50], "--out", tmp_path / "v") == 3


def test_verify_ignores_the_trace(tmp_path, designs_dir, sbm_out):
    (sbm_out / "trace.json").write_text("{nope")
    assert run_cli("verify", "--golden", designs_dir / "sbm29.blif",
                   "--easic", sbm_out, "--out", tmp_path / "v") == 0


def test_bruteforce_refuses_other_ports(tmp_path, designs_dir, capsys,
                                        monkeypatch):
    # a six-input toy against the eight-input cmp4 once raised KeyError
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    toy = tmp_path / "toy6.blif"
    toy.write_text(workloads.toy(6))
    run = tmp_path / "run"
    assert run_cli("obfuscate", "--input", toy, "--obf", "50",
                   "--out", run) == 0
    capsys.readouterr()
    assert run_cli("attack", "bruteforce", "--easic", run, "--golden",
                   designs_dir / "cmp4.blif", "--out", tmp_path / "bf") == 3
    assert "port mismatch" in capsys.readouterr().err


def test_manifest_digests_match_the_files(tmp_path, designs_dir):
    src = designs_dir / "cmp4.blif"
    runs = [("obfuscate", "--input", src, "--obf", "50", "--out", tmp_path / "o"),
            ("sweep", "--input", src, "--levels", "0,50", "--out", tmp_path / "s")]
    for args in runs:
        assert run_cli(*args) == 0
        out = args[-1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]
        for name, digest in manifest["outputs"].items():
            data = (out / name).read_bytes()
            assert digest == "sha256:" + hashlib.sha256(data).hexdigest(), name
        assert manifest["inputs"] == {
            "cmp4.blif": "sha256:" + hashlib.sha256(src.read_bytes()).hexdigest()}


def _sha256(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_obfuscate_rewrites_its_outputs_in_place(tmp_path, designs_dir):
    """One --out directory taken from 0% to 100% and back: the bitstream,
    chain, trace and both netlists shrink one way and grow the other, and
    every run leaves the bytes a fresh directory gets."""
    shared = tmp_path / "shared"
    sizes = []
    for run, level in enumerate(("0", "100", "0")):
        fresh = tmp_path / f"fresh{run}"
        for out in (shared, fresh):
            assert run_cli("obfuscate", "--input", designs_dir / "cmp4.blif",
                           "--obf", level, "--out", out) == 0
        files = _files(shared)
        assert files == _files(fresh), level
        outputs = json.loads(files["manifest.json"])["outputs"]
        assert outputs == {name: _sha256(files[name]) for name in outputs}
        sizes.append({name: len(data) for name, data in files.items()})
    for name in ("easic.ebs", "chain.json", "trace.json", "easic.blif", "easic.v"):
        assert sizes[0][name] != sizes[1][name], name


def test_bruteforce_rewrites_the_recovered_key_in_place(tmp_path):
    """recovered.ebs rewritten with a shorter key and then a longer one
    (a two-input AND has 4 bits, a three-input one 8): each time the
    bytes a fresh directory gets."""
    designs = [TOY.replace("toy", "wide").replace("a b", "a b c")
               .replace("11 1", "111 1"), TOY]
    shared = tmp_path / "shared"
    sizes = []
    for run, text in enumerate(designs + designs[:1]):
        src = tmp_path / f"d{run}.blif"
        src.write_text(text)
        assert run_cli("obfuscate", "--input", src, "--obf", "100",
                       "--out", tmp_path / f"o{run}") == 0
        for out in (shared, tmp_path / f"bf{run}"):
            assert run_cli("attack", "bruteforce", "--easic", tmp_path / f"o{run}",
                           "--golden", src, "--out", out) == 0
        assert _files(shared) == _files(tmp_path / f"bf{run}")
        sizes.append((shared / "recovered.ebs").stat().st_size)
    assert sizes[0] > sizes[1] < sizes[2]


def test_write_text_cuts_a_longer_file(tmp_path):
    from easic.cli import _write_text

    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_bytes(b"x" * 100)
    for path in (old, new):
        assert _write_text(path, ("ab", "\u00e9")) == _sha256("ab\u00e9".encode())
        assert path.read_text(encoding="utf-8") == "ab\u00e9"
    umask = os.umask(0o022)
    os.umask(umask)
    assert new.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_manifest_hashes_the_bytes_of_an_input_with_cr(tmp_path, designs_dir,
                                                       line_end):
    """Line ends change the input's digest in the manifest and nothing else."""
    lf = designs_dir / "cmp4.blif"
    cr = tmp_path / "cr" / "cmp4.blif"
    cr.parent.mkdir()
    cr.write_bytes(lf.read_bytes().replace(b"\n", line_end))
    for command in (("obfuscate", "--obf", "50"), ("sweep", "--levels", "0,50")):
        runs = []
        for src in (lf, cr):
            out = tmp_path / f"{command[0]}-{src.parent.name}"
            assert run_cli(command[0], "--input", src, *command[1:],
                           "--out", out) == 0
            files = _files(out)
            manifest = json.loads(files.pop("manifest.json"))
            assert manifest.pop("inputs") == {"cmp4.blif": _sha256(src.read_bytes())}
            runs.append((files, manifest))
        assert runs[0] == runs[1], command[0]


def test_each_command_reads_only_what_it_uses(tmp_path, designs_dir,
                                             monkeypatch):
    """The files each command opens, by name: obfuscate reads only its
    input, verify the golden design, easic.blif and easic.ebs, no attack
    opens easic.ebs, and no command opens a file twice for one role."""
    opened = []
    path_open = Path.open
    builtin_open = builtins.open
    os_open = os.open

    def note(file, mode):
        # a writer opens its file with os.open, noted there, and then
        # wraps the descriptor
        if not isinstance(file, int):
            opened.append(("w" if set(mode) & set("wax") else "r", Path(file).name))

    def counted_path_open(self, mode="r", *args, **kwargs):
        note(self, mode)
        return path_open(self, mode, *args, **kwargs)

    def counted_open(file, mode="r", *args, **kwargs):
        note(file, mode)
        return builtin_open(file, mode, *args, **kwargs)

    def counted_os_open(file, flags, *args, **kwargs):
        note(file, "w" if flags & (os.O_WRONLY | os.O_RDWR) else "r")
        return os_open(file, flags, *args, **kwargs)

    src = designs_dir / "counter8.blif"
    toy = tmp_path / "toy.blif"
    toy.write_text(TOY)
    run, toy_run, corpus = tmp_path / "run", tmp_path / "toy_run", tmp_path / "corpus"
    outputs = ["easic.blif", "easic.v", "easic.ebs", "chain.json", "timing.json",
               "area.json", "constraints.json", "trace.json", "manifest.json"]
    histograms = ["counter8.histogram.json", "cmp4.histogram.json"]
    expected = [
        (("obfuscate", "--input", src, "--obf", "50", "--out", run),
         ["counter8.blif"], outputs),
        (("obfuscate", "--input", toy, "--obf", "100", "--out", toy_run),
         ["toy.blif"], outputs),
        (("sweep", "--input", src, "--levels", "0,50", "--out", tmp_path / "sw"),
         ["counter8.blif"], ["sweep.csv", "manifest.json"]),
        (("verify", "--golden", src, "--easic", run, "--out", tmp_path / "v"),
         ["counter8.blif", "easic.blif", "easic.ebs"], ["verify.json"]),
        (("attack", "corpus", "--inputs", src, designs_dir / "cmp4.blif",
          "--out", corpus),
         ["counter8.blif", "cmp4.blif"],
         histograms + ["union.json", "settling.csv"]),
        (("attack", "structural", "--input", run, "--out", tmp_path / "st"),
         ["easic.blif", "trace.json"], ["histogram.json", "ranks.csv"]),
        (("attack", "structural", "--input", src, "--out", tmp_path / "st"),
         ["counter8.blif"], ["histogram.json", "ranks.csv"]),
        (("attack", "composition", "--victim", run, "--corpus", corpus,
          "--out", tmp_path / "co"),
         ["easic.blif", "trace.json"] + histograms,
         ["composition.json", "search_space.json"]),
        # the victim histogram is read once as the victim and once as a
        # member of the corpus
        (("attack", "composition", "--victim", corpus / "cmp4.histogram.json",
          "--corpus", corpus, "--out", tmp_path / "co"),
         ["cmp4.histogram.json"] + histograms, ["composition.json"]),
        (("attack", "bruteforce", "--easic", toy_run, "--golden", toy,
          "--out", tmp_path / "bf"),
         ["easic.blif", "toy.blif"], ["bruteforce.json", "recovered.ebs"]),
    ]
    monkeypatch.setattr(Path, "open", counted_path_open)
    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(os, "open", counted_os_open)
    for args, reads, writes in expected:
        opened.clear()
        assert run_cli(*args) == 0, args
        assert sorted(name for kind, name in opened if kind == "r") == \
            sorted(reads), args[:2]
        assert sorted(name for kind, name in opened if kind == "w") == \
            sorted(writes), args[:2]
