#!/usr/bin/env python3
"""Time the conversion loop at sizes the benchmark does not run.

    python3 scripts/loop_scaling.py --src <src>

<src> is a directory holding the ``easic`` package (a tree's ``src/``).
For each of 430, 1000 and 2000 LUT6, a fresh interpreter builds
``bench/workloads.lut6_dag`` with that many LUTs (mask seed 1),
obfuscates it at 50 percent with ``run_obfuscation``, and prints the
wall seconds that call took, the seconds spent inside
``timing.update_timing``, ``timing.find_critical`` and
``staticgen.decompose_lut`` (each rebound under every easic module name,
as ``bench/tracer.py`` does), the interpreter's peak resident set
(``ru_maxrss``), the number of calls of ``timing.find_critical`` and of
the per-endpoint searches under it (``timing.endpoint_worst_path`` and
``timing.endpoint_deviations``), and the sha256 of the trace.json and
timing.json documents `easic obfuscate` would write for it.  Then it
times the hybrid's text stages, each the median of 5 calls: the public
``emit_blif`` and ``emit_verilog`` (each of which checks the netlist
first) joined into one string, ``parse_blif`` of the BLIF text, and
``validate``.  Run it on two trees: equal digests show that both convert
the same LUTs in the same order and time the result alike.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIZES = (430, 1000, 2000)

# argv[1]: the tree's src/, argv[2]: bench/, argv[3]: the size
RUNNER = r"""
import hashlib, json, resource, statistics, sys, time
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(src), sys.argv[2]]
import easic
if Path(easic.__file__).resolve() != src / "easic" / "__init__.py":
    sys.exit(f"easic resolves to {easic.__file__}, not to {src}")
import tracer, workloads
from easic import (ObfuscationConfig, emit_blif, emit_verilog, parse_blif,
                   report, run_obfuscation)
spent = {}
calls = {}

def timed(name):
    def wrap(fn):
        def timed_call(*args, **kwargs):
            calls[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return timed_call
    return wrap

for module, name in (("timing", "update_timing"), ("timing", "find_critical"),
                     ("staticgen", "decompose_lut"),
                     ("timing", "endpoint_worst_path"),
                     ("timing", "endpoint_deviations")):
    spent[name] = 0.0
    calls[name] = 0
    tracer.rebind(module, name, timed(name))
size = int(sys.argv[3])
netlist = parse_blif(workloads.lut6_dag(f"lut6_{size}", size, 1))
start = time.perf_counter()
result = run_obfuscation(netlist, ObfuscationConfig(obf_percent=50))
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

def digest(payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

print(f"lut6_{size}  {seconds:7.2f} s  "
      + "  ".join(f"{name} {spent[name]:.2f} s" for name
                  in ("update_timing", "find_critical", "decompose_lut"))
      + f"  ru_maxrss {peak_mb:.1f} MB")
print("    calls: " + "  ".join(f"{name} {calls[name]}" for name
                                in ("find_critical", "endpoint_worst_path",
                                    "endpoint_deviations")))
print(f"    trace.json {digest(result.to_json_dict())}  "
      f"timing.json {digest(report(result.graph).to_json_dict())}")

def median_ms(stage):
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        stage()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs) * 1e3

hybrid = result.netlist
text = "".join(emit_blif(hybrid))
stages = (("emit_blif", lambda: "".join(emit_blif(hybrid))),
          ("emit_verilog", lambda: "".join(emit_verilog(hybrid))),
          ("parse_blif", lambda: parse_blif(text)),
          ("validate", hybrid.validate))
print(f"    hybrid of {len(hybrid.cells)} cells: "
      + "  ".join(f"{name} {median_ms(stage):.1f} ms"
                  for name, stage in stages))
"""


def src_dir(text):
    path = Path(text).resolve()
    if not (path / "easic" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} holds no easic package")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=src_dir)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    for size in SIZES:
        subprocess.run([sys.executable, "-c", RUNNER, str(args.src),
                        str(REPO / "bench"), str(size)], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
