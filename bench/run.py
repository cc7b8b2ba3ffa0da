#!/usr/bin/env python3
"""Benchmark of the easic flow, one workload per call.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workload's `easic` commands run through ``easic.cli.main`` in this
process, one at a time, in whole rounds, for about --seconds seconds.
Set-up is timed apart, in fresh interpreters.  The outputs of the last
round are checked by checker.py, and every round must write the same
bytes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an operation is
one CLI command.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from
traced rounds that alternate with untraced ones.

easic is imported from the src/ next to BENCHMARK.json, found from this
file's own path; the run refuses to start when that is not where easic
resolves.
"""

from __future__ import annotations

import os

# One process, one thread: keep numpy's BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9

sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def load_easic():
    """Import easic from this checkout's src/, and nowhere else."""
    init = SRC / "easic" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no easic sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import easic
    import easic.cli
    if Path(easic.__file__).resolve() != init.resolve():
        raise BenchError(f"easic resolves to {easic.__file__}, not to {init}")
    return easic


class Runner:
    """Runs easic commands in-process and counts them."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def __call__(self, command):
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(command.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            err.write(traceback.format_exc())
        if code == command.expect:
            return True
        self.failed += 1
        print(f"easic {' '.join(command.argv)}: exit {code}, expected "
              f"{command.expect}\n{err.getvalue()}", file=sys.stderr)
        return False


def timed_round(runner, commands):
    """Wall and CPU seconds spent inside the commands of one round."""
    wall = cpu = 0.0
    for command in commands:
        w0, c0 = time.perf_counter(), time.process_time()
        runner(command)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
    return wall, cpu


def digest(tree):
    sha = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        sha.update(str(path.relative_to(tree)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def setup_seconds(inputs):
    """Median wall time of fresh interpreters doing an easic command's set-up."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, inputs)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextlib.contextmanager
def work_dir(name, seed):
    """A scratch directory for one run, removed when the run ends."""
    work = BENCH / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def prepare(easic, name, seed, work):
    """Make a workload's inputs and run its untimed commands."""
    plan = workloads.WORKLOADS[name](work, ROOT, seed)
    runner = Runner(easic.cli)
    for command in plan.prep:
        runner(command)
    plan.rounds = plan.rounds()
    return plan, runner


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (result, info)."""
    easic = load_easic()
    with work_dir(name, seed) as work:
        plan, runner = prepare(easic, name, seed, work)
        setup = setup_seconds(plan.setup_inputs)
        spans = tracer.Tracer() if trace else None
        plain, traced, digests = [], [], []
        start = time.perf_counter()
        while True:
            plain.append(timed_round(runner, plan.rounds))
            if spans is not None:
                spans.reset()
                undo = spans.install()
                try:
                    wall, _ = timed_round(runner, plan.rounds)
                finally:
                    undo()
                traced.append((wall, spans.metrics()))
            digests.append(digest(work))
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(plain)) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        correct = len(set(digests)) == 1
        if not correct:
            print("rounds wrote different outputs", file=sys.stderr)
        figures = checker.Figures()
        try:
            plan.check(runner, easic.default_library(), figures)
        except Exception:
            correct = False
            traceback.print_exc()

    if trace:
        metrics = {k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]}
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(w for w, _ in plain))
    else:
        metrics = {
            "setup_s": setup,
            "run_s": statistics.median(w for w, _ in plain),
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mb": peak_rss_mb,
            "cp_ns": figures.cp_ns,
            "area_um2": figures.area_um2,
            "key_bits": figures.key_bits,
        }
    info = {"easic": easic.__file__, "workload": name, "seed": seed,
            "rounds": len(plain), "traced_rounds": len(traced),
            "round_s": [round(w, 4) for w, _ in plain],
            "setup_probes": SETUP_PROBES, "hybrids_checked": figures.hybrids,
            "commands_per_round": len(plan.rounds)}
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) ^ set(result["metrics"])
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
