"""Self-check: a slower layer shows in run_s where the layer does the
work, and not where it does next to none.

Each case makes one public easic function slower by a fixed factor,
from inside this process (src/ is never edited).  The factor is sized
from a traced round so that the workload which stresses the layer should
slow by twice the run_s bound; it must then read worse than the bound,
and the other workload, which spends next to no time in that function,
must stay within it.  Rounds with and without the slow-down alternate,
and the median of their ratios is compared, so that the machine's own
drift cancels.  Takes about ten minutes:

    python3 -m pytest bench/test_selfcheck.py -q
"""

import statistics

import pytest

import run
import tracer

SEED = 1
PAIRS = 3
BOUND = {m["name"]: m["bound"] for m in run.load_spec()["end_to_end"]}["run_s"]
LUT6 = "lut6-obfuscate-sweep"
CORPUS = "corpus-verify-attack"

CASES = [
    # module, function, stressed workload, bypassing workload
    ("timing", "endpoint_deviations", LUT6, CORPUS),
    ("sim", "Evaluator.eval_packed", CORPUS, LUT6),
    ("bitstream", "program", CORPUS, LUT6),
]

easic = run.load_easic()


def layer_seconds(runner, plan, module, function):
    """Time one round spends inside the function, from a traced round."""
    spans = tracer.Tracer()
    undo = spans.install()
    try:
        run.timed_round(runner, plan.rounds)
    finally:
        undo()
    return spans.seconds[tracer.metric_prefix(module, function)]


def slowdown(workload, module, function, factor=None):
    """Median relative change of run_s with the function slowed, and the
    factor used.  Without a factor, it is sized to twice the bound."""
    with run.work_dir(workload, SEED) as work:
        plan, runner = run.prepare(easic, workload, SEED, work)
        inside = layer_seconds(runner, plan, module, function)
        ratios = []
        for _ in range(PAIRS):
            base, _ = run.timed_round(runner, plan.rounds)
            if factor is None:
                factor = 2 * BOUND * base / inside
            undo = tracer.slow_down(module, function, factor)
            try:
                slow, _ = run.timed_round(runner, plan.rounds)
            finally:
                undo()
            ratios.append(slow / base - 1)
        assert not runner.failed
    return statistics.median(ratios), factor


@pytest.mark.parametrize("module,function,stressed,bypass", CASES)
def test_slower_layer_moves_run_s_only_where_it_works(module, function,
                                                      stressed, bypass):
    change, factor = slowdown(stressed, module, function)
    assert change > BOUND, f"{stressed} slowed by {change:.3f} only"

    change, _ = slowdown(bypass, module, function, factor)
    assert abs(change) <= BOUND, f"{bypass} changed by {change:.3f}"
