"""Turn session results into the benchmark's metrics and summary."""

from __future__ import annotations

import json
import os
import resource
import statistics
from typing import Dict, List

from session import SessionResult, Workload, close, timed_setup


class SetupSampler:
    """Sets up ``quota`` more times, spread evenly over ``gaps`` calls.

    Called in the gaps between the timed phases of the run's untraced
    sessions, so that ``setup_s`` is the median of a fixed number of samples
    taken across the whole run rather than in a few bursts.
    """

    def __init__(self, glm, workload: Workload, seed: int, scratch: str,
                 quota: int, gaps: int):
        self.args = (glm, workload, seed, os.path.join(scratch, "setup"))
        self.quota, self.gaps, self.calls = quota, gaps, 0
        self.samples: List[float] = []

    def __call__(self) -> None:
        i, self.calls = self.calls, self.calls + 1
        for _ in range((i + 1) * self.quota // self.gaps - i * self.quota // self.gaps):
            world, took = timed_setup(*self.args)
            close(world)
            self.samples.append(took)


def declared_units(root: str, tier: str) -> Dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` declares in ``tier``
    (``end_to_end`` or ``per_layer``), by name."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[tier]}


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {name: {"value": value, "unit": units.get(name)} for name, value in values.items()}


def step_ms(results: List[SessionResult]) -> List[float]:
    return [1e3 * s for r in results for s in r.step_s]


def train_rate(results: List[SessionResult]) -> float:
    """Examples trained per second over all pretrain calls of a run."""
    return sum(r.train_examples for r in results) / sum(r.pretrain_s for r in results)


# Figures that are per session (step percentiles, probe time) are averaged
# over the run's sessions, and throughputs are totals over the run, rather
# than medians: the machine's speed moves between two levels every few
# seconds, and a median over a handful of sessions, or over the pooled steps
# of a run, jumps between them.
def end_to_end(results: List[SessionResult], extra_setups: List[float], checks,
               units: Dict[str, str]) -> Dict:
    deciles = [statistics.quantiles(step_ms([r]), n=10) for r in results]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return _metrics({
        "setup_s": statistics.median(extra_setups + [r.setup_s for r in results]),
        "train_examples_per_s": train_rate(results),
        "step_ms_p50": statistics.fmean(d[4] for d in deciles),
        "step_ms_p90": statistics.fmean(d[8] for d in deciles),
        "eval_examples_per_s": sum(r.eval_examples * len(r.eval_s) for r in results)
        / sum(sum(r.eval_s) for r in results),
        "probe_s": statistics.fmean(r.probe_s for r in results),
        "peak_rss_mb": rss_kib / 1024.0,
        "final_val_ppl": results[0].final_val_ppl,
        "checks_passed": (checks.attempted - checks.failed) / checks.attempted,
    }, units)


def per_layer(traced: List[SessionResult], untraced: List[SessionResult],
              units: Dict[str, str]) -> Dict:
    values = {name: statistics.median(r.layers[name] for r in traced)
              for name in traced[0].layers}
    values["trace.overhead"] = train_rate(traced) / train_rate(untraced)
    return _metrics(values, units)


def print_summary(workload: Workload, args, untraced, traced, metrics, checks) -> None:
    print(f"workload {workload.name} ({workload.strategy}, K={workload.k}) seed {args.seed} "
          f"trace {args.trace}: {len(untraced)} untraced and {len(traced)} traced sessions, "
          f"{len(step_ms(untraced))} untraced step samples")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']!r} {m['unit']}")
    rate = checks.failed / checks.attempted
    print(f"  error_rate {rate!r} ({checks.failed} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
