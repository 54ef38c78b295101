"""Performance and energy metrics used throughout the evaluation.

The paper reports:

* **Normalized IPC** for single-core runs (Figures 3, 6, 7, 9, 10, 12, 16,
  18) — IPC under a mitigation divided by IPC of the unprotected baseline.
* **Normalized weighted speedup** for multi-core runs (Figure 13) — the sum
  over cores of per-core IPC relative to the same core's isolated IPC,
  normalized to the unprotected baseline.
* **Normalized DRAM energy** (Figures 11, 14, 15).
* Geometric means across workloads and box-plot style distribution summaries
  (median, quartiles, min, max).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's cross-workload average for normalized IPC)."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    log_sum = sum(math.log(v) for v in values)
    return math.exp(log_sum / len(values))


def normalized_values(values: Sequence[float], baseline: Sequence[float]) -> List[float]:
    """Element-wise ``values[i] / baseline[i]`` (IPC or energy normalization)."""
    if len(values) != len(baseline):
        raise ValueError("values and baseline must have the same length")
    result = []
    for value, base in zip(values, baseline):
        if base == 0:
            result.append(0.0)
        else:
            result.append(value / base)
    return result


def normalized_ipc(result, baseline) -> float:
    """IPC of a mitigated run normalized to the unprotected baseline run.

    Both arguments are :class:`~repro.sim.system.SimulationResult` objects.
    """
    if baseline.ipc == 0:
        return 0.0
    return result.ipc / baseline.ipc


def weighted_speedup(shared_ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """Weighted speedup: sum_i IPC_shared_i / IPC_alone_i  (Snavely & Tullsen)."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("shared and alone IPC lists must have the same length")
    total = 0.0
    for shared, alone in zip(shared_ipcs, alone_ipcs):
        if alone <= 0:
            continue
        total += shared / alone
    return total


def normalized_weighted_speedup(
    mitigation_ipcs: Sequence[float],
    baseline_ipcs: Sequence[float],
    alone_ipcs: Sequence[float] = None,
) -> float:
    """Weighted speedup of a mitigated run normalized to the unprotected run.

    When ``alone_ipcs`` is omitted the per-core isolated IPCs cancel out for
    homogeneous mixes and the metric reduces to the ratio of summed relative
    IPCs, which is how the harness uses it.
    """
    if alone_ipcs is None:
        alone_ipcs = [1.0] * len(mitigation_ipcs)
    mitigated = weighted_speedup(mitigation_ipcs, alone_ipcs)
    baseline = weighted_speedup(baseline_ipcs, alone_ipcs)
    if baseline == 0:
        return 0.0
    return mitigated / baseline


def summarize_distribution(values: Sequence[float]) -> Dict[str, float]:
    """Box-plot style summary: min, 25th, median, 75th, max, mean, geomean."""
    if not values:
        return {
            "min": 0.0,
            "p25": 0.0,
            "median": 0.0,
            "p75": 0.0,
            "max": 0.0,
            "mean": 0.0,
            "geomean": 0.0,
        }
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p25": _percentile(ordered, 0.25),
        "median": _percentile(ordered, 0.50),
        "p75": _percentile(ordered, 0.75),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "geomean": geometric_mean(ordered) if all(v > 0 for v in ordered) else 0.0,
    }


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight

