"""Whole-run profiling: cProfile hot functions + per-component attribution.

:func:`profile_call` wraps one callable (typically a full experiment run)
in a :class:`cProfile.Profile` and reduces the raw stats two ways:

* the top-N hot functions by total (self) time — the flat cProfile view
  that names the exact loops to look at next; and
* per-component attribution — every profiled function is billed to the
  ``repro`` subpackage its file lives in (``sim``, ``controller``,
  ``dram``, ``cpu``, ``mitigations``, ...; stdlib and third-party frames
  land in ``other``), so the report answers "where do the simulated
  cycles' host cycles go?" at the architecture level the paper talks
  about.

Self time (``tottime``) is used for both reductions: unlike cumulative
time it sums to the measured total without double counting, so component
shares are true fractions of the run.

``repro run --profile`` is the front door (see :mod:`repro.cli`); it
profiles an uncached run, so the numbers always reflect a real simulation
rather than a result-cache hit.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TypeVar

from repro.analysis.reporting import format_table

T = TypeVar("T")


def _component_of(filename: str) -> str:
    """The repro subpackage a profiled file belongs to (or ``other``)."""
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    at = normalized.rfind(marker)
    if at < 0:
        return "other"
    remainder = normalized[at + len(marker):]
    if "/" not in remainder:
        return "repro"  # top-level modules such as cli.py
    return remainder.split("/", 1)[0]


@dataclass
class ProfileReport:
    """Reduced cProfile stats for one profiled call."""

    total_seconds: float
    #: Top-N functions by self time: rows with function, file:line, calls,
    #: self/cumulative seconds.
    hot_functions: List[Dict[str, object]]
    #: Component name -> self seconds spent in that subpackage's files.
    components: Dict[str, float]

    def render(self) -> str:
        component_rows = [
            {
                "component": name,
                "seconds": round(seconds, 4),
                "share": f"{seconds / self.total_seconds:.1%}"
                if self.total_seconds
                else "-",
            }
            for name, seconds in sorted(
                self.components.items(), key=lambda item: -item[1]
            )
        ]
        return "\n\n".join(
            [
                format_table(
                    component_rows,
                    title=f"time attribution by component "
                    f"({self.total_seconds:.2f}s profiled)",
                ),
                format_table(
                    self.hot_functions,
                    title=f"hot functions (cProfile, top {len(self.hot_functions)} "
                    f"by self time)",
                ),
            ]
        )


def profile_call(func: Callable[[], T], top: int = 15) -> Tuple[T, ProfileReport]:
    """Run ``func()`` under cProfile; returns its result and the report."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = func()
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    components: Dict[str, float] = {}
    rows = []
    total = 0.0
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        total += tottime
        component = _component_of(filename)
        components[component] = components.get(component, 0.0) + tottime
        basename = filename.replace("\\", "/").rsplit("/", 1)[-1]
        rows.append(
            {
                "function": name,
                "location": f"{basename}:{line}",
                "calls": ncalls,
                "self_s": round(tottime, 4),
                "cum_s": round(cumtime, 4),
            }
        )
    rows.sort(key=lambda row: -row["self_s"])
    return result, ProfileReport(
        total_seconds=total,
        hot_functions=rows[:top],
        components=components,
    )
