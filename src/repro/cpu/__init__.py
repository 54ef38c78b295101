"""Trace-driven processor model.

The paper drives Ramulator with SimPoint traces of the form
``<number of non-memory instructions, memory address>``.  This subpackage
provides the same abstraction:

* :class:`~repro.cpu.trace.Trace` / :class:`~repro.cpu.trace.TraceEntry` —
  the trace format, with readers/writers and statistics (RBMPKI estimation).
* :class:`~repro.cpu.core.Core` — a 4-wide, 128-entry-window trace-driven
  core whose IPC responds to memory latency, the quantity every performance
  figure in the paper is built on.
"""

from repro.cpu.trace import Trace, TraceEntry, TraceStatistics
from repro.cpu.core import Core, CoreConfig

__all__ = [
    "Trace",
    "TraceEntry",
    "TraceStatistics",
    "Core",
    "CoreConfig",
]
