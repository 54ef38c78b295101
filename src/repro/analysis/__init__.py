"""Analysis tools: security verification, tracker analysis, report formatting."""

from repro.analysis.security import SecurityVerifier
from repro.analysis.false_positive import (
    TrackerModel,
    comet_tracker,
    blockhammer_tracker,
    false_positive_rate_curve,
    uniform_activation_counts,
)
from repro.analysis.reporting import format_table, format_report, render_series

__all__ = [
    "SecurityVerifier",
    "TrackerModel",
    "comet_tracker",
    "blockhammer_tracker",
    "false_positive_rate_curve",
    "uniform_activation_counts",
    "format_table",
    "format_report",
    "render_series",
]
