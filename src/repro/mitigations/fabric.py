"""Aggregate view over per-channel RowHammer-mitigation instances.

The channel-partitioned fabric gives every memory channel its own mitigation
instance (mitigation state is keyed per bank, and banks never span channels,
so the split is semantics-preserving).  :class:`MitigationFabric` is the thin
aggregate the rest of the system reports against: summed statistics, summed
storage, one name.  It deliberately does *not* implement the event hooks —
observations flow from each channel's DRAM model straight into that
channel's instance; the fabric only ever aggregates.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Sequence

from repro.mitigations.base import MitigationStatistics, RowHammerMitigation


def sum_statistics(total, parts):
    """Field-wise sum of statistics dataclass instances into ``total``.

    Numeric fields add; dict fields merge by key with numeric addition.
    Driven by ``dataclasses.fields`` so a statistics dataclass can grow new
    counters without every aggregation site (controller, DRAM, mitigation)
    needing an edit.
    """
    for part in parts:
        for spec in fields(total):
            current = getattr(total, spec.name)
            value = getattr(part, spec.name)
            if isinstance(current, dict):
                for key, amount in value.items():
                    current[key] = current.get(key, 0) + amount
            else:
                setattr(total, spec.name, current + value)
    return total


class MitigationFabric:
    """Read-only aggregate over one mitigation instance per channel."""

    def __init__(self, instances: Sequence[RowHammerMitigation]) -> None:
        if not instances or any(instance is None for instance in instances):
            raise ValueError("MitigationFabric needs one mitigation per channel")
        names = {instance.name for instance in instances}
        if len(names) > 1:
            raise ValueError(
                f"all channels must run the same mechanism, got {sorted(names)}"
            )
        self.instances: List[RowHammerMitigation] = list(instances)

    @property
    def name(self) -> str:
        return self.instances[0].name

    @property
    def nrh(self) -> int:
        return self.instances[0].nrh

    @property
    def stats(self) -> MitigationStatistics:
        """Statistics summed across the per-channel instances (field-wise,
        so mechanism-specific ``extra`` counters merge by key)."""
        return sum_statistics(
            MitigationStatistics(), (instance.stats for instance in self.instances)
        )

    def storage_report(self) -> Dict[str, float]:
        """Per-channel storage breakdowns summed into the system total."""
        total: Dict[str, float] = {}
        for instance in self.instances:
            for key, value in instance.storage_report().items():
                total[key] = total.get(key, 0.0) + value
        return total

    def __len__(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MitigationFabric({self.name!r}, channels={len(self.instances)})"
