"""Misra-Gries frequent-item summary, the algorithm behind Graphene.

Graphene (Park et al., MICRO 2020) keeps a small table of ``(row, counter)``
entries per bank and maintains it with the Misra-Gries algorithm: an
activation to a tracked row increments its counter; an activation to an
untracked row either claims an entry whose counter equals the current
*spillover* value or increments the spillover counter.  The structure
guarantees that the true activation count of any row is at most
``entry_counter`` (if tracked) or ``spillover`` (if not), so Graphene can
trigger preventive refreshes before any row reaches the RowHammer threshold.

The number of entries needed is ``ceil(W / T)`` where ``W`` is the maximum
number of activations in the tracking window and ``T`` the Graphene threshold;
that growth is what drives Graphene's area explosion at low thresholds
(Table 1 of the CoMeT paper), which this module also models through
:meth:`MisraGriesSummary.storage_bits`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class MisraGriesSummary:
    """Misra-Gries summary with a spillover counter (Graphene's table).

    Parameters
    ----------
    num_entries:
        Number of tagged counter entries.
    key_width_bits:
        Width of the stored tag (DRAM row address bits), for storage modelling.
    counter_width_bits:
        Width of each counter, for storage modelling.
    """

    def __init__(
        self,
        num_entries: int,
        key_width_bits: int = 17,
        counter_width_bits: int = 12,
    ) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.key_width_bits = key_width_bits
        self.counter_width_bits = counter_width_bits
        self._entries: Dict[int, int] = {}
        self.spillover = 0
        self.total_updates = 0

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def update(self, key: int, amount: int = 1) -> int:
        """Record ``amount`` occurrences of ``key``; return its new estimate."""
        if amount < 0:
            raise ValueError("Misra-Gries does not support negative updates")
        self.total_updates += amount
        for _ in range(amount):
            self._update_once(key)
        return self.estimate(key)

    def _update_once(self, key: int) -> None:
        if key in self._entries:
            self._entries[key] += 1
            return
        if len(self._entries) < self.num_entries:
            # Empty slot available: claim it, starting from the spillover
            # value so the estimate remains an upper bound.
            self._entries[key] = self.spillover + 1
            return
        # Table full: replace an entry whose count equals the spillover value,
        # otherwise increment the spillover counter.
        victim = self._find_entry_at_spillover()
        if victim is not None:
            del self._entries[victim]
            self._entries[key] = self.spillover + 1
        else:
            self.spillover += 1

    def _find_entry_at_spillover(self) -> Optional[int]:
        for key, count in self._entries.items():
            if count <= self.spillover:
                return key
        return None

    def estimate(self, key: int) -> int:
        """Upper bound on the number of occurrences of ``key`` since the last reset."""
        if key in self._entries:
            return self._entries[key]
        return self.spillover

    def is_tracked(self, key: int) -> bool:
        return key in self._entries

    def reset(self) -> None:
        """Clear the table (Graphene's periodic reset every tREFW/k)."""
        self._entries.clear()
        self.spillover = 0
        self.total_updates = 0

    def reset_key(self, key: int) -> None:
        """Reset one tracked entry to the spillover value (after a preventive refresh)."""
        if key in self._entries:
            self._entries[key] = self.spillover

    # ------------------------------------------------------------------ #
    # Introspection and storage modelling
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def tracked_items(self) -> Dict[int, int]:
        return dict(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data checkpoint of the mutable summary state.

        Entry insertion order is preserved (``_find_entry_at_spillover``
        scans in insertion order, so it is behaviorally significant).
        """
        return {
            "entries": list(self._entries.items()),
            "spillover": self.spillover,
            "total_updates": self.total_updates,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._entries = {key: count for key, count in state["entries"]}
        self.spillover = state["spillover"]
        self.total_updates = state["total_updates"]

    @property
    def storage_bits(self) -> int:
        """Storage of the table: tags + counters + the spillover counter."""
        per_entry = self.key_width_bits + self.counter_width_bits
        return self.num_entries * per_entry + self.counter_width_bits

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MisraGriesSummary(entries={self.num_entries}, "
            f"occupancy={self.occupancy}, spillover={self.spillover})"
        )


def graphene_table_entries(max_activations_in_window: int, threshold: int) -> int:
    """Number of Misra-Gries entries Graphene provisions.

    Graphene sizes its table so that every row that could possibly be
    activated ``threshold`` times in the tracking window has a dedicated
    entry: ``ceil(W / T)`` entries, where ``W`` is the maximum number of row
    activations that fit in the window and ``T`` the Graphene threshold.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if max_activations_in_window < 0:
        raise ValueError("max_activations_in_window must be non-negative")
    return max(1, -(-max_activations_in_window // threshold))
