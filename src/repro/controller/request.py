"""Memory request representation.

A :class:`MemoryRequest` is what the cores (and mitigation mechanisms such as
Hydra, which generates its own counter-table traffic) hand to the memory
controller.  It carries the decoded DRAM coordinates, issue/queue/completion
timestamps for latency accounting, and an optional completion callback.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dram.address import DRAMAddress


class RequestType(enum.Enum):
    """The request classes the controller schedules."""

    READ = "read"
    WRITE = "write"
    PREVENTIVE_REFRESH = "preventive_refresh"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


_request_ids = itertools.count()


@dataclass(eq=False)
class MemoryRequest:
    """One memory request flowing through the controller.

    Requests compare (and hash) by identity: the auto-assigned
    ``request_id`` makes generated field equality coincide with identity
    anyway, and the queues remove requests by scanning with ``==`` — an
    identity check per element instead of a ten-field tuple comparison.

    Attributes
    ----------
    request_type:
        READ, WRITE, or PREVENTIVE_REFRESH (an ACT+PRE pair to a victim row).
    address:
        Decoded DRAM coordinates of the target cache line (or victim row).
    physical_address:
        Original byte address (0 for mitigation-internal requests).
    core_id:
        Issuing core, or ``None`` for mitigation-internal traffic.
    arrival_cycle / issue_cycle / completion_cycle:
        Timestamps (memory-controller clock) for latency statistics.
    on_complete:
        Optional callback invoked as ``on_complete(request, completion_cycle)``.
    is_mitigation_traffic:
        True for requests generated by a mitigation mechanism itself
        (e.g. Hydra's counter-table reads/writes).
    """

    request_type: RequestType
    address: DRAMAddress
    physical_address: int = 0
    core_id: Optional[int] = None
    arrival_cycle: int = 0
    issue_cycle: Optional[int] = None
    completion_cycle: Optional[int] = None
    on_complete: Optional[Callable[["MemoryRequest", int], None]] = None
    is_mitigation_traffic: bool = False
    request_id: int = field(default_factory=lambda: next(_request_ids))

    @property
    def is_write(self) -> bool:
        return self.request_type is RequestType.WRITE

    def complete(self, cycle: int) -> None:
        """Mark the request complete and fire its callback."""
        self.completion_cycle = cycle
        if self.on_complete is not None:
            self.on_complete(self, cycle)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MemoryRequest(id={self.request_id}, type={self.request_type.value}, "
            f"bank={self.address.bank_key}, row={self.address.row}, "
            f"arrival={self.arrival_cycle})"
        )
