"""Memory request representation.

A :class:`MemoryRequest` is what the cores (and mitigation mechanisms such as
Hydra, which generates its own counter-table traffic) hand to the memory
controller.  It carries the decoded DRAM coordinates, issue/queue/completion
timestamps for latency accounting, and an optional completion callback.

It is a ``__slots__`` class with a hand-written ``__init__`` (like
:class:`~repro.dram.commands.Command` and
:class:`~repro.dram.address.DRAMAddress`), not a dataclass: a core builds
one per demand access, and the slotted constructor is the cheapest way to
make one.  The slots include two that only the controller writes:
``enqueue_seq``, its enqueue sequence number, and ``refresh_activated``, set
once a preventive refresh's victim row has been activated.  With no
``__dict__``, a write to any other attribute raises ``AttributeError``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

from repro.controller.policies import NEVER
from repro.dram.address import DRAMAddress


class RequestType(enum.Enum):
    """The request classes the controller schedules."""

    READ = "read"
    WRITE = "write"
    PREVENTIVE_REFRESH = "preventive_refresh"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


_request_ids = itertools.count()


class MemoryRequest:
    """One memory request flowing through the controller.

    Requests compare (and hash) by identity, and the queues remove requests
    by scanning with ``==``: an identity check per element.  Unless one is
    passed in, ``request_id`` is the next value of a process-wide counter,
    drawn when the request is built.

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
    request_id:
        Tie-break after ``arrival_cycle`` in the controller's per-bank order.
    enqueue_seq:
        The controller's enqueue sequence number for a demand request
        (``NEVER`` until a controller queues it).
    refresh_activated:
        True once a preventive refresh's ACT has issued; its closing PRE
        then completes it.
    """

    __slots__ = (
        "request_type",
        "address",
        "physical_address",
        "core_id",
        "arrival_cycle",
        "issue_cycle",
        "completion_cycle",
        "on_complete",
        "is_mitigation_traffic",
        "request_id",
        "enqueue_seq",
        "refresh_activated",
    )

    def __init__(
        self,
        request_type: RequestType,
        address: DRAMAddress,
        physical_address: int = 0,
        core_id: Optional[int] = None,
        arrival_cycle: int = 0,
        issue_cycle: Optional[int] = None,
        completion_cycle: Optional[int] = None,
        on_complete: Optional[Callable[["MemoryRequest", int], None]] = None,
        is_mitigation_traffic: bool = False,
        request_id: Optional[int] = None,
    ) -> None:
        self.request_type = request_type
        self.address = address
        self.physical_address = physical_address
        self.core_id = core_id
        self.arrival_cycle = arrival_cycle
        self.issue_cycle = issue_cycle
        self.completion_cycle = completion_cycle
        self.on_complete = on_complete
        self.is_mitigation_traffic = is_mitigation_traffic
        self.request_id = next(_request_ids) if request_id is None else request_id
        self.enqueue_seq = NEVER
        self.refresh_activated = False

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
