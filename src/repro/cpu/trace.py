"""Memory access traces.

A trace is an ordered sequence of :class:`TraceEntry` records, each meaning
"execute ``bubble_count`` non-memory instructions, then perform one memory
access to ``address``".  This is the same abstraction Ramulator's CPU traces
use and is what the workload generators in :mod:`repro.workloads` produce.

Traces can be saved to / loaded from a simple text format (one entry per
line: ``bubble_count address [W]``) so that generated workloads can be
inspected and reused across experiments.

:class:`TraceEntry` is a tuple-backed immutable record: the generators build
one per synthesized access, and a tuple costs a fraction of a frozen
dataclass to construct.  Like any named tuple it compares equal to a plain
tuple with the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union


class _TraceRecord(NamedTuple):
    bubble_count: int
    address: int
    is_write: bool = False


class TraceEntry(_TraceRecord):
    """One trace record: ``bubble_count`` compute instructions then a memory access."""

    __slots__ = ()

    def __new__(cls, bubble_count: int, address: int, is_write: bool = False):
        if bubble_count < 0:
            raise ValueError("bubble_count must be non-negative")
        if address < 0:
            raise ValueError("address must be non-negative")
        return tuple.__new__(cls, (bubble_count, address, is_write))


@dataclass
class TraceStatistics:
    """Summary statistics of a trace (used to characterize workloads)."""

    num_entries: int
    total_instructions: int
    num_reads: int
    num_writes: int
    unique_addresses: int

    @property
    def accesses_per_kilo_instruction(self) -> float:
        """Memory accesses per thousand instructions (APKI ~ RBMPKI upper bound)."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.num_entries / self.total_instructions


class Trace:
    """An in-memory trace with iteration, slicing, repetition and file I/O."""

    def __init__(self, entries: Optional[Sequence[TraceEntry]] = None, name: str = "trace") -> None:
        self.entries: List[TraceEntry] = list(entries or [])
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[Union[tuple, TraceEntry]],
        name: str = "trace",
    ) -> "Trace":
        """Build a trace from ``(bubble_count, address[, is_write])`` tuples."""
        entries = []
        for item in tuples:
            if isinstance(item, TraceEntry):
                entries.append(item)
            else:
                bubble, address = item[0], item[1]
                is_write = bool(item[2]) if len(item) > 2 else False
                entries.append(TraceEntry(bubble, address, is_write))
        return cls(entries, name=name)

    def append(self, entry: TraceEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: Iterable[TraceEntry]) -> None:
        self.entries.extend(entries)

    def repeated(self, times: int) -> "Trace":
        """A new trace consisting of this trace repeated ``times`` times."""
        if times < 1:
            raise ValueError("times must be at least 1")
        return Trace(self.entries * times, name=f"{self.name}x{times}")

    def truncated(self, max_entries: int) -> "Trace":
        """A new trace containing at most ``max_entries`` entries."""
        return Trace(self.entries[:max_entries], name=self.name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    @property
    def total_instructions(self) -> int:
        """Total instruction count: bubbles plus one instruction per memory access."""
        return sum(entry.bubble_count + 1 for entry in self.entries)

    def statistics(self) -> TraceStatistics:
        reads = sum(1 for entry in self.entries if not entry.is_write)
        writes = len(self.entries) - reads
        unique = len({entry.address for entry in self.entries})
        return TraceStatistics(
            num_entries=len(self.entries),
            total_instructions=self.total_instructions,
            num_reads=reads,
            num_writes=writes,
            unique_addresses=unique,
        )

    # ------------------------------------------------------------------ #
    # File I/O
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as ``bubble_count address [W]`` lines."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for entry in self.entries:
                suffix = " W" if entry.is_write else ""
                handle.write(f"{entry.bubble_count} {entry.address:#x}{suffix}\n")

    @classmethod
    def load(cls, path: Union[str, Path], name: Optional[str] = None) -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        entries = []
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise ValueError(f"{path}:{line_number}: malformed trace line {line!r}")
                bubble = int(parts[0])
                address = int(parts[1], 0)
                is_write = len(parts) > 2 and parts[2].upper() == "W"
                entries.append(TraceEntry(bubble, address, is_write))
        return cls(entries, name=name or path.stem)
