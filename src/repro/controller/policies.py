"""Pluggable memory-controller policies.

The memory controller of Table 2 is one point in a three-axis policy space,
and this module makes each axis a first-class, registered, spec-serializable
component:

* :class:`SchedulingPolicy` — which pending request a bank serves next.
  ``fr_fcfs`` (row hits first under a column cap; the paper's controller),
  ``fcfs`` (strict arrival order, no hit-first reordering) and ``bliss``
  (a BLISS-style starvation-aware scheduler that blacklists cores streaming
  consecutive requests, after Subramanian et al.).
* :class:`RowPolicy` — what happens to a row after its column accesses.
  ``open_page`` (rows stay open until a conflict or refresh needs the bank;
  the paper's policy), ``closed_page`` (close a bank as soon as it has no
  queued work) and ``adaptive_timeout`` (close an idle row after a fixed
  residency timeout — which also bounds RowPress-style long-open-row
  disturbance).
* :class:`RefreshPolicy` — how periodic refresh is organized. ``all_bank``
  (one rank-level REF every tREFI; the paper's mode),
  ``fine_granularity`` (DDR4 FGR: REF 2x/4x as often, each refreshing a
  fraction of the rows and blocking the rank for the shorter tRFC2/tRFC4)
  and ``rfm`` (DDR5 Refresh Management: per-bank rolling activation
  accounting with ``raaimt``/``raammt`` thresholds, issuing bank-scoped
  RFM commands that block the bank for ``tRFM`` while the device refreshes
  likely victims).  True same-bank REFpb is deliberately not modelled: the
  mitigation observer protocol
  (:meth:`repro.mitigations.base.RowHammerMitigation.on_refresh`)
  is rank-scoped, and FGR reproduces the scheduling-relevant property —
  shorter, more frequent refresh blackouts — without changing it.

A :class:`ControllerPolicySpec` names one policy per axis (plus policy
parameters) and travels with :class:`~repro.experiment.spec.PlatformSpec`
through the experiment codec, the sweep grids, the security-audit campaigns
and the CLI.  The default triple ``(fr_fcfs, open_page, all_bank)`` is
bit-identical to the pre-policy monolithic controller (pinned by the golden
traces under ``tests/golden/``).

This module also defines :data:`NEVER`, the typed integer "no event"
sentinel that replaced the ``float("inf")`` value previously mixed into
integer cycle arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dram.address import DRAMAddress
from repro.dram.commands import Command, CommandKind
from repro.dram.config import DRAMConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import MemoryController
    from repro.controller.request import MemoryRequest

#: "No event" cycle sentinel.  An ``int`` (not ``float("inf")``) so that
#: comparing or ``max``-ing it against cycle counters can never silently
#: promote integer cycle arithmetic to floats; any real cycle is far below
#: it.  Test for it with ``cycle >= NEVER``.
NEVER: int = 2**63


# --------------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PolicyEntry:
    """One registered controller policy and its catalog metadata."""

    name: str
    kind: str  # "scheduler" | "row_policy" | "refresh_policy"
    cls: type = field(repr=False)
    description: str = ""

    @property
    def params(self) -> Tuple[str, ...]:
        """Names of the policy parameters this policy accepts."""
        return tuple(getattr(self.cls, "PARAMS", ()))

    def build(self, params: Mapping[str, Any]):
        """Construct one instance from the subset of ``params`` it accepts."""
        accepted = {k: v for k, v in params.items() if k in self.params}
        return self.cls(**accepted)


_SCHEDULERS: Dict[str, PolicyEntry] = {}
_ROW_POLICIES: Dict[str, PolicyEntry] = {}
_REFRESH_POLICIES: Dict[str, PolicyEntry] = {}

_REGISTRIES: Dict[str, Dict[str, PolicyEntry]] = {
    "scheduler": _SCHEDULERS,
    "row_policy": _ROW_POLICIES,
    "refresh_policy": _REFRESH_POLICIES,
}


class UnknownPolicyError(ValueError):
    """A policy name that is not in its axis' registry."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(
            f"unknown {kind} {name!r}; known: {sorted(_REGISTRIES[kind])}"
        )
        self.kind = kind
        self.name = name


def _register(kind: str, name: str, description: str):
    def decorator(cls: type) -> type:
        _REGISTRIES[kind][name] = PolicyEntry(
            name=name, kind=kind, cls=cls, description=description
        )
        cls.name = name
        return cls

    return decorator


def register_scheduler(name: str, description: str = ""):
    """Class decorator registering a :class:`SchedulingPolicy`."""
    return _register("scheduler", name, description)


def register_row_policy(name: str, description: str = ""):
    """Class decorator registering a :class:`RowPolicy`."""
    return _register("row_policy", name, description)


def register_refresh_policy(name: str, description: str = ""):
    """Class decorator registering a :class:`RefreshPolicy`."""
    return _register("refresh_policy", name, description)


def policy_entry(kind: str, name: str) -> PolicyEntry:
    entry = _REGISTRIES[kind].get(name)
    if entry is None:
        raise UnknownPolicyError(kind, name)
    return entry


def scheduler_names() -> List[str]:
    return sorted(_SCHEDULERS)


def row_policy_names() -> List[str]:
    return sorted(_ROW_POLICIES)


def refresh_policy_names() -> List[str]:
    return sorted(_REFRESH_POLICIES)


def policy_catalog() -> List[PolicyEntry]:
    """Every registered policy across the three axes (for ``repro list``)."""
    entries: List[PolicyEntry] = []
    for registry in _REGISTRIES.values():
        entries.extend(registry[name] for name in sorted(registry))
    return entries


# --------------------------------------------------------------------------- #
# Protocol base classes
# --------------------------------------------------------------------------- #
class SchedulingPolicy:
    """Decides which pending request a bank serves next.

    The controller keeps an incremental per-bank index of pending requests
    (sorted by arrival) and ranks one candidate per bank; the bank
    candidates then compete on ``(issue_cycle, *priority, scan_key)`` where
    ``priority`` is ``(arrival,)``, or ``(demoted, arrival)`` for a demoting
    policy, and ``scan_key`` is the controller's deterministic tie-break.
    Policies may keep internal state (BLISS' blacklist) — every controller
    owns its own policy instances.

    A policy is expressed to the controller's struct-of-arrays demand scan
    (:meth:`~repro.controller.controller.MemoryController._build_select`)
    by two facts — :attr:`HITS_FIRST` and :attr:`demoted_cores` — plus the
    :meth:`before_demand_scan` hook.  The per-bank rule they encode: a
    closed bank serves its first request (ACT); an open bank serves its
    first row hit (column command) unless the column cap is reached with a
    conflict waiting, else its first conflict (PRE); "first" is in
    ``(demoted, arrival, request_id)`` order.
    ``tests/test_fastpath_identity.py`` restates that rule as a brute-force
    ranker and checks the scan against it decision by decision, and the
    golden file holds a whole-run point per registered scheduler.
    """

    name = "base"
    #: Policy parameters accepted by the constructor (spec ``params`` keys).
    PARAMS: Tuple[str, ...] = ()
    #: True when an open bank serves its oldest row hit before older row
    #: misses, unless the column cap is reached with a conflict waiting
    #: (FR-FCFS, BLISS).  False serves each bank's oldest request strictly
    #: (FCFS): the bank's row state alone picks ACT, column command or PRE.
    HITS_FIRST = True
    #: Cores whose requests rank below every other core's — per bank among
    #: hits and among conflicts, and again across banks at equal issue
    #: cycle.  A live set the policy mutates in place (BLISS' blacklist), or
    #: ``None`` when the policy never demotes; a demoting policy's priority
    #: tuple is ``(demoted, arrival)``, a non-demoting one's ``(arrival,)``.
    demoted_cores: Optional[set] = None

    def before_demand_scan(self, cycle: int) -> None:
        """Called once per demand selection that reaches a bank, before any
        candidate is ranked (BLISS clears its blacklist here when due)."""

    def close_priority(self, opened_cycle: int) -> tuple:
        """Priority tuple for a row-policy close (PRE) candidate.

        Must have the same shape as the policy's demand priority tuples so
        close candidates compare against demand candidates.
        """
        return (opened_cycle,)

    def on_issue(
        self, command: Command, request: Optional["MemoryRequest"], cycle: int
    ) -> None:
        """Observe every issued command (BLISS tracks served streaks here)."""

    def priority_boundary_crossed(self, start: int, end: int) -> bool:
        """True when the policy's priorities change inside ``(start, end]``.

        The event kernel caches one decision per controller and replays it
        at its issue cycle; a time-varying scheduler (BLISS' clearing
        interval) must report its boundaries here so a decision spanning
        one is recomputed instead of issuing with stale priorities.
        """
        return False


class RowPolicy:
    """Decides whether an open row stays open once its bank has no work.

    The controller reports row transitions through :meth:`on_act` /
    :meth:`on_pre` and asks for :meth:`close_candidates` during command
    selection; a close candidate is a speculative PRE that competes with
    demand candidates on issue cycle.  The default (open-page) keeps every
    row open and emits nothing, which is what makes it zero-cost.
    """

    name = "base"
    PARAMS: Tuple[str, ...] = ()

    def on_act(self, bank_key: Tuple[int, int, int, int], cycle: int) -> None:
        """A row was opened in ``bank_key`` at ``cycle``."""

    def on_pre(self, bank_key: Tuple[int, int, int, int]) -> None:
        """``bank_key``'s open row was closed."""

    def close_candidates(
        self, controller: "MemoryController", cycle: int
    ) -> Iterable[Tuple[Tuple[int, int, int, int], int, int]]:
        """Banks the policy wants precharged: ``(bank_key, opened, not_before)``.

        ``opened`` is the cycle the row was opened (the candidate's age for
        tie-breaking); ``not_before`` is the earliest cycle the close may
        issue (``adaptive_timeout`` dates it at ``opened + timeout``).
        """
        return ()


class RefreshPolicy:
    """Shapes the periodic-refresh schedule.

    Passive policies rewrite the DRAM configuration before the device model
    is built (the same hook mitigations such as REGA use); the controller's
    refresh machinery — per-rank due times staggered across ranks, owed
    extra refreshes, PRE-before-REF — then operates on the adjusted
    ``tREFI``/``tRFC``/``rows_per_refresh`` without further policy calls.

    Policies that issue their own refresh-management traffic (DDR5 RFM)
    additionally set :attr:`ISSUES_RFM` and implement the active hooks: the
    controller then calls :meth:`attach` once after the DRAM system is built
    (the policy registers its own ACT/REF observers there), folds the banks
    reported by :meth:`rfm_pending` into command selection ahead of
    preventive and demand traffic, and reports each issued RFM through
    :meth:`on_rfm`.
    """

    name = "base"
    PARAMS: Tuple[str, ...] = ()
    #: True for policies that track activations and owe RFM commands; the
    #: controller skips all active-hook wiring when False, so passive
    #: policies cost nothing on the scheduling path.
    ISSUES_RFM = False

    def adjust_dram_config(self, config: DRAMConfig) -> DRAMConfig:
        return config

    def attach(self, controller: "MemoryController") -> None:
        """Called once by the controller after its DRAM system is built."""

    def rfm_pending(self) -> Sequence[Tuple[int, int, int, int]]:
        """Bank keys whose rolling activation count currently owes an RFM."""
        return ()

    def on_rfm(self, cycle: int, bank_key: Tuple[int, int, int, int]) -> None:
        """An RFM command to ``bank_key`` was issued at ``cycle``."""


# --------------------------------------------------------------------------- #
# Scheduling policies
# --------------------------------------------------------------------------- #
@register_scheduler(
    "fr_fcfs",
    "row hits first, oldest first, with a column cap so hit streams cannot "
    "starve row misses (the paper's Table 2 scheduler)",
)
class FRFCFSScheduler(SchedulingPolicy):
    """FR-FCFS with the column-cap starvation guard (the default).

    Closed bank → ACT for the oldest request (mitigation throttle applied),
    open bank → oldest hit unless the column cap forces the oldest
    conflict's PRE.  The base-class facts (``HITS_FIRST``, no demotion)
    express exactly this to the controller's demand scan.
    """


@register_scheduler(
    "fcfs",
    "strict arrival order per bank: no hit-first reordering, so row hits "
    "bring no scheduling advantage",
)
class FCFSScheduler(SchedulingPolicy):
    """First-come first-served: the oldest request per bank always wins.

    To the controller's demand scan this is ``HITS_FIRST = False``: the scan looks
    at each bank's oldest request alone.
    """

    HITS_FIRST = False


@register_scheduler(
    "bliss",
    "BLISS-style starvation-aware scheduling: cores served many consecutive "
    "requests are blacklisted for an interval and deprioritized",
)
class BLISSScheduler(SchedulingPolicy):
    """Blacklisting scheduler (after BLISS, Subramanian et al.).

    A core that gets ``blacklist_streak`` consecutive column commands served
    is blacklisted until the next clearing interval; requests from
    blacklisted cores lose to everyone else, then row hits and age break
    ties as in FR-FCFS.  This bounds how long one streaming core (or a
    row-hammering attacker) can monopolize a bank.

    To the controller's demand scan the blacklist is :attr:`demoted_cores`
    and the clearing check is :meth:`before_demand_scan`.
    """

    PARAMS = ("bliss_blacklist_streak", "bliss_clearing_interval")

    def __init__(
        self,
        bliss_blacklist_streak: int = 4,
        bliss_clearing_interval: int = 10_000,
    ) -> None:
        if bliss_blacklist_streak < 1:
            raise ValueError("bliss_blacklist_streak must be >= 1")
        if bliss_clearing_interval < 1:
            raise ValueError("bliss_clearing_interval must be >= 1")
        self.blacklist_streak = bliss_blacklist_streak
        self.clearing_interval = bliss_clearing_interval
        self.blacklist: set = set()
        self._streak_core: Optional[int] = None
        self._streak = 0
        self._next_clear = bliss_clearing_interval

    def _maybe_clear(self, cycle: int) -> None:
        while cycle >= self._next_clear:
            self.blacklist.clear()
            self._streak_core = None
            self._streak = 0
            self._next_clear += self.clearing_interval

    @property
    def demoted_cores(self) -> set:
        return self.blacklist

    def before_demand_scan(self, cycle: int) -> None:
        self._maybe_clear(cycle)

    def priority_boundary_crossed(self, start: int, end: int) -> bool:
        # A clearing deadline inside the interval empties the blacklist, so
        # a decision made at ``start`` may rank requests wrongly at ``end``.
        return start < self._next_clear <= end

    def close_priority(self, opened_cycle: int) -> tuple:
        return (0, opened_cycle)

    def on_issue(self, command, request, cycle):
        if command.kind not in (CommandKind.RD, CommandKind.WR) or request is None:
            return
        self._maybe_clear(cycle)
        core = request.core_id
        if core is None:
            # Mitigation traffic carries no core; it breaks any streak.
            self._streak_core = None
            self._streak = 0
            return
        if core == self._streak_core:
            self._streak += 1
        else:
            self._streak_core = core
            self._streak = 1
        if self._streak >= self.blacklist_streak:
            self.blacklist.add(core)


# --------------------------------------------------------------------------- #
# Row policies
# --------------------------------------------------------------------------- #
@register_row_policy(
    "open_page",
    "rows stay open until a conflicting request or a refresh needs the bank "
    "(the paper's policy)",
)
class OpenPagePolicy(RowPolicy):
    """Open-page: never close a row speculatively (the default)."""


class _RowTrackingPolicy(RowPolicy):
    """Shared open-row bookkeeping for the closing policies."""

    def __init__(self) -> None:
        self._open: Dict[Tuple[int, int, int, int], int] = {}

    def on_act(self, bank_key, cycle):
        self._open[bank_key] = cycle

    def on_pre(self, bank_key):
        self._open.pop(bank_key, None)


@register_row_policy(
    "closed_page",
    "precharge a bank as soon as it has no queued requests, trading row-hit "
    "locality for faster conflict service",
)
class ClosedPagePolicy(_RowTrackingPolicy):
    """Closed-page: close any open bank with no pending work."""

    def close_candidates(self, controller, cycle):
        for bank_key, opened in self._open.items():
            if controller.has_pending_for_bank(bank_key):
                continue
            yield bank_key, opened, cycle


@register_row_policy(
    "adaptive_timeout",
    "close a row once it has been open for a fixed residency timeout with no "
    "queued work (bounds RowPress-style long-open-row disturbance)",
)
class AdaptiveTimeoutPolicy(_RowTrackingPolicy):
    """Timeout-based adaptive policy: idle rows close after ``row_timeout``."""

    PARAMS = ("row_timeout",)

    def __init__(self, row_timeout: int = 600) -> None:
        super().__init__()
        if row_timeout < 0:
            raise ValueError("row_timeout must be >= 0")
        self.row_timeout = row_timeout

    def close_candidates(self, controller, cycle):
        for bank_key, opened in self._open.items():
            if controller.has_pending_for_bank(bank_key):
                continue
            yield bank_key, opened, opened + self.row_timeout


# --------------------------------------------------------------------------- #
# Refresh policies
# --------------------------------------------------------------------------- #
@register_refresh_policy(
    "all_bank",
    "one rank-level REF every tREFI, refreshing rows_per_refresh rows of "
    "every bank (the paper's mode)",
)
class AllBankRefreshPolicy(RefreshPolicy):
    """Standard all-bank periodic refresh (the default)."""


@register_refresh_policy(
    "fine_granularity",
    "DDR4 fine-granularity refresh: REF 2x/4x as often, each covering a "
    "fraction of the rows and blocking the rank for the shorter tRFC2/tRFC4",
)
class FineGranularityRefreshPolicy(RefreshPolicy):
    """DDR4 FGR 2x/4x mode, the per-bank-refresh stand-in.

    Doubling (quadrupling) the REF rate halves (quarters) the rows covered
    per command — ``rows_per_refresh`` is derived from ``tREFW // tREFI`` —
    while tRFC shrinks by the JEDEC DDR4 ratio (tRFC2 = 260 ns and
    tRFC4 = 160 ns against tRFC1 = 350 ns), so demand traffic sees shorter,
    more frequent refresh blackouts.  Every row is still refreshed once per
    tREFW and REF stays rank-level, so mitigation counter-reset semantics
    are unchanged.
    """

    PARAMS = ("refresh_granularity",)

    #: JEDEC DDR4 tRFC2/tRFC1 and tRFC4/tRFC1 ratios (260/350, 160/350 ns).
    _TRFC_RATIO = {2: 260.0 / 350.0, 4: 160.0 / 350.0}

    def __init__(self, refresh_granularity: int = 2) -> None:
        if refresh_granularity not in self._TRFC_RATIO:
            raise ValueError(
                f"refresh_granularity must be one of "
                f"{sorted(self._TRFC_RATIO)}, got {refresh_granularity}"
            )
        self.granularity = refresh_granularity

    def adjust_dram_config(self, config: DRAMConfig) -> DRAMConfig:
        timing = config.timing
        ratio = self._TRFC_RATIO[self.granularity]
        return replace(
            config,
            timing=replace(
                timing,
                tREFI=max(1, timing.tREFI // self.granularity),
                tRFC=max(1, int(round(timing.tRFC * ratio))),
            ),
        )


@register_refresh_policy(
    "rfm",
    "DDR5 Refresh Management: per-bank rolling activation accounting with "
    "raaimt/raammt thresholds; RFM commands block the bank for tRFM while "
    "the device refreshes likely victims",
)
class RFMRefreshPolicy(RefreshPolicy):
    """DDR5 RFM: per-bank Rolling Accumulated ACT (RAA) accounting.

    Every ACT increments the target bank's RAA counter.  At ``raaimt`` (the
    initial management threshold) the controller owes the bank an RFM:
    command selection serves it ahead of preventive and demand traffic as a
    bank-scoped :data:`~repro.dram.commands.CommandKind.RFM` that blocks
    the bank for ``trfm`` cycles while the device refreshes the victims of
    the hottest tracked aggressor row.  Each RFM — and each periodic REF —
    pays back ``raaimt`` activations' worth of RAA.

    ``raammt`` (the maximum management threshold) is the device-enforced
    backstop: a real device refuses further ACTs until the overdue RFM goes
    out.  In detailed simulation RAA essentially cannot reach it (the owed
    RFM outranks every further demand ACT), but sampled fast-forward runs
    no scheduler, so the activation observer applies the management action
    functionally the moment RAA hits ``raammt`` — preserving the security
    contract across fidelity modes.

    Device-side victim selection is modelled as a per-bank activation
    tracker: each RFM services the hottest row recorded since that row was
    last serviced (refreshing its +-1 neighbours through
    :meth:`~repro.dram.dram_system.DRAMSystem.notify_row_refresh`, which
    the security verifier observes) and clears the row's entry.  Ties pick
    the lowest row index, keeping the policy deterministic.
    """

    PARAMS = ("raaimt", "raammt", "trfm")
    ISSUES_RFM = True

    def __init__(self, raaimt: int = 32, raammt: int = 64, trfm: int = 250) -> None:
        if raaimt < 1:
            raise ValueError("raaimt must be >= 1")
        if raammt < raaimt:
            raise ValueError("raammt must be >= raaimt")
        if trfm < 1:
            raise ValueError("trfm must be >= 1")
        self.raaimt = raaimt
        self.raammt = raammt
        self.trfm = trfm
        self._controller: Optional["MemoryController"] = None
        #: Rolling Accumulated ACT count per (channel, rank, bankgroup, bank).
        self._raa: Dict[Tuple[int, int, int, int], int] = {}
        #: Device-side tracker: per bank, ACTs per row since the row's last
        #: RFM service.
        self._row_acts: Dict[Tuple[int, int, int, int], Dict[int, int]] = {}
        #: Banks at or above raaimt, maintained incrementally so the
        #: per-decision pending query is O(1) when nothing is owed.
        self._due: set = set()

    # -- controller wiring ------------------------------------------------
    def attach(self, controller: "MemoryController") -> None:
        self._controller = controller
        controller.dram.add_activation_observer(self._observe_activation)
        controller.dram.add_refresh_observer(self._observe_refresh)

    def rfm_pending(self) -> Sequence[Tuple[int, int, int, int]]:
        if not self._due:
            return ()
        return sorted(self._due)

    def on_rfm(self, cycle: int, bank_key: Tuple[int, int, int, int]) -> None:
        self._raa[bank_key] = self._service(
            bank_key, cycle, self._raa.get(bank_key, 0)
        )

    # -- observers ---------------------------------------------------------
    def _observe_activation(self, cycle, address, is_preventive) -> None:
        bank_key = address.bank_key
        raa = self._raa.get(bank_key, 0) + 1
        rows = self._row_acts.get(bank_key)
        if rows is None:
            rows = self._row_acts[bank_key] = {}
        rows[address.row] = rows.get(address.row, 0) + 1
        if raa >= self.raammt:
            # Device backstop (reached only in sampled fast-forward, where
            # RFM commands never issue): apply the management action in
            # place, as a device refusing further ACTs effectively does.
            raa = self._service(bank_key, cycle, raa)
            self._controller.dram.stats.rfms += 1
        self._raa[bank_key] = raa
        if raa >= self.raaimt:
            self._due.add(bank_key)

    def _observe_refresh(self, cycle, rank_key, start_row, count) -> None:
        channel, rank = rank_key
        for bank_key, raa in self._raa.items():
            if bank_key[0] != channel or bank_key[1] != rank or raa == 0:
                continue
            raa = max(0, raa - self.raaimt)
            self._raa[bank_key] = raa
            if raa < self.raaimt:
                self._due.discard(bank_key)

    def _service(
        self, bank_key: Tuple[int, int, int, int], cycle: int, raa: int
    ) -> int:
        """Perform the device's RFM action on ``bank_key``; returns the new RAA."""
        dram = self._controller.dram
        rows = self._row_acts.get(bank_key)
        if rows:
            aggressor_row = max(
                rows.items(), key=lambda item: (item[1], -item[0])
            )[0]
            del rows[aggressor_row]
            channel, rank, bankgroup, bank = bank_key
            aggressor = DRAMAddress(
                channel=channel,
                rank=rank,
                bankgroup=bankgroup,
                bank=bank,
                row=aggressor_row,
                column=0,
            )
            victims = self._controller.mapper.neighbors(aggressor, 1)
            for victim in victims:
                dram.notify_row_refresh(cycle, victim)
            dram.stats.in_dram_refresh_rows += len(victims)
        raa = max(0, raa - self.raaimt)
        if raa < self.raaimt:
            self._due.discard(bank_key)
        return raa


# --------------------------------------------------------------------------- #
# The serializable policy spec
# --------------------------------------------------------------------------- #
_Pairs = Tuple[Tuple[str, Any], ...]


def _as_pairs(value: Union[None, Mapping[str, Any], Sequence]) -> _Pairs:
    if value is None:
        return ()
    items = value.items() if isinstance(value, Mapping) else list(value)
    return tuple(sorted((str(key), val) for key, val in items))


@dataclass(frozen=True)
class ControllerPolicySpec:
    """One point in the controller policy space: a name per axis + params.

    Frozen, hashable and codec-serializable (it rides inside
    :class:`~repro.experiment.spec.PlatformSpec`).  ``params`` holds policy
    parameters (e.g. ``row_timeout`` for ``adaptive_timeout`` or
    ``bliss_blacklist_streak``); each key must be accepted by one of the
    three selected policies, validated at construction time.
    """

    scheduler: str = "fr_fcfs"
    row_policy: str = "open_page"
    refresh_policy: str = "all_bank"
    #: Policy parameters as sorted ``(key, value)`` pairs (pass a dict).
    params: _Pairs = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _as_pairs(self.params))
        entries = self._entries()
        accepted = {name for entry in entries for name in entry.params}
        unknown = [key for key, _ in self.params if key not in accepted]
        if unknown:
            raise ValueError(
                f"unknown policy params {unknown}; the selected policies "
                f"accept {sorted(accepted) or 'no parameters'}"
            )

    def _entries(self) -> Tuple[PolicyEntry, PolicyEntry, PolicyEntry]:
        return (
            policy_entry("scheduler", self.scheduler),
            policy_entry("row_policy", self.row_policy),
            policy_entry("refresh_policy", self.refresh_policy),
        )

    @property
    def is_default(self) -> bool:
        """True for the paper's triple with no parameter overrides."""
        return self == ControllerPolicySpec()

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def label(self) -> str:
        """Compact display label, e.g. ``fr_fcfs/open_page/all_bank``."""
        base = f"{self.scheduler}/{self.row_policy}/{self.refresh_policy}"
        if self.params:
            base += "[" + ",".join(f"{k}={v}" for k, v in self.params) + "]"
        return base

    def build(self) -> Tuple[SchedulingPolicy, RowPolicy, RefreshPolicy]:
        """Fresh policy instances (stateful — one set per controller)."""
        scheduler_e, row_e, refresh_e = self._entries()
        params = self.params_dict()
        return (
            scheduler_e.build(params),
            row_e.build(params),
            refresh_e.build(params),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "row_policy": self.row_policy,
            "refresh_policy": self.refresh_policy,
            "params": self.params_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ControllerPolicySpec":
        return cls(
            scheduler=data.get("scheduler", "fr_fcfs"),
            row_policy=data.get("row_policy", "open_page"),
            refresh_policy=data.get("refresh_policy", "all_bank"),
            params=data.get("params", ()),
        )


def normalize_policy(
    policy: Optional[ControllerPolicySpec],
) -> Optional[ControllerPolicySpec]:
    """Map the default triple to ``None`` so spec hashes stay stable.

    A platform carrying an explicit default policy describes the same
    experiment as one carrying no policy at all; normalizing keeps their
    canonical JSON — and therefore their result-store keys — identical.
    """
    if policy is not None and policy.is_default:
        return None
    return policy


DEFAULT_POLICY = ControllerPolicySpec()
