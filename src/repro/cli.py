"""Command-line interface for quick experiments.

Installed as the ``python -m repro.cli`` entry point (and importable as
:func:`repro.cli.main`), the CLI is a thin shell over the declarative
experiment API (:mod:`repro.experiment`): every subcommand builds
:class:`~repro.experiment.spec.ExperimentSpec` objects and executes them
through a :class:`~repro.experiment.session.Session`.

``python -m repro.cli workloads``
    List the 61-workload suite grouped by memory-intensity category.

``python -m repro.cli list``
    List every registered component: mitigation mechanisms (with their
    construction metadata and design thresholds), workloads (including the
    ``synth_*`` adversarial patterns) and the controller policies of the
    three policy axes.

``python -m repro.cli run --workload 429.mcf --mitigation comet --nrh 125``
    Run one workload under one mitigation and print the result summary
    (normalized IPC against the unprotected baseline included).

``python -m repro.cli run --spec experiment.json [--out record.json]``
    Run one serialized :class:`ExperimentSpec` end-to-end and print its
    summary; ``--out`` archives the full :class:`RunRecord` as JSON.

``python -m repro.cli run ... --profile``
    Profile the run under cProfile and append the top hot functions plus
    per-component time attribution (where the host cycles go:
    ``sim`` / ``controller`` / ``dram`` / ``cpu`` / ``mitigations`` / ...)
    to the summary — see :mod:`repro.analysis.profiling`.

``python -m repro.cli compare --workload 429.mcf --nrh 125``
    Run every mitigation on one workload and print a comparison table.

``python -m repro.cli attack --mitigation comet --nrh 125``
    Run the traditional RowHammer attack against a mitigation and report the
    security verifier's verdict.

``python -m repro.cli sweep --workloads 429.mcf --mitigations comet para --nrh 1000 125``
    Fan a mitigation x threshold grid across worker processes through the
    result store and print every point (Figures 6-9 pattern).
    ``--scheduler/--row-policy/--refresh-policy`` accept several values and
    become controller-policy sweep axes (every workload x mitigation x NRH
    cell repeated per policy triple, each normalized to a baseline running
    the same policies).

``python -m repro.cli audit --mitigations all --patterns all --nrh 125``
    Run a security-audit campaign: every protective mechanism against every
    synthesized/hand-written adversarial pattern, reduced to per-mechanism
    verdicts and disturbance margins (``--out`` archives the SecurityReport
    JSON).

``python -m repro.cli campaign run --name nightly --workloads 429.mcf --mitigations comet para --nrh 250 125 --store DIR --backend sqlite``
    Run (or resume) a persistent campaign: grid cells missing from the
    content-addressed result store are queued through the chosen backend
    (``memory`` or ``sqlite``) and fanned across workers; a killed run
    resumes with zero recomputation of completed cells.

``python -m repro.cli campaign status --store DIR``
    Report completed/total progress for every campaign checkpointed in a
    store — no simulation, no queue needed.

``python -m repro.cli campaign query --store DIR --mitigation comet``
    Query stored results (flat summary rows) straight from the record
    files.

``python -m repro.cli serve --store DIR --port 8080``
    Serve the read-only JSON API (``/health``, ``/records/<hash>``,
    ``/query``, ``/campaigns``) over a store.

``python -m repro.cli area --nrh 125``
    Print the storage/area comparison (Table 4 row) for a threshold.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.reporting import format_table
from repro.area.model import (
    comet_area_report,
    graphene_area_report,
    hydra_area_report,
    prac_area_report,
)
from repro.controller.policies import (
    ControllerPolicySpec,
    normalize_policy,
    policy_catalog,
    refresh_policy_names,
    row_policy_names,
    scheduler_names,
)
from repro.experiment.registry import (
    mitigation_entries,
    mitigation_names,
    registered_workload_names,
    workload_entry,
)
from repro.experiment.session import Session
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    SampledConfig,
    WorkloadSpec,
    expand_grid,
)
from repro.workloads.suite import workloads_by_category


def _channel_count(value: str) -> int:
    """Argparse type for ``--channels``: a positive power of two.

    The interleaved address mapping slices fixed-width bit fields, so a
    non-power-of-two channel count would alias coordinates; rejecting it
    here gives a one-line CLI error instead of a traceback from the
    geometry validator (possibly inside a sweep worker process).
    """
    try:
        channels = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if channels < 1 or channels & (channels - 1):
        raise argparse.ArgumentTypeError(
            f"channel count must be a positive power of two, got {channels}"
        )
    return channels


def _add_policy_arguments(
    parser: argparse.ArgumentParser, sweepable: bool = False
) -> None:
    """Controller-policy flags; ``sweepable`` turns them into grid axes."""
    nargs = "+" if sweepable else None
    plural = " (several values sweep the axis)" if sweepable else ""
    parser.add_argument(
        "--scheduler",
        nargs=nargs,
        default=["fr_fcfs"] if sweepable else "fr_fcfs",
        choices=scheduler_names(),
        help=f"request scheduling policy{plural}",
    )
    parser.add_argument(
        "--row-policy",
        nargs=nargs,
        default=["open_page"] if sweepable else "open_page",
        choices=row_policy_names(),
        help=f"row-buffer policy{plural}",
    )
    parser.add_argument(
        "--refresh-policy",
        nargs=nargs,
        default=["all_bank"] if sweepable else "all_bank",
        choices=refresh_policy_names(),
        help=f"periodic refresh mode{plural}",
    )


def _policy_from_args(args: argparse.Namespace):
    """The single policy triple named by run/compare/attack flags (or None)."""
    return normalize_policy(
        ControllerPolicySpec(
            scheduler=args.scheduler,
            row_policy=args.row_policy,
            refresh_policy=args.refresh_policy,
        )
    )


def _policies_from_args(args: argparse.Namespace):
    """Cross-product of the sweepable policy flags, defaults normalized."""
    return [
        normalize_policy(
            ControllerPolicySpec(
                scheduler=scheduler,
                row_policy=row_policy,
                refresh_policy=refresh_policy,
            )
        )
        for scheduler in args.scheduler
        for row_policy in args.row_policy
        for refresh_policy in args.refresh_policy
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoMeT reproduction: run scaled RowHammer-mitigation experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list the synthetic workload suite")

    subparsers.add_parser(
        "list",
        help="list registered mitigations, workloads and controller policies",
    )

    run_parser = subparsers.add_parser("run", help="run one workload under one mitigation")
    _add_common_arguments(run_parser)
    run_parser.add_argument(
        "--mitigation",
        default="comet",
        choices=mitigation_names(),
        help="mitigation mechanism (default: comet)",
    )
    run_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="run a serialized ExperimentSpec JSON file instead of the flags",
    )
    run_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="with --spec: also write the full RunRecord JSON here",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run under cProfile and append the top hot "
        "functions plus per-component time attribution",
    )
    run_parser.add_argument(
        "--fidelity",
        default="full",
        choices=("full", "sampled"),
        help="execution fidelity: 'full' evaluates every command on the "
        "event kernel; 'sampled' fast-forwards functionally between "
        "detailed windows (approximate timing, exact mitigation state)",
    )
    run_parser.add_argument(
        "--sample-interval",
        type=int,
        default=None,
        metavar="N",
        help="with --fidelity sampled: trace entries per sampling period "
        "(default %d)" % SampledConfig().interval,
    )
    run_parser.add_argument(
        "--detailed-window",
        type=int,
        default=None,
        metavar="N",
        help="with --fidelity sampled: detailed entries at the end of each "
        "period (default %d)" % SampledConfig().detailed_window,
    )
    run_parser.add_argument(
        "--warmup",
        type=int,
        default=None,
        metavar="N",
        help="with --fidelity sampled: detailed entries before the first "
        "fast-forward (default %d)" % SampledConfig().warmup,
    )

    compare_parser = subparsers.add_parser(
        "compare", help="run every mitigation on one workload"
    )
    _add_common_arguments(compare_parser)

    attack_parser = subparsers.add_parser(
        "attack", help="run the traditional RowHammer attack against a mitigation"
    )
    attack_parser.add_argument(
        "--mitigation",
        default="comet",
        choices=mitigation_names(),
        help="mitigation mechanism (default: comet)",
    )
    attack_parser.add_argument("--nrh", type=int, default=125, help="RowHammer threshold")
    attack_parser.add_argument(
        "--requests", type=int, default=6000, help="attack trace length"
    )
    attack_parser.add_argument(
        "--channels", type=_channel_count, default=1,
        help="memory channels (fabric width)",
    )
    attack_parser.add_argument(
        "--target-channel", type=int, default=0,
        help="channel the attack hammers (others stay benign-idle)",
    )
    _add_policy_arguments(attack_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a mitigation x threshold grid across worker processes"
    )
    sweep_parser.add_argument(
        "--workloads", nargs="+", default=["429.mcf"], help="workload names"
    )
    sweep_parser.add_argument(
        "--mitigations",
        nargs="+",
        default=["comet"],
        choices=mitigation_names(),
        help="mitigation mechanisms to sweep",
    )
    sweep_parser.add_argument(
        "--nrh", type=int, nargs="+", default=[1000, 125], help="RowHammer thresholds"
    )
    sweep_parser.add_argument(
        "--channels", type=_channel_count, nargs="+", default=[1],
        help="memory channel counts to sweep (fabric width axis)",
    )
    _add_policy_arguments(sweep_parser, sweepable=True)
    sweep_parser.add_argument(
        "--requests", type=int, default=8000, help="trace length in requests"
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 0 runs inline)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="result store directory (default: $REPRO_CAMPAIGN_STORE or "
        "~/.cache/repro/campaigns; see EXPERIMENTS.md)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result store"
    )

    audit_parser = subparsers.add_parser(
        "audit",
        help="run a mitigation x adversarial-pattern security-audit campaign",
    )
    audit_parser.add_argument(
        "--mitigations", nargs="+", default=["all"],
        help="mechanisms to audit ('all' = every protective mechanism)",
    )
    audit_parser.add_argument(
        "--patterns", nargs="+", default=["all"],
        help="adversarial patterns ('all' = every synth_* and attack_* workload)",
    )
    audit_parser.add_argument(
        "--nrh", type=int, nargs="+", default=None,
        help="RowHammer thresholds (default: each mechanism's design threshold)",
    )
    audit_parser.add_argument(
        "--requests", type=int, default=6000, help="trace length per pattern"
    )
    audit_parser.add_argument(
        "--channels", type=_channel_count, default=1,
        help="memory channels (fabric width)",
    )
    audit_parser.add_argument(
        "--seed", type=int, default=0, help="pattern-synthesis seed (reproducible)"
    )
    _add_policy_arguments(audit_parser, sweepable=True)
    audit_parser.add_argument(
        "--include-baseline", action="store_true",
        help="also audit the unprotected baseline (expected insecure)",
    )
    audit_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the full SecurityReport JSON here",
    )
    audit_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 0 runs inline)",
    )
    audit_parser.add_argument(
        "--cache-dir", default=None,
        help="result store directory (default: $REPRO_CAMPAIGN_STORE or "
        "~/.cache/repro/campaigns; see EXPERIMENTS.md)",
    )
    audit_parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result store"
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="persistent, resumable experiment campaigns (store + work queue)",
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    crun = campaign_sub.add_parser(
        "run", help="run (or resume) a campaign grid through a queue backend"
    )
    crun.add_argument(
        "--campaign-file", default=None, metavar="FILE",
        help="serialized CampaignSpec JSON (overrides the grid flags)",
    )
    crun.add_argument(
        "--scaling-study", action="store_true",
        help="run the low-NRH scaling study (mechanisms x NRH in "
        "{125,64,32,20}, streaming-verified; overrides the grid flags and "
        "prints the per-mechanism security report)",
    )
    crun.add_argument("--name", default="campaign", help="campaign name")
    crun.add_argument(
        "--workloads", nargs="+", default=["429.mcf"], help="workload names"
    )
    crun.add_argument(
        "--mitigations", nargs="+", default=["comet"],
        choices=mitigation_names(), help="mitigation mechanisms",
    )
    crun.add_argument(
        "--nrh", type=int, nargs="+", default=[125], help="RowHammer thresholds"
    )
    crun.add_argument(
        "--requests", type=int, default=8000, help="trace length in requests"
    )
    crun.add_argument("--cores", type=int, default=1, help="cores per cell")
    crun.add_argument(
        "--channels", type=_channel_count, nargs="+", default=[1],
        help="memory channel counts (grid axis)",
    )
    crun.add_argument(
        "--priority", type=int, default=0, help="base queue priority of every cell"
    )
    crun.add_argument(
        "--budget", type=int, default=None,
        help="max cells executed by this invocation (resume later for the rest)",
    )
    _add_campaign_store_arguments(crun)
    crun.add_argument(
        "--backend", default="sqlite", choices=("memory", "sqlite"),
        help="work-queue backend (default: sqlite)",
    )
    crun.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 0 runs inline)",
    )
    crun.add_argument(
        "--lease", type=float, default=60.0,
        help="seconds a claimed cell is protected before idle runners reclaim it",
    )

    cstatus = campaign_sub.add_parser(
        "status", help="report store-backed progress of checkpointed campaigns"
    )
    _add_campaign_store_arguments(cstatus)
    cstatus.add_argument(
        "--campaign", default=None, metavar="ID",
        help="campaign id (or unambiguous prefix); default: every campaign",
    )

    cquery = campaign_sub.add_parser(
        "query", help="query stored results without simulating"
    )
    _add_campaign_store_arguments(cquery)
    cquery.add_argument("--workload", default=None, help="filter by workload name")
    cquery.add_argument("--mitigation", default=None, help="filter by mechanism")
    cquery.add_argument("--nrh", type=int, default=None, help="filter by threshold")
    cquery.add_argument(
        "--spec-hash", default=None, metavar="HASH",
        help="print the one full record for a spec hash instead of summaries",
    )
    cquery.add_argument(
        "--limit", type=int, default=None, help="maximum summary rows"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="serve the read-only campaign-store JSON API over HTTP"
    )
    _add_campaign_store_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8123, help="bind port (0 picks a free one)"
    )

    area_parser = subparsers.add_parser("area", help="print the Table 4 area comparison")
    area_parser.add_argument("--nrh", type=int, default=125, help="RowHammer threshold")

    return parser


def _add_campaign_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="campaign result-store directory (default: $REPRO_CAMPAIGN_STORE "
        "or ~/.cache/repro/campaigns)",
    )


def _store_from_args(args: argparse.Namespace):
    from repro.campaign import ResultStore, default_store_dir

    return ResultStore(Path(args.store) if args.store else default_store_dir())


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="429.mcf", help="workload name (see `workloads`)")
    parser.add_argument("--nrh", type=int, default=125, help="RowHammer threshold")
    parser.add_argument("--requests", type=int, default=8000, help="trace length in requests")
    parser.add_argument(
        "--channels", type=_channel_count, default=1,
        help="memory channels (fabric width)",
    )
    _add_policy_arguments(parser)


def _session(args: Optional[argparse.Namespace] = None) -> Session:
    """A Session honouring the sweep flags (other commands run uncached)."""
    if args is None or not hasattr(args, "workers"):
        return Session(max_workers=0, store=None)
    from repro.campaign.store import default_store_dir

    store = None if args.no_cache else (args.cache_dir or default_store_dir())
    return Session(max_workers=args.workers, store=store)


def _command_list(_args: argparse.Namespace) -> str:
    from repro.security.audit import design_nrh

    sections = []
    mitigation_rows = []
    for name, entry in sorted(mitigation_entries().items()):
        mitigation_rows.append(
            {
                "mitigation": name,
                "takes_nrh": entry.takes_nrh,
                "seedable": entry.seedable,
                "design_nrh": design_nrh(name) if name != "none" else "-",
            }
        )
    sections.append(
        format_table(mitigation_rows, title="registered mitigation mechanisms")
    )

    workload_rows = []
    for name in registered_workload_names():
        workload_rows.append(
            {"category": workload_entry(name).category, "workload": name}
        )
    workload_rows.sort(key=lambda row: (row["category"], row["workload"]))
    sections.append(
        format_table(
            workload_rows,
            title=f"registered workloads ({len(workload_rows)}, incl. synth_* patterns)",
        )
    )

    policy_rows = [
        {
            "axis": entry.kind,
            "policy": entry.name,
            "params": ", ".join(entry.params) or "-",
            "description": entry.description,
        }
        for entry in policy_catalog()
    ]
    sections.append(
        format_table(
            policy_rows,
            title="controller policies (--scheduler / --row-policy / --refresh-policy)",
        )
    )
    return "\n\n".join(sections)


def _command_workloads(_args: argparse.Namespace) -> str:
    rows = []
    for category, names in workloads_by_category().items():
        for name in sorted(names):
            rows.append({"category": category, "workload": name})
    return format_table(rows, title="Synthetic workload suite (Table 3 categories)")


def _command_run(args: argparse.Namespace) -> str:
    body = _run_spec_file if args.spec is not None else _run_from_flags
    if not args.profile:
        return body(args)
    # Profiled runs go through an uncached Session (`_session()` with no
    # sweep flags disables the result cache), so cProfile always sees a
    # real simulation, never a cache hit.
    from repro.analysis.profiling import profile_call

    output, report = profile_call(lambda: body(args))
    return output + "\n\n" + report.render()


def _sampled_from_args(args: argparse.Namespace):
    """``(fidelity, SampledConfig | None)`` from the run-command flags."""
    knobs = {
        "interval": getattr(args, "sample_interval", None),
        "detailed_window": getattr(args, "detailed_window", None),
        "warmup": getattr(args, "warmup", None),
    }
    set_knobs = {key: value for key, value in knobs.items() if value is not None}
    if getattr(args, "fidelity", "full") != "sampled":
        if set_knobs:
            flags = ", ".join(f"--{key.replace('_', '-')}" for key in set_knobs)
            raise SystemExit(f"{flags} require --fidelity sampled")
        return "full", None
    try:
        return "sampled", SampledConfig(**{**vars(SampledConfig()), **set_knobs})
    except ValueError as exc:
        raise SystemExit(f"invalid sampling configuration: {exc}")


def _run_from_flags(args: argparse.Namespace) -> str:
    session = _session()
    policy = _policy_from_args(args)
    fidelity, sampled = _sampled_from_args(args)
    records = session.compare(
        WorkloadSpec(name=args.workload, num_requests=args.requests),
        [args.mitigation],
        nrh=args.nrh,
        platform=PlatformSpec(channels=args.channels, controller=policy),
        fidelity=fidelity,
        sampled=sampled,
    )
    baseline, result = records["none"].result, records[args.mitigation].result
    normalized = result.ipc / baseline.ipc if baseline.ipc else 0.0
    rows = [
        {
            "workload": args.workload,
            "mitigation": args.mitigation,
            "nrh": args.nrh,
            "ipc": round(result.ipc, 4),
            "normalized_IPC": round(normalized, 4),
            "preventive_refreshes": result.preventive_refreshes,
            "secure": result.security_ok,
        }
    ]
    if policy is not None:
        rows[0]["policy"] = policy.label()
    if fidelity != "full":
        rows[0]["fidelity"] = fidelity
    return format_table(rows, title="single-core run")


def _run_spec_file(args: argparse.Namespace) -> str:
    spec_path = Path(args.spec)
    try:
        spec = ExperimentSpec.from_json(spec_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"spec file not found: {spec_path}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid experiment spec {spec_path}: {exc}")
    record = _session().run(spec)
    if args.out is not None:
        Path(args.out).write_text(record.to_json() + "\n", encoding="utf-8")
    result = record.result
    rows = [
        {
            "experiment": spec.run_name(),
            "mitigation": spec.mitigation.name,
            "nrh": spec.mitigation.nrh,
            "channels": spec.platform.channel_count,
            "ipc": round(result.ipc, 4),
            "preventive_refreshes": result.preventive_refreshes,
            "secure": result.security_ok,
            "spec_hash": record.provenance["spec_hash"][:12],
        }
    ]
    return format_table(rows, title=f"spec run ({spec_path.name})")


def _command_compare(args: argparse.Namespace) -> str:
    session = _session()
    mitigations = [name for name in mitigation_names() if name != "none"]
    records = session.compare(
        WorkloadSpec(name=args.workload, num_requests=args.requests),
        mitigations,
        nrh=args.nrh,
        platform=PlatformSpec(
            channels=args.channels, controller=_policy_from_args(args)
        ),
    )
    baseline = records["none"].result
    rows = []
    for name in mitigations:
        result = records[name].result
        rows.append(
            {
                "mitigation": name,
                "normalized_IPC": round(result.ipc / baseline.ipc, 4) if baseline.ipc else 0.0,
                "preventive_refreshes": result.preventive_refreshes,
                "secure": result.security_ok,
            }
        )
    return format_table(
        rows, title=f"{args.workload} at NRH={args.nrh}, normalized to no mitigation"
    )


def _command_attack(args: argparse.Namespace) -> str:
    if not 0 <= args.target_channel < args.channels:
        raise SystemExit(
            f"--target-channel {args.target_channel} is out of range for "
            f"--channels {args.channels} (valid: 0..{args.channels - 1})"
        )
    # The baseline is verified too: `attack --mitigation none` reporting the
    # RowHammer violation (secure: no) is the point of the command.
    spec = ExperimentSpec(
        workload=WorkloadSpec(
            name="attack_traditional",
            num_requests=args.requests,
            params={"aggressor_rows_per_bank": 2, "channel": args.target_channel},
        ),
        mitigation=MitigationSpec(name=args.mitigation, nrh=args.nrh),
        platform=PlatformSpec(
            channels=args.channels, controller=_policy_from_args(args)
        ),
    )
    result = _session().run(spec).result
    rows = [
        {
            "mitigation": args.mitigation,
            "nrh": args.nrh,
            "secure": result.security_ok,
            "max_disturbance": result.max_disturbance,
            "preventive_refreshes": result.preventive_refreshes,
        }
    ]
    return format_table(rows, title="traditional RowHammer attack")


def _command_sweep(args: argparse.Namespace) -> str:
    policies = _policies_from_args(args)
    specs = expand_grid(
        workloads=args.workloads,
        mitigations=args.mitigations,
        nrhs=args.nrh,
        num_requests=args.requests,
        channels=args.channels,
        policies=policies,
    )
    session = _session(args)
    records = session.run_many(specs)
    show_policy = any(policy is not None for policy in policies)

    def _policy_label(spec):
        controller = spec.platform.controller
        return controller.label() if controller is not None else "default"

    baselines = {
        (spec.workload.name, spec.platform.channel_count, _policy_label(spec)):
            record.result
        for spec, record in zip(specs, records)
        if spec.mitigation.name == "none"
    }
    rows = []
    for spec, record in zip(specs, records):
        if spec.mitigation.name == "none":
            continue
        result = record.result
        baseline = baselines[
            (spec.workload.name, spec.platform.channel_count, _policy_label(spec))
        ]
        row = {
            "workload": spec.workload.name,
            "mitigation": spec.mitigation.name,
            "nrh": spec.mitigation.nrh,
            "channels": spec.platform.channel_count,
            "normalized_IPC": round(result.ipc / baseline.ipc, 4) if baseline.ipc else 0.0,
            "preventive_refreshes": result.preventive_refreshes,
            "secure": result.security_ok,
        }
        if show_policy:
            row["policy"] = _policy_label(spec)
        rows.append(row)
    cache_note = ""
    if not args.no_cache:
        cache_note = f" (cache: {session.cache_hits} hits, {session.cache_misses} misses)"
    return format_table(
        rows,
        title=f"sweep over {len(specs)} points{cache_note}",
    )


def _command_audit(args: argparse.Namespace) -> str:
    from repro.security.audit import run_audit

    # "all" anywhere in the list expands to the full set (it is a superset
    # of any explicit names given alongside it).
    mitigations = None if "all" in args.mitigations else args.mitigations
    patterns = None if "all" in args.patterns else args.patterns
    session = _session(args)
    report = run_audit(
        mitigations=mitigations,
        patterns=patterns,
        nrhs=args.nrh,
        num_requests=args.requests,
        channels=args.channels,
        seed=args.seed,
        include_baseline=args.include_baseline,
        policies=_policies_from_args(args),
        session=session,
    )
    if args.out is not None:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    lines = [report.render()]
    if not args.no_cache:
        lines.append(
            f"(cache: {session.cache_hits} hits, {session.cache_misses} misses)"
        )
    lines.append("overall: " + ("secure" if report.is_secure else "INSECURE"))
    return "\n".join(lines)


def _campaign_spec_from_args(args: argparse.Namespace):
    from repro.experiment.spec import CampaignSpec

    if getattr(args, "scaling_study", False):
        from repro.security.audit import scaling_campaign

        return scaling_campaign()
    if args.campaign_file is not None:
        path = Path(args.campaign_file)
        try:
            return CampaignSpec.from_json(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SystemExit(f"campaign file not found: {path}")
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"invalid campaign spec {path}: {exc}")
    try:
        return CampaignSpec(
            name=args.name,
            workloads=tuple(args.workloads),
            mitigations=tuple(args.mitigations),
            nrhs=tuple(args.nrh),
            num_requests=args.requests,
            num_cores=args.cores,
            channels=tuple(args.channels),
            priority=args.priority,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"invalid campaign grid: {exc}")


def _command_campaign(args: argparse.Namespace) -> str:
    handlers = {
        "run": _command_campaign_run,
        "status": _command_campaign_status,
        "query": _command_campaign_query,
    }
    return handlers[args.campaign_command](args)


def _command_campaign_run(args: argparse.Namespace) -> str:
    from repro.campaign import CampaignRunner

    campaign = _campaign_spec_from_args(args)
    store = _store_from_args(args)
    runner = CampaignRunner(
        campaign,
        store=store,
        queue=args.backend,
        max_workers=args.workers,
        lease=args.lease,
        budget=args.budget,
    )
    status = runner.run()
    row = status.as_row()
    row["backend"] = args.backend
    row["store"] = str(store.root)
    verdict = "finished" if status.finished else "resumable (budget/kill)"
    out = format_table([row], title=f"campaign {campaign.name}: {verdict}")
    if campaign.audit:
        # Any audit-mode campaign (--scaling-study, or a --campaign-file
        # with "audit": true) reduces its store to a security report —
        # partial if the run was budgeted or killed.
        from repro.security.audit import scaling_report

        out += "\n\n" + scaling_report(store, campaign).render()
    return out


def _command_campaign_status(args: argparse.Namespace) -> str:
    from repro.campaign.runner import status_from_state

    store = _store_from_args(args)
    campaign_ids = store.list_campaigns()
    if args.campaign is not None:
        campaign_ids = [c for c in campaign_ids if c.startswith(args.campaign)]
        if not campaign_ids:
            raise SystemExit(f"no campaign matching {args.campaign!r} in {store.root}")
    rows = []
    for campaign_id in campaign_ids:
        state = store.load_campaign(campaign_id)
        if state is None:
            continue
        status = status_from_state(store, state)
        row = status.as_row()
        del row["pending"], row["claimed"], row["executed"]
        row["finished"] = status.finished
        rows.append(row)
    if not rows:
        return f"no campaigns checkpointed in {store.root}"
    return format_table(
        rows, title=f"campaigns in {store.root} ({len(store)} records)"
    )


def _command_campaign_query(args: argparse.Namespace) -> str:
    store = _store_from_args(args)
    if args.spec_hash is not None:
        record = store.get_record(args.spec_hash)
        if record is None:
            raise SystemExit(f"no record for spec hash {args.spec_hash}")
        return record.to_json()
    rows = store.query(
        workload=args.workload,
        mitigation=args.mitigation,
        nrh=args.nrh,
        limit=args.limit,
    )
    if not rows:
        return f"no matching records in {store.root}"
    for row in rows:
        row["spec_hash"] = row["spec_hash"][:12]
        row["ipc"] = round(row["ipc"], 4)
        campaign = row.pop("campaign")
        row["campaign"] = campaign[:12] if campaign else "-"
    return format_table(rows, title=f"{len(rows)} stored results ({store.root})")


def _command_serve(args: argparse.Namespace) -> str:
    from repro.campaign import make_server

    store = _store_from_args(args)
    server = make_server(store, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # Printed (and flushed) before serving so scripts can wait on readiness.
    print(f"serving {store.root} at http://{host}:{port} (Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return "stopped"


def _command_area(args: argparse.Namespace) -> str:
    rows = [
        comet_area_report(args.nrh).as_row(),
        graphene_area_report(args.nrh).as_row(),
        hydra_area_report(args.nrh).as_row(),
        prac_area_report(args.nrh).as_row(),
    ]
    return format_table(rows, title=f"storage and area at NRH={args.nrh} (Table 4 row)")


_COMMANDS = {
    "workloads": _command_workloads,
    "list": _command_list,
    "run": _command_run,
    "compare": _command_compare,
    "attack": _command_attack,
    "sweep": _command_sweep,
    "audit": _command_audit,
    "campaign": _command_campaign,
    "serve": _command_serve,
    "area": _command_area,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
