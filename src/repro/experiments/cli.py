"""Command-line entry point (``phost-repro``).

Examples::

    phost-repro --list
    phost-repro --figure fig3 --scale tiny
    phost-repro --figure fig3 --figure fig4
    phost-repro --all --scale bench
    phost-repro --run phost websearch --load 0.7 --flows 500
    phost-repro --run phost imc10 --json
    phost-repro --sweep load phost imc10 --values 0.5,0.6,0.7,0.8
    phost-repro --replay trace.csv --protocol pfabric
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from repro.dataplane import available_dataplanes, get_dataplane
from repro.experiments.defaults import SCALES, make_spec
from repro.experiments.figures import ALL_FIGURES, run_figure, write_experiments_md
from repro.experiments.report import FigureResult, render
from repro.experiments.runner import _resolve_workload, run_experiment, run_flow_list
from repro.experiments.spec import ExperimentResult, ExperimentSpec
from repro.protocols.registry import available_protocols, get_protocol

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phost-repro",
        description=(
            "Regenerate the evaluation of 'pHost: Distributed Near-Optimal "
            "Datacenter Transport Over Commodity Network Fabric' (CoNEXT 2015)."
        ),
    )
    mode = parser.add_argument_group("modes (pick one)")
    mode.add_argument(
        "--figure",
        action="append",
        default=[],
        metavar="FIG",
        help="figure to regenerate (repeatable); see --list",
    )
    mode.add_argument("--all", action="store_true", help="run every figure")
    mode.add_argument("--list", action="store_true", help="list available figures")
    mode.add_argument(
        "--list-protocols",
        action="store_true",
        help="list registered transport protocols (repro.protocols registry)",
    )
    mode.add_argument(
        "--list-dataplanes",
        action="store_true",
        help="list registered dataplane programs (repro.dataplane registry)",
    )
    mode.add_argument(
        "--run",
        nargs=2,
        metavar=("PROTOCOL", "WORKLOAD"),
        help="run a single ad-hoc experiment",
    )
    mode.add_argument(
        "--sweep",
        nargs=3,
        metavar=("FIELD", "PROTOCOL", "WORKLOAD"),
        help="sweep one spec field (e.g. load) over --values",
    )
    mode.add_argument(
        "--replay",
        metavar="TRACE",
        help=(
            "simulate a flow trace file — CSV, or JSONL when the suffix "
            "is .jsonl/.ndjson (see repro.workloads.trace_io)"
        ),
    )
    mode.add_argument(
        "--report",
        metavar="FILE.md",
        help="run the full evaluation and write a paper-vs-measured report",
    )
    mode.add_argument(
        "--batch",
        metavar="SPECS.json",
        help="run a JSON batch of experiments (see repro.experiments.specfile)",
    )
    mode.add_argument(
        "--size-profile",
        nargs=2,
        metavar=("PROTOCOL", "WORKLOAD"),
        help="per-size slowdown profile (log-binned) for one run",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --batch (default 1)",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=sorted(SCALES),
        help="run-size preset (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--load", type=float, default=0.6, help="network load for --run")
    parser.add_argument("--flows", type=int, default=None, help="flow count for --run")
    parser.add_argument(
        "--protocol", default="phost", help="protocol for --replay (default phost)"
    )
    parser.add_argument(
        "--dataplane",
        default=None,
        metavar="PROGRAM",
        help=(
            "override the dataplane program for --run/--replay (a "
            "repro.dataplane registry name; see --list-dataplanes); "
            "forces both switch and NIC queues onto that program"
        ),
    )
    parser.add_argument(
        "--values",
        default="0.5,0.6,0.7,0.8",
        help="comma-separated values for --sweep (default: loads 0.5-0.8)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of tables"
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        default=None,
        help=(
            "persist results into a content-addressed run ledger at DIR "
            "(repro.obs.store): --run/--replay/--batch store each run "
            "keyed by (spec_hash, run_digest); --figure stores the "
            "acceptance table.  Render with scripts/report.py"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream live progress for --batch: per-experiment start/"
            "done lines plus heartbeat lines (ev/s, sim time, ETA) to "
            "stderr"
        ),
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "attach the run-time invariant auditors (repro.validate) to "
            "--run/--replay and report per-invariant pass/fail; exits 1 "
            "on any violation"
        ),
    )
    parser.add_argument(
        "--audit-json",
        metavar="FILE.json",
        default=None,
        help="write the audit report as JSON to this path (implies --audit)",
    )
    obs = parser.add_argument_group("observability (repro.obs; for --run/--replay)")
    obs.add_argument(
        "--obs",
        action="store_true",
        help="attach the telemetry spine: instrument registry + periodic sampler",
    )
    obs.add_argument(
        "--obs-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sampling period in simulated seconds (default 100e-6; implies --obs)",
    )
    obs.add_argument(
        "--obs-out",
        metavar="DIR",
        default=None,
        help=(
            "write series.jsonl / profile.txt / summary.txt to this "
            "directory (implies --obs)"
        ),
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile event-loop dispatch (per-event-type counts and "
            "wall-clock self-time; implies --obs)"
        ),
    )
    obs.add_argument(
        "--chrome-trace",
        metavar="FILE.json",
        default=None,
        help=(
            "export a Chrome trace_event file (open in Perfetto or "
            "chrome://tracing; implies --obs)"
        ),
    )
    faults = parser.add_argument_group("fault injection (repro.faults; for --run/--replay)")
    faults.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "inject faults per a comma-separated plan, e.g. "
            "'loss=0.01', 'ge=0.05:0.3', 'corrupt=0.001', "
            "'down=tor0.up.c1@0.001:0.002', 'pause=3@0.001:0.002', "
            "'blackout=0:0.0005', 'drop=rts:1' (see docs/FAULTS.md)"
        ),
    )
    faults.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help=(
            "seed for the fault layer's own RNG streams, independent of "
            "--seed so faults can be re-drawn against identical traffic"
        ),
    )
    wl = parser.add_argument_group(
        "adversarial workloads (repro.workloads; for --run, see docs/WORKLOADS.md)"
    )
    wl.add_argument(
        "--trace",
        metavar="TRACE",
        default=None,
        help=(
            "replay this flow-trace file (CSV/JSONL) instead of generating "
            "a workload; unlike --replay, composes with --faults/--audit "
            "and the full spec machinery"
        ),
    )
    wl.add_argument(
        "--skew",
        metavar="SPEC",
        default=None,
        help=(
            "hot-rack traffic skew, e.g. 'racks=0+1,src=0.7,dst=0.7,"
            "affinity=0.3,exclude=5+6'; implies the skewed traffic matrix"
        ),
    )
    wl.add_argument(
        "--ramp",
        metavar="SPEC",
        default=None,
        help=(
            "piecewise load ramp on the arrival process: "
            "'burst@AT:DURATION:FACTOR', 'diurnal@PERIOD:LOW:HIGH', or "
            "explicit 'T:MULT,T:MULT,...' segments"
        ),
    )
    wl.add_argument(
        "--coflows",
        metavar="MIN:MAX[:STAGGER]",
        default=None,
        help=(
            "generate job-structured coflows (uniform width in "
            "[MIN, MAX], optional intra-job stagger seconds) and report "
            "job-completion metrics"
        ),
    )
    return parser


def _wants_audit(args: argparse.Namespace) -> bool:
    return args.audit or args.audit_json is not None


def _audit_instruments(args: argparse.Namespace) -> tuple:
    if not _wants_audit(args):
        return ()
    from repro.validate import standard_auditors

    return standard_auditors()


def _fault_plan(args: argparse.Namespace):
    """Build a FaultPlan from --faults/--fault-seed (None if unused)."""
    if args.faults is None:
        return None
    from repro.faults import parse_fault_plan

    return parse_fault_plan(args.faults, seed=args.fault_seed)


def _workload_variant(args: argparse.Namespace) -> dict:
    """Spec overrides from --trace/--skew/--ramp/--coflows (may be {})."""
    changes: dict = {}
    if args.trace is not None:
        changes["trace"] = args.trace
    if args.skew is not None:
        from repro.workloads.skew import parse_skew

        changes["skew"] = parse_skew(args.skew)
        changes["traffic_matrix"] = "skewed"
    if args.ramp is not None:
        from repro.workloads.ramp import parse_load_profile

        changes["load_profile"] = parse_load_profile(args.ramp)
    if args.coflows is not None:
        from repro.workloads.coflows import parse_coflows

        changes["coflows"] = parse_coflows(args.coflows)
    return changes


def _check_names(spec: ExperimentSpec) -> ExperimentSpec:
    """Resolve the spec's protocol, workload and dataplane names before
    the run starts, so a typo raises ValueError here (a usage error)
    rather than from inside the simulation."""
    get_protocol(spec.protocol)
    if spec.dataplane is not None:
        get_dataplane(spec.dataplane)
    if spec.trace is None:
        _resolve_workload(spec)
    else:
        from repro.workloads.trace_io import check_trace

        check_trace(_trace_file(spec.trace), n_hosts=spec.topology.n_hosts)
    return spec


def _trace_file(path: str) -> str:
    """``path``, if it names a file.  A missing or malformed trace
    raises ValueError (``TraceFormatError`` is one), a usage error
    caught before any run."""
    if not os.path.isfile(path):
        raise ValueError(f"no such file: {path}")
    return path


def _usage_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _wants_obs(args: argparse.Namespace) -> bool:
    return (
        args.obs
        or args.obs_period is not None
        or args.obs_out is not None
        or args.profile
        or args.chrome_trace is not None
    )


def _obs_config(args: argparse.Namespace):
    """Build an ObservabilityConfig from the CLI flags (None if unused)."""
    if not _wants_obs(args):
        return None
    from repro.obs import ObservabilityConfig

    kwargs = dict(
        out_dir=args.obs_out,
        profile=args.profile,
        chrome_trace=args.chrome_trace,
    )
    if args.obs_period is not None:
        kwargs["sample_period"] = args.obs_period
    return ObservabilityConfig(**kwargs)


def _store_result(result: ExperimentResult, args: argparse.Namespace) -> None:
    """Persist one result into the --ledger store (no-op without it)."""
    if args.ledger is None:
        return
    from repro.obs.store import RunLedger

    entry = RunLedger(args.ledger).put(result)
    print(f"ledger: stored {entry.key} under {args.ledger}", file=sys.stderr)


def _store_figure(figure: FigureResult, args: argparse.Namespace) -> None:
    """Persist one figure table into the --ledger store (no-op without it)."""
    if args.ledger is None:
        return
    from repro.obs.store import RunLedger

    path = RunLedger(args.ledger).put_figure(figure)
    print(f"ledger: stored figure table {path}", file=sys.stderr)


def _handle_telemetry(result: ExperimentResult, args: argparse.Namespace) -> None:
    report = result.telemetry
    if report is None or args.json:
        return
    print(report.summary())
    if report.profile_text is not None:
        print(report.profile_text)


def _handle_audit(report, args: argparse.Namespace) -> int:
    """Emit/export the audit report; exit status 1 on violations."""
    if report is None:
        return 0
    if args.audit_json is not None:
        from repro.metrics.export import audit_report_to_json

        audit_report_to_json(report, args.audit_json)
    if not args.json:
        print(report.summary())
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------

def _result_dict(result: ExperimentResult) -> dict:
    payload = {
        "protocol": result.spec.protocol,
        "workload": result.spec.workload,
        "load": result.spec.load,
        "seed": result.spec.seed,
        "n_flows": result.n_flows,
        "n_completed": result.n_completed,
        "mean_slowdown": result.mean_slowdown(),
        "p99_slowdown": result.tail_slowdown(99),
        "nfct": result.nfct(),
        "goodput_gbps_per_host": result.goodput_gbps_per_host,
        "drops": result.drops.by_hop,
        "drop_rate": result.drops.drop_rate,
        "retransmissions": result.data_pkts_retransmitted,
        "control_bytes": result.control_bytes_sent,
        "duration_s": result.duration,
        "wall_seconds": result.wall_seconds,
        "events_processed": result.events_processed,
    }
    if result.fault_drops:
        payload["fault_drops"] = result.fault_drops
    jobs = result.job_records()
    if jobs:
        payload["jobs"] = {
            "n_jobs": len(jobs),
            "completion_rate": result.job_completion_rate(),
            "mean_jct": result.mean_jct(),
        }
    if result.audit is not None:
        payload["audit"] = result.audit.to_dict()
    if result.telemetry is not None:
        report = result.telemetry
        obs: dict = {
            "n_instruments": report.n_instruments,
            "samples": report.samples_taken,
            "written": list(report.written),
        }
        if report.profile is not None:
            obs["profile"] = report.profile
        if report.chrome_trace_path is not None:
            obs["chrome_trace"] = report.chrome_trace_path
        payload["obs"] = obs
    from repro.validate import run_digest

    payload["run_digest"] = run_digest(result)
    return payload


def _emit_result(result: ExperimentResult, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_result_dict(result), indent=2, sort_keys=True))
        return
    print(result.summary())
    print(
        f"  goodput/host: {result.goodput_gbps_per_host:.3f} Gbps, "
        f"99%ile slowdown: {result.tail_slowdown():.3f}, "
        f"drops by hop: {result.drops.by_hop}"
    )
    if result.fault_drops:
        print(f"  injected fault drops: {result.fault_drops}")
    jobs = result.job_records()
    if jobs:
        print(
            f"  jobs: {sum(1 for j in jobs if j.completed)}/{len(jobs)} "
            f"complete, mean JCT: {result.mean_jct() * 1e3:.3f} ms"
        )


def _figure_dict(result: FigureResult) -> dict:
    return {
        "figure": result.figure,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def _list_protocols(args: argparse.Namespace) -> int:
    """Registry-sourced protocol listing (never a hardcoded choice list)."""
    rows = []
    for name in available_protocols():
        spec = get_protocol(name)
        rows.append(
            {
                "protocol": name,
                "switch_dataplane": spec.switch_dataplane,
                "host_dataplane": spec.host_dataplane,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(
            f"{row['protocol']:10s} switch={row['switch_dataplane']} "
            f"host={row['host_dataplane']}"
        )
    return 0


def _list_dataplanes(args: argparse.Namespace) -> int:
    """Registry-sourced dataplane-program listing."""
    rows = []
    for name in available_dataplanes():
        program = get_dataplane(name)
        doc = (type(program).__doc__ or "").strip().splitlines()
        rows.append(
            {
                "dataplane": name,
                "class": type(program).__name__,
                "summary": doc[0] if doc else "",
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['dataplane']:10s} {row['class']:18s} {row['summary']}")
    return 0


def _run_single(args: argparse.Namespace) -> int:
    protocol, workload = args.run
    overrides = dict(load=args.load, seed=args.seed)
    if args.flows is not None:
        overrides["n_flows"] = args.flows
    try:
        spec = _check_names(make_spec(protocol, workload, args.scale, **overrides).variant(
            dataplane=args.dataplane,
            instruments=_audit_instruments(args),
            observability=_obs_config(args),
            faults=_fault_plan(args),
            **_workload_variant(args),
        ))
    except ValueError as exc:
        return _usage_error(exc)
    result = run_experiment(spec)
    _emit_result(result, args.json)
    _handle_telemetry(result, args)
    _store_result(result, args)
    return _handle_audit(result.audit, args)


def _sweep_value(raw: str) -> object:
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def _run_sweep(args: argparse.Namespace) -> int:
    field_name, protocol, workload = args.sweep
    if field_name not in {f.name for f in dataclasses.fields(ExperimentSpec)}:
        return _usage_error(f"ExperimentSpec has no field {field_name!r}")
    values = [_sweep_value(v.strip()) for v in args.values.split(",") if v.strip()]
    table = FigureResult(
        figure=f"sweep:{field_name}",
        title=f"{protocol}/{workload}: sweep over {field_name}",
        columns=[field_name, "mean_slowdown", "p99_slowdown", "drop_rate"],
    )
    base = make_spec(protocol, workload, args.scale, seed=args.seed)
    try:
        specs = [_check_names(base.variant(**{field_name: v})) for v in values]
    except ValueError as exc:
        return _usage_error(exc)
    for value, spec in zip(values, specs):
        result = run_experiment(spec)
        table.add_row(
            **{
                field_name: value,
                "mean_slowdown": result.mean_slowdown(),
                "p99_slowdown": result.tail_slowdown(99),
                "drop_rate": result.drops.drop_rate,
            }
        )
    if args.json:
        print(json.dumps(_figure_dict(table), indent=2))
    else:
        print(render(table))
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    from repro.workloads.trace_io import load_flows

    preset = SCALES[args.scale]
    try:
        spec = _check_names(ExperimentSpec(
            protocol=args.protocol,
            workload="fixed:1",  # ignored by run_flow_list
            n_flows=1,
            topology=preset.topology,
            dataplane=args.dataplane,
            instruments=_audit_instruments(args),
            observability=_obs_config(args),
            faults=_fault_plan(args),
            seed=args.seed,
        ))
        flows = load_flows(_trace_file(args.replay), n_hosts=preset.topology.n_hosts)
    except ValueError as exc:
        return _usage_error(exc)
    result = run_flow_list(spec, flows)
    _emit_result(result, args.json)
    _handle_telemetry(result, args)
    _store_result(result, args)
    return _handle_audit(result.audit, args)


def _run_batch(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import run_experiments_parallel
    from repro.experiments.specfile import SpecFileError, load_spec_file

    try:
        named = load_spec_file(args.batch)
    except SpecFileError as exc:
        return _usage_error(exc)
    for name, spec in named:
        try:
            _check_names(spec)
        except ValueError as exc:
            return _usage_error(f"{name}: {exc}")
    results = run_experiments_parallel(
        [spec for _, spec in named], args.parallel, progress=args.progress or None
    )
    for _, result in zip(named, results):
        _store_result(result, args)
    if args.json:
        payload = {
            name: _result_dict(result)
            for (name, _), result in zip(named, results)
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    table = FigureResult(
        figure="batch",
        title=f"batch: {args.batch}",
        columns=["name", "protocol", "workload", "load",
                 "mean_slowdown", "p99_slowdown", "drop_rate"],
    )
    for (name, spec), result in zip(named, results):
        table.add_row(
            name=name,
            protocol=spec.protocol,
            workload=spec.workload,
            load=spec.load,
            mean_slowdown=result.mean_slowdown(),
            p99_slowdown=result.tail_slowdown(99),
            drop_rate=result.drops.drop_rate,
        )
    print(render(table))
    return 0


def _run_size_profile(args: argparse.Namespace) -> int:
    from repro.metrics.cdf import slowdown_by_size, sparkline

    protocol, workload = args.size_profile
    overrides = dict(load=args.load, seed=args.seed)
    if args.flows is not None:
        overrides["n_flows"] = args.flows
    try:
        spec = _check_names(make_spec(protocol, workload, args.scale, **overrides))
    except ValueError as exc:
        return _usage_error(exc)
    result = run_experiment(spec)
    rows = slowdown_by_size(result.records)
    table = FigureResult(
        figure="size-profile",
        title=f"{protocol}/{workload} @ load {spec.load:g}: slowdown by flow size",
        columns=["size_upto_bytes", "mean_slowdown", "flows"],
        rows=[
            {"size_upto_bytes": int(hi), "mean_slowdown": mean, "flows": count}
            for hi, mean, count in rows
        ],
    )
    table.notes.append("slowdown trend: " + sparkline([m for _, m, _ in rows]))
    if args.json:
        print(json.dumps(_figure_dict(table), indent=2))
    else:
        print(render(table))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    unknown = [name for name in args.figure if name not in ALL_FIGURES]
    if unknown:
        return _usage_error(
            f"unknown figure {unknown[0]!r}; available: {', '.join(ALL_FIGURES)}"
        )
    if args.list:
        for name, figure in ALL_FIGURES.items():
            print(f"{name:7s} {figure.caption(args.scale)}")
        return 0
    if args.list_protocols:
        return _list_protocols(args)
    if args.list_dataplanes:
        return _list_dataplanes(args)
    if args.run:
        return _run_single(args)
    if args.sweep:
        return _run_sweep(args)
    if args.replay:
        return _run_replay(args)
    if args.report:
        out = write_experiments_md(
            args.report, scale=args.scale, seed=args.seed,
            figures=list(args.figure) or None,
        )
        print(f"wrote {out}")
        return 0
    if args.batch:
        return _run_batch(args)
    if args.size_profile:
        return _run_size_profile(args)
    names = list(args.figure)
    if args.all:
        names = list(ALL_FIGURES)
    if not names:
        build_parser().print_help()
        return 2
    for name in names:
        t0 = time.perf_counter()
        result = run_figure(name, scale=args.scale, seed=args.seed)
        _store_figure(result, args)
        if args.json:
            print(json.dumps(_figure_dict(result), indent=2))
        else:
            print(render(result))
            print(f"({name} regenerated in {time.perf_counter() - t0:.1f}s)\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
