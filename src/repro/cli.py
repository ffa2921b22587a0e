"""Command-line entry point: regenerate any paper artefact.

Usage::

    python -m repro.cli tab1            # Table I latency rows
    python -m repro.cli tab2 tab3 tab4  # several at once
    python -m repro.cli asic
    python -m repro.cli fig7 --epochs 4 --train 800   # trains a model
    python -m repro.cli dse             # design-space exploration
    python -m repro.cli all --skip-training

    # resumable campaigns (parameter grids with atomic per-point records)
    python -m repro.cli campaign faults --out runs/faults
    python -m repro.cli campaign dse --out runs/dse --workers 4

    # robust async inference serving (micro-batching, load shedding,
    # circuit breaking, graceful SIGTERM drain)
    python -m repro.cli serve --port 8080 --timesteps 8 --p99-budget-ms 200

Training-backed artefacts (fig6-fig9) take minutes on the numpy
substrate; hardware tables are instant.  A ``campaign`` writes one JSON
record per grid point under ``--out`` and, re-invoked after a kill,
completes only the missing points (exit status 3 marks a run stopped
early by ``--max-points``).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from repro.eval import (
    accuracy_vs_timesteps_experiment,
    asic_projection_experiment,
    render_table,
    spike_rate_experiment,
    table1_experiment,
    table2_experiment,
    table3_experiment,
    table4_experiment,
)
from repro.eval.experiments import INPUT_FORMATS
from repro.pipeline.conversion import TimestepRangeError
from repro.snn.engines import ENGINES

# argparse `choices` stays in lockstep with the engine registry, so a
# bad --engine value dies at the parser with the valid choices spelled
# out instead of surfacing as a traceback from deep inside the engine
# factory.
ENGINE_CHOICES = tuple(sorted(set(ENGINES)))

HARDWARE_ARTEFACTS = ("tab1", "tab2", "tab3", "tab4", "asic", "dse")
TRAINING_ARTEFACTS = ("fig6", "fig7", "fig8", "fig9")
ALL_ARTEFACTS = TRAINING_ARTEFACTS + HARDWARE_ARTEFACTS


def _print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def _run_tab1(args) -> None:
    _print_header("Table I: layer-wise latency (ResNet-18 / VGG-11, PYNQ-Z2)")
    result = table1_experiment(timesteps=args.timesteps)
    for name, rows in result.items():
        print(f"\n{name}:")
        print(render_table(rows, ["label", "count", "output_size", "latency_ms"]))


def _run_tab2(args) -> None:
    _print_header("Table II: latency vs kernel size")
    print(render_table(table2_experiment(), ["layer", "output_size", "latency_ms", "kernel_cycles"]))


def _run_tab3(args) -> None:
    _print_header("Table III: FPGA resource utilisation")
    print(render_table(table3_experiment(), ["parameter", "utilized", "available", "percentage"]))


def _run_tab4(args) -> None:
    _print_header("Table IV: comparison with prior art")
    result = table4_experiment()
    print(
        render_table(
            result["rows"],
            ["paper", "platform", "pes", "clock_mhz", "gops", "gops_per_pe",
             "gops_per_watt", "dsp", "gops_per_dsp"],
        )
    )
    print(f"\nPE-efficiency gain:  {result['pe_efficiency_gain']:.2f}x")
    print(f"DSP-efficiency gain: {result['dsp_efficiency_gain']:.2f}x")


def _run_asic(args) -> None:
    _print_header("ASIC projection (TSMC 40 nm, 500 MHz)")
    report = asic_projection_experiment()
    print(
        f"{report.gops:.1f} GOPS, {report.area_mm2:.2f} mm^2, "
        f"{report.power_watts:.3f} W ({report.gops_per_watt:.1f} GOPS/W)"
    )


def _run_dse(args) -> None:
    from repro.hw.dse import DesignSpaceExplorer, SweepSpec, paper_design_point

    _print_header("Design-space exploration (PE array / BN lanes / clock)")
    explorer = DesignSpaceExplorer()
    points = explorer.sweep(SweepSpec())
    feasible = [p for p in points if p.fits]
    front = explorer.pareto_front(points)
    rows = [
        {
            "design": p.label,
            "gops": p.gops,
            "gops_per_watt": p.gops_per_watt,
            "gops_per_dsp": p.gops_per_dsp,
            "luts": p.luts,
            "brams": p.brams,
            "pareto": "*" if p in front else "",
        }
        for p in sorted(feasible, key=lambda p: -p.gops)[: args.top]
    ]
    print(render_table(rows, ["design", "gops", "gops_per_watt", "gops_per_dsp", "luts", "brams", "pareto"]))
    paper = paper_design_point()
    print(
        f"\npaper's design point: {paper.label} -> {paper.gops} GOPS, "
        f"{paper.gops_per_watt} GOPS/W (feasible: {paper.fits})"
    )
    print(f"{len(feasible)}/{len(points)} candidates fit the PYNQ-Z2.")


def _curve_and_rates(model_name: str, args):
    from repro.data import SyntheticCIFAR

    dataset = SyntheticCIFAR(
        num_train=args.train, num_test=args.test, noise=1.0,
        class_overlap=0.55, seed=args.seed,
    )
    curve = accuracy_vs_timesteps_experiment(
        model_name,
        dataset=dataset,
        width=args.width,
        max_timesteps=args.max_timesteps,
        ann_epochs=args.epochs,
        finetune_epochs=max(1, args.epochs - 2),
        seed=args.seed,
        engine=args.engine,
        timesteps=args.timesteps,
    )
    return dataset, curve


def _print_profile(curve, args) -> None:
    """With --profile: per-layer wall-clock/density table of the last run."""
    if not getattr(args, "profile", False):
        return
    snn = curve.result.snn if curve.result is not None else None
    stats = snn.last_run_stats if snn is not None else None
    if stats is None:
        return
    print("\nper-layer profile (last evaluation batch):")
    print(stats.profile_table())
    rule = getattr(snn.engine, "rule", None)
    if rule is not None:
        print(f"rule: {rule()}")


def _run_fig7(args) -> None:
    _print_header("Fig. 7: ResNet-18 accuracy vs timesteps")
    _, curve = _curve_and_rates("resnet18", args)
    _print_curve(curve, args.timesteps)
    _print_profile(curve, args)


def _run_fig9(args) -> None:
    _print_header("Fig. 9: VGG-11 accuracy vs timesteps")
    _, curve = _curve_and_rates("vgg11", args)
    _print_curve(curve, args.timesteps)
    _print_profile(curve, args)


def _run_fig6(args) -> None:
    _print_header("Fig. 6: ResNet-18 per-layer spike rates")
    dataset, curve = _curve_and_rates("resnet18", args)
    _print_spike_rates(curve, dataset, args)
    _print_profile(curve, args)


def _run_fig8(args) -> None:
    _print_header("Fig. 8: VGG-11 per-layer spike rates")
    dataset, curve = _curve_and_rates("vgg11", args)
    _print_spike_rates(curve, dataset, args)
    _print_profile(curve, args)


def _print_spike_rates(curve, dataset, args) -> None:
    stats = spike_rate_experiment(
        curve, dataset, timesteps=args.timesteps, input_format=args.input_format
    )
    if args.input_format == "events":
        print("input: rate-encoded COO spike stream (event-driven mode)")
    print(f"spike rates over T={stats.timesteps}, {stats.samples} samples")
    print(stats.layer_table())


def _print_curve(curve, timesteps: int) -> None:
    print(f"ANN accuracy:       {curve.ann_accuracy:.4f}")
    print(f"quantised accuracy: {curve.quant_accuracy:.4f}")
    print(f"SNN accuracy (T={timesteps}): {curve.per_step_accuracy[timesteps - 1]:.4f}")
    print("accuracy vs T: " + " ".join(f"{a:.3f}" for a in curve.per_step_accuracy))
    if curve.timesteps_to_match_quant is not None:
        print(f"matches the quantised ANN at T={curve.timesteps_to_match_quant}")


# ----------------------------------------------------------------------
# campaign subcommand: resumable parameter-grid runs
# ----------------------------------------------------------------------

CAMPAIGN_KINDS = ("faults", "dse")

#: Exit status when --max-points stopped the run before the grid was
#: complete — lets CI's kill-and-resume smoke distinguish "interrupted
#: as requested" from success (0) and real errors (!= 0, != 3).
EXIT_CAMPAIGN_INCOMPLETE = 3


def _parse_float_list(text: str) -> List[float]:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def _parse_int_list(text: str) -> List[int]:
    values = [int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return values


def _bounded(kind, low: float, strict: bool):
    """An argparse type: ``kind(text)`` that must be ``> low``
    (``strict``) or ``>= low``, so a bad knob is a usage error before
    any work starts."""

    def parse(text: str):
        value = kind(text)
        if value < low or (strict and value == low):
            relation = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {relation} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli campaign",
        description="Run a resumable parameter-grid campaign: one atomic "
        "JSON record per point under --out; re-invoking after a kill "
        "completes only the missing points.",
    )
    parser.add_argument("kind", choices=CAMPAIGN_KINDS,
                        help="faults: weight-memory bit-error sweep on a "
                        "trained VGG-11; dse: architecture design-space grid")
    parser.add_argument("--out", required=True, help="campaign directory")
    parser.add_argument("--name", default="",
                        help="campaign name (defaults to the kind)")
    parser.add_argument("--seed", type=int, default=0)
    # faults grid + model pipeline
    parser.add_argument("--rates", type=_parse_float_list,
                        default=[0.0, 1e-4, 1e-3, 1e-2],
                        help="comma-separated bit-error rates (faults)")
    parser.add_argument("--trials", type=int, default=2,
                        help="seeded trials per bit-error rate (faults)")
    parser.add_argument("--train", type=int, default=600)
    parser.add_argument("--test", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--timesteps", type=int, default=8)
    parser.add_argument("--width", type=float, default=0.125)
    # dse grid
    parser.add_argument("--pe", type=_parse_int_list, default=[4, 8, 16],
                        help="square PE-array sizes (dse)")
    parser.add_argument("--bn-lanes", type=_parse_int_list, default=[8, 16, 32],
                        dest="bn_lanes", help="BN-lane counts (dse)")
    parser.add_argument("--clock", type=_parse_float_list,
                        default=[50.0, 100.0, 150.0, 200.0],
                        help="clock frequencies in MHz (dse)")
    # execution / robustness knobs
    parser.add_argument("--max-points", type=int, default=None, dest="max_points",
                        help="stop after N missing points (kill simulation; "
                        f"exits {EXIT_CAMPAIGN_INCOMPLETE} if the grid is "
                        "left incomplete)")
    parser.add_argument("--retries", type=_bounded(int, 0, strict=False), default=1,
                        help="extra attempts per point per substrate")
    parser.add_argument("--point-timeout", type=_bounded(float, 0, strict=True),
                        default=None, dest="point_timeout",
                        help="per-point wall-clock deadline in seconds "
                        "(points then run forked, also at --workers 1; a "
                        "hung point is killed and fails the run)")
    parser.add_argument("--backoff", type=_bounded(float, 0, strict=False),
                        default=0.05,
                        help="base retry backoff in seconds")
    parser.add_argument("--workers", type=_bounded(int, 1, strict=False), default=1,
                        help="most points in flight: 1 runs serially, more "
                        "runs forked waves of at most this many points")
    return parser


def _campaign_faults(args):
    """Fault-sweep campaign: grid + point_fn over a trained, mapped net."""
    from repro.data import SyntheticCIFAR
    from repro.eval.campaign import CampaignSpec
    from repro.hw import map_network
    from repro.hw.accelerator import SpikingInferenceAccelerator
    from repro.hw.faults import fault_trial
    from repro.pipeline import TrainConfig, run_conversion_pipeline

    ds = SyntheticCIFAR(
        num_train=args.train, num_test=args.test, noise=1.0,
        class_overlap=0.55, seed=args.seed,
    )
    print("training + converting VGG-11 (shared across all points)...")
    result = run_conversion_pipeline(
        "vgg11",
        ds,
        width=args.width,
        levels=2,
        timesteps=args.timesteps,
        max_timesteps=args.timesteps,
        ann_config=TrainConfig(epochs=args.epochs),
        finetune_config=TrainConfig(epochs=max(1, args.epochs - 1), lr=5e-4),
        seed=args.seed,
    )
    mapped = map_network(result.snn.model, calibration_input=ds.train_x)
    baseline = SpikingInferenceAccelerator(mapped).accuracy(
        ds.test_x, ds.test_y, timesteps=args.timesteps
    )
    spec = CampaignSpec(
        name=args.name or "faults",
        grid={
            "bit_error_rate": list(args.rates),
            "trial": list(range(args.trials)),
        },
        seed=args.seed,
        metadata={
            "model": "vgg11",
            "timesteps": args.timesteps,
            "train": args.train,
            "test": args.test,
            "epochs": args.epochs,
            "width": args.width,
        },
    )

    def point_fn(params, seed):
        report = fault_trial(
            mapped,
            ds.test_x,
            ds.test_y,
            bit_error_rate=params["bit_error_rate"],
            seed=seed,
            timesteps=args.timesteps,
            baseline_accuracy=baseline,
        )
        return report.to_payload()

    columns = ["bit_error_rate", "trial", "flipped_bits", "faulty_accuracy",
               "accuracy_drop"]
    return spec, point_fn, columns


def _campaign_dse(args):
    """DSE campaign: one architecture candidate per grid point."""
    import dataclasses

    from repro.eval.campaign import CampaignSpec
    from repro.hw.config import PYNQ_Z2
    from repro.hw.dse import DesignSpaceExplorer

    explorer = DesignSpaceExplorer()
    spec = CampaignSpec(
        name=args.name or "dse",
        grid={
            "pe": list(args.pe),
            "bn_lanes": list(args.bn_lanes),
            "clock_mhz": list(args.clock),
        },
        seed=args.seed,
        metadata={"base": PYNQ_Z2.name, "square_arrays_only": True},
    )

    def point_fn(params, seed):
        arch = dataclasses.replace(
            PYNQ_Z2,
            pe_rows=int(params["pe"]),
            pe_cols=int(params["pe"]),
            num_bn_multipliers=int(params["bn_lanes"]),
            clock_hz=float(params["clock_mhz"]) * 1e6,
            name=f"SIA-{params['pe']}x{params['pe']}",
        )
        point = explorer.evaluate(arch)
        return {
            "design": point.label,
            "gops": point.gops,
            "gops_per_watt": point.gops_per_watt,
            "gops_per_dsp": point.gops_per_dsp,
            "power_watts": point.power_watts,
            "luts": point.luts,
            "ffs": point.ffs,
            "dsps": point.dsps,
            "brams": point.brams,
            "fits": point.fits,
            "violations": list(point.violations),
        }

    columns = ["design", "gops", "gops_per_watt", "gops_per_dsp", "fits"]
    return spec, point_fn, columns


def campaign_main(argv: Optional[List[str]] = None) -> int:
    from repro.eval.campaign import CampaignRunner
    from repro.eval.supervisor import ShardPolicy

    args = build_campaign_parser().parse_args(argv)
    builders = {"faults": _campaign_faults, "dse": _campaign_dse}
    spec, point_fn, columns = builders[args.kind](args)
    runner = CampaignRunner(
        spec,
        point_fn,
        out_dir=args.out,
        policy=ShardPolicy(
            timeout=args.point_timeout,
            retries=args.retries,
            backoff=args.backoff,
        ),
        workers=args.workers,
    )
    result = runner.run(max_points=args.max_points)

    _print_header(f"campaign {spec.name}: {len(result.records)}/"
                  f"{len(spec.points())} points complete")
    rows = []
    for point in spec.points():
        record = result.records.get(point.id)
        if record is None:
            continue
        row = dict(point.params)
        row.update(record["result"])
        rows.append({c: row.get(c, "") for c in columns})
    if rows:
        print(render_table(rows, columns))
    if result.failures:
        print(f"\n{len(result.failures)} point failure(s) were retried/recovered; "
              "see warnings above")
    if not result.complete:
        print(f"\nINCOMPLETE: {len(result.missing)} point(s) missing; re-run the "
              "same command to resume")
        return EXIT_CAMPAIGN_INCOMPLETE
    print(f"\nrecords: {runner.points_dir}")
    return 0


# ----------------------------------------------------------------------
# serve subcommand: robust async inference serving
# ----------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve SNN inference over HTTP/JSON with deadline-aware "
        "micro-batching, load shedding, a circuit breaker over the engine "
        "worker, and graceful drain on SIGTERM.  Routes: GET /healthz, "
        "GET /readyz, GET /metrics, POST /v1/infer.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="0 picks an ephemeral port (printed at startup)")
    parser.add_argument("--model", default="demo",
                        help="'demo' (tiny calibrated conv net) for now; "
                        "registry models need trained weights")
    parser.add_argument("--input-shape", type=_parse_int_list,
                        default=[2, 8, 8], dest="input_shape",
                        help="single-sample input shape C,H,W for the demo model")
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", choices=ENGINE_CHOICES, default="auto")
    parser.add_argument("--timesteps", type=int, default=8,
                        help="full T; also the degradation ceiling")
    parser.add_argument("--min-timesteps", type=int, default=1,
                        dest="min_timesteps",
                        help="degradation floor for the timestep ceiling")
    parser.add_argument("--default-deadline-ms", type=float, default=1000.0,
                        dest="default_deadline_ms")
    parser.add_argument("--p99-budget-ms", type=float, default=None,
                        dest="p99_budget_ms",
                        help="degrade T when observed p99 exceeds this "
                        "(unset disables degradation)")
    parser.add_argument("--max-batch", type=int, default=8, dest="max_batch",
                        help="micro-batch coalescing ceiling")
    parser.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                        help="queue depth beyond which requests shed (429)")
    parser.add_argument("--hang-timeout", type=float, default=30.0,
                        dest="hang_timeout",
                        help="seconds before a wedged engine run is abandoned "
                        "and the worker slot rebuilt")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        dest="breaker_threshold",
                        help="consecutive dispatch failures that trip the "
                        "circuit breaker")
    parser.add_argument("--breaker-reset", type=float, default=2.0,
                        dest="breaker_reset",
                        help="seconds the breaker stays open before probing")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        dest="drain_timeout",
                        help="SIGTERM drain deadline in seconds")
    parser.add_argument("--auth-token", default=None, dest="auth_token",
                        help="require 'Authorization: Bearer <token>'")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    import asyncio
    import logging

    from repro.serve import InferenceServer, ServeConfig, build_demo_network

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    args = build_serve_parser().parse_args(argv)
    if args.model != "demo":
        print(
            f"unsupported --model {args.model!r}: registry models are "
            "untrained; only 'demo' is servable today",
            file=sys.stderr,
        )
        return 2
    model, input_shape = build_demo_network(
        input_shape=args.input_shape, classes=args.classes, seed=args.seed
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        timesteps=args.timesteps,
        min_timesteps=args.min_timesteps,
        default_deadline_ms=args.default_deadline_ms,
        p99_budget_ms=args.p99_budget_ms,
        engine=args.engine,
        max_batch_size=args.max_batch,
        max_queue_depth=args.max_queue,
        hang_timeout_seconds=args.hang_timeout,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
        drain_timeout_seconds=args.drain_timeout,
        auth_token=args.auth_token,
    )
    server = InferenceServer(model, input_shape, config)
    asyncio.run(server.serve_forever())
    return 0


_RUNNERS = {
    "tab1": _run_tab1,
    "tab2": _run_tab2,
    "tab3": _run_tab3,
    "tab4": _run_tab4,
    "asic": _run_asic,
    "dse": _run_dse,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the SOCC 2024 SIA paper's tables and figures.",
    )
    parser.add_argument(
        "artefacts",
        nargs="+",
        choices=list(ALL_ARTEFACTS) + ["all"],
        help="which artefacts to regenerate",
    )
    parser.add_argument("--timesteps", type=int, default=8,
                        help="evaluated T (tab1 and the training figures)")
    parser.add_argument("--max-timesteps", type=int, default=16, dest="max_timesteps",
                        help="where the accuracy-vs-T curve ends (>= --timesteps)")
    parser.add_argument("--width", type=float, default=0.125,
                        help="model width multiplier for training artefacts")
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--train", type=int, default=1500, help="training samples")
    parser.add_argument("--test", type=int, default=400, help="test samples")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="dense",
        help="SNN simulation backend for training artefacts: full dense "
        "recompute per timestep, time-batched layer-sequential "
        "execution, or auto (event-batched: a density rule picks GEMM "
        "or COO row-subset per layer on every call; fastest); 'event' "
        "is a deprecated name for auto",
    )
    parser.add_argument(
        "--input-format",
        choices=INPUT_FORMATS,
        default="frames",
        dest="input_format",
        help="input presentation for the spike-rate artefacts (fig6/fig8): "
        "direct-coded analog frames (the PS frame-conversion mode) or "
        "a rate-encoded COO spike stream (the event-driven input mode)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after a training artefact, print the per-layer profile "
        "(wall clock, density, ops, chosen backend) of the last "
        "evaluation batch (RunStats.profile_table())",
    )
    parser.add_argument("--top", type=int, default=12, help="rows to show for dse")
    parser.add_argument(
        "--skip-training",
        action="store_true",
        help="with 'all': only hardware artefacts",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Python hides a DeprecationWarning raised outside ``__main__``; show
    # the package's (a retired --engine name) once each.
    warnings.filterwarnings("once", category=DeprecationWarning, module=r"repro\.")
    # `campaign` has its own flag set (grids, resume knobs) that would
    # collide with the artefact parser's; dispatch before parsing.
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    artefacts: List[str] = []
    for item in args.artefacts:
        if item == "all":
            artefacts.extend(
                HARDWARE_ARTEFACTS if args.skip_training else ALL_ARTEFACTS
            )
        else:
            artefacts.append(item)
    seen = set()
    for artefact in artefacts:
        if artefact in seen:
            continue
        seen.add(artefact)
        try:
            _RUNNERS[artefact](args)
        except TimestepRangeError as error:
            parser.error(f"--max-timesteps is too small: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
