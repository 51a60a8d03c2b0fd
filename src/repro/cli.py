"""Command-line interface: the paper's "one-click" flow.

::

    python -m repro generate --graph net.prototxt --device Z-7045 \
        --fraction 0.3 --out rtl/
    python -m repro simulate --model mobilenet_tiny --device Z-7020 \
        --fraction 0.2
    python -m repro verify --graph net.json --format onnx
    python -m repro serve --models mnist,hopfield --tenants 3
    python -m repro experiment fig8

Every graph-consuming command takes the same pair of source flags,
resolved by one shared helper: ``--model <zoo name>`` picks a benchmark
from :mod:`repro.zoo.models`; ``--graph <file>`` loads any registered
frontend format (descriptive script, ONNX-style JSON), with
``--format`` overriding auto-detection.

``generate`` runs :func:`repro.api.build` and writes the Verilog
project; ``simulate`` additionally runs a forward propagation with
random weights and inputs; ``serve`` runs synthetic tenants through the
serving gateway and prints its KPI report; ``experiment`` regenerates
one of the paper's tables/figures by id.  Performance is measured by
the repository benchmark (``python -m bench``), not by this CLI.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import api
from repro.devices.device import DEVICES
from repro.errors import DeepBurningError
from repro.frontend import AUTO, load, registered_formats

EXPERIMENTS = (
    "table1", "table2", "fig8", "fig9", "fig10", "table3", "claims",
)


def add_graph_source(sub: argparse.ArgumentParser) -> None:
    """Register the unified graph-source flags on a subcommand."""
    sub.add_argument("--model", default="",
                     help="zoo benchmark network (see repro.zoo.models)")
    sub.add_argument("--graph", default="",
                     help="path to a network description in any "
                          "registered frontend format")
    sub.add_argument("--format", default=AUTO,
                     choices=(AUTO, *registered_formats()),
                     help="frontend format of --graph "
                          "(default: auto-detect)")


def resolve_graph(args: argparse.Namespace, command: str):
    """One resolver for every command: --model wins a zoo net, --graph
    loads a file via the frontend."""
    path = getattr(args, "graph", "")
    model = getattr(args, "model", "")
    if path and model:
        raise DeepBurningError(
            f"{command} takes --model or --graph, not both")
    if path:
        return load(path, format=getattr(args, "format", AUTO))
    if model:
        from repro.zoo.models import benchmark_graph
        return benchmark_graph(model)
    raise DeepBurningError(f"{command} needs --model or --graph")


def _prepare(args: argparse.Namespace,
             command: str) -> api.BuildArtifacts:
    return api.build(
        resolve_graph(args, command),
        device=args.device,
        fraction=args.fraction,
        seed=args.seed,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    artifacts = _prepare(args, "generate")
    print(artifacts.design.summary())
    print(artifacts.program.summary())
    if args.out:
        from repro.rtl.emit import write_project
        from repro.rtl.images import write_images
        from repro.rtl.testbench import emit_testbench
        import os
        paths = write_project(artifacts.design, args.out)
        paths += write_images(artifacts.program, args.out)
        tb_path = os.path.join(args.out, "accelerator_top_tb.v")
        with open(tb_path, "w", encoding="utf-8") as handle:
            handle.write(emit_testbench(artifacts.design))
        paths.append(tb_path)
        print(f"wrote {len(paths)} files to {args.out} "
              "(RTL + testbench + memory images)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    artifacts = _prepare(args, "simulate")
    design = artifacts.design
    print(design.summary())
    result = api.simulate(artifacts, functional=not args.timing_only)
    print(result.summary())
    if args.report:
        print(result.layer_report(
            peak_macs_per_cycle=design.datapath.multipliers))
    if not args.timing_only:
        values = np.ravel(result.output)[:8]
        print(f"output (first values): {np.round(values, 4)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis import verify_artifacts

    graph = resolve_graph(args, "verify")
    artifacts = api.build(
        graph,
        device=args.device,
        fraction=args.fraction,
        seed=args.seed,
    )
    passes = None
    if args.passes:
        passes = [name for name in args.passes.split(",") if name.strip()]
    suppress = [item for item in args.suppress.split(",") if item.strip()]
    report = verify_artifacts(artifacts, passes=passes, suppress=suppress)
    if args.json:
        print(report.json_text())
    else:
        print(report.render(max_findings=args.max_findings))
    return 0 if report.ok else 1


def cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import (
        DesignCache,
        SweepSpec,
        default_cache_dir,
        parse_qformat,
        run_sweep,
    )

    def float_list(text: str) -> tuple[float, ...]:
        return tuple(float(item) for item in text.split(",") if item.strip())

    def int_list(text: str) -> tuple[int, ...]:
        return tuple(int(item) for item in text.split(",") if item.strip())

    def format_list(text: str) -> tuple[tuple[int, int], ...]:
        return tuple(parse_qformat(item) for item in text.split(",")
                     if item.strip())

    graph = resolve_graph(args, "dse")
    spec = SweepSpec(
        device=args.device,
        fractions=float_list(args.fractions),
        data_formats=format_list(args.data_formats),
        weight_formats=format_list(args.weight_formats),
        max_lanes=int_list(args.max_lanes) or (0,),
        max_simd=int_list(args.max_simd) or (0,),
        fold_capacity_scales=float_list(args.fold_scales),
        functional=args.functional,
        static_filter=args.static_filter,
        seed=args.seed,
    )
    if not spec.points():
        raise DeepBurningError("sweep has no points; check --fractions")
    cache = None
    if not args.no_cache:
        cache = DesignCache(args.cache_dir or default_cache_dir())
    sweep = run_sweep(graph, spec, jobs=args.jobs, cache=cache,
                      estimator=args.estimator)
    print(sweep.render(
        title=f"design space of '{graph.name}' on {args.device} "
              f"({len(sweep.results)} points, jobs={args.jobs})"
    ))
    print(f"swept {len(sweep.results)} points in {sweep.elapsed_s:.2f}s")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro import api
    from repro.estimate import cross_validate, validate_network

    if args.all_zoo:
        report = cross_validate(device=args.device, fraction=args.fraction,
                                tolerance=args.max_error)
        print(report.render())
        return 0 if report.ok else 1
    graph = resolve_graph(args, "estimate")
    artifacts = api.build(graph, device=args.device, fraction=args.fraction,
                          weights=None)
    estimated = api.estimate(artifacts)
    print(f"estimated: {estimated.summary()}")
    if args.validate:
        row = validate_network(graph, device=args.device,
                               fraction=args.fraction)
        print(f"simulator: {row.simulated_cycles} cycles "
              f"(rel error {row.rel_error:.4%}, counters "
              f"{'match' if row.counters_match else 'DIFFER'})")
        return 0 if row.rel_error <= args.max_error \
            and row.counters_match else 1
    return 0


def _model_list(text: str) -> list[str]:
    models = [part.strip() for part in text.split(",") if part.strip()]
    if not models:
        raise DeepBurningError(
            f"--models wants a comma-separated list, got '{text}'")
    return models


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.gateway import run_serve

    entry, kpis = run_serve(
        _model_list(args.models),
        tenants=args.tenants,
        rate_per_s=args.rate,
        requests=args.requests,
        workers=args.workers,
        max_batch_size=args.batch_size,
        max_queue_depth=args.queue_depth,
        batch_timeout_s=args.batch_timeout,
        deadline_s=args.deadline,
        device=args.device,
        fraction=args.fraction,
        functional=not args.timing_only,
        seed=args.seed,
    )
    print(kpis.render())
    stats = entry.get("registry", {})
    print(f"registry: {stats.get('resident', 0)} resident models, "
          f"{stats.get('hits', 0)} hits / {stats.get('misses', 0)} builds")
    if entry["dropped_without_response"]:
        print(f"FAIL: {entry['dropped_without_response']} requests got "
              "no response")
        return 1
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name not in EXPERIMENTS:
        raise DeepBurningError(
            f"unknown experiment '{name}'; options: {EXPERIMENTS}"
        )
    from repro.experiments import (
        claims,
        fig8_performance,
        fig9_energy,
        fig10_accuracy,
        table1_decomposition,
        table2_benchmarks,
        table3_resources,
    )
    modules = {
        "table1": table1_decomposition,
        "table2": table2_benchmarks,
        "fig8": fig8_performance,
        "fig9": fig9_energy,
        "fig10": fig10_accuracy,
        "table3": table3_resources,
        "claims": claims,
    }
    modules[name].main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepBurning: generate FPGA learning accelerators "
                    "from Caffe-style network descriptions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        add_graph_source(sub)
        sub.add_argument("--device", default="Z-7045",
                         choices=sorted(DEVICES),
                         help="target FPGA device")
        sub.add_argument("--fraction", type=float, default=0.3,
                         help="resource budget as a fraction of the device")
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for random weights")

    generate = commands.add_parser(
        "generate", help="generate the accelerator and emit Verilog")
    add_common(generate)
    generate.add_argument("--out", default="",
                          help="directory for the Verilog project")
    generate.set_defaults(handler=cmd_generate)

    simulate = commands.add_parser(
        "simulate", help="generate and simulate one forward propagation")
    add_common(simulate)
    simulate.add_argument("--timing-only", action="store_true",
                          help="skip the bit-level functional execution")
    simulate.add_argument("--report", action="store_true",
                          help="print the per-layer cycle/utilization table")
    simulate.set_defaults(handler=cmd_simulate)

    verify = commands.add_parser(
        "verify",
        help="statically verify a compiled design: ranges, memory "
             "safety, control program, IR lint")
    add_graph_source(verify)
    verify.add_argument("--device", default="Z-7045",
                        choices=sorted(DEVICES),
                        help="target FPGA device")
    verify.add_argument("--fraction", type=float, default=0.3,
                        help="resource budget as a fraction of the device")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for random weights")
    verify.add_argument("--passes", default="",
                        help="comma-separated subset of analysis passes "
                             "(lint,ranges,memory,control)")
    verify.add_argument("--suppress", default="",
                        help="comma-separated rule ids to suppress "
                             "(e.g. mem.read-overfetch)")
    verify.add_argument("--max-findings", type=int, default=None,
                        help="truncate the text report after N findings")
    verify.add_argument("--json", action="store_true",
                        help="emit the full machine-readable report")
    verify.set_defaults(handler=cmd_verify)

    dse = commands.add_parser(
        "dse", help="explore the design space: sweep, cache, Pareto frontier")
    add_graph_source(dse)
    dse.add_argument("--device", default="Z-7045", choices=sorted(DEVICES),
                     help="target FPGA device")
    dse.add_argument("--fractions",
                     default="0.05,0.08,0.1,0.15,0.2,0.3,0.4,0.8",
                     help="comma-separated budget fractions to sweep")
    dse.add_argument("--data-formats", default="7.8",
                     help="comma-separated Qm.n feature formats")
    dse.add_argument("--weight-formats", default="3.12",
                     help="comma-separated Qm.n weight formats")
    dse.add_argument("--max-lanes", default="0",
                     help="comma-separated lane caps (0 = budget-driven)")
    dse.add_argument("--max-simd", default="0",
                     help="comma-separated SIMD caps (0 = budget-driven)")
    dse.add_argument("--fold-scales", default="1.0",
                     help="comma-separated fold-capacity scales in (0, 1]")
    dse.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = serial)")
    dse.add_argument("--cache-dir", default="",
                     help="design cache directory "
                          "(default: $REPRO_CACHE_DIR or ~/.cache/repro/dse)")
    dse.add_argument("--no-cache", action="store_true",
                     help="evaluate every point from scratch")
    dse.add_argument("--functional", action="store_true",
                     help="also measure output fidelity vs the float "
                          "reference (slower)")
    dse.add_argument("--static-filter", action="store_true",
                     help="run the static verifier on each built design "
                          "and reject points with errors before any "
                          "estimator reports on them")
    dse.add_argument("--estimator", default="exact",
                     choices=("exact", "analytic", "hybrid"),
                     help="row label: exact, analytic, or hybrid "
                          "(analytic sweep + exact replay of the Pareto "
                          "frontier and knee neighborhood); all three "
                          "report the timing of each compiled program, "
                          "so the same timing, energy and resources")
    dse.add_argument("--seed", type=int, default=0,
                     help="seed for functional evaluation")
    dse.set_defaults(handler=cmd_dse)

    estimate = commands.add_parser(
        "estimate",
        help="closed-form latency/energy report of the built design")
    add_graph_source(estimate)
    estimate.add_argument("--device", default="Z-7045",
                          choices=sorted(DEVICES), help="target FPGA device")
    estimate.add_argument("--fraction", type=float, default=0.3,
                          help="resource budget as a fraction of the device")
    estimate.add_argument("--validate", action="store_true",
                          help="also run the simulator and report "
                               "the relative cycle error (non-zero exit "
                               "above --max-error)")
    estimate.add_argument("--all-zoo", action="store_true",
                          help="cross-validate estimator vs simulator on "
                               "every zoo network (non-zero exit when any "
                               "net exceeds --max-error)")
    estimate.add_argument("--max-error", type=float, default=0.05,
                          help="tolerated max relative cycle error")
    estimate.set_defaults(handler=cmd_estimate)

    serve = commands.add_parser(
        "serve",
        help="run a synthetic multi-tenant serving session through the "
             "gateway and print the KPI report")
    serve.add_argument("--models", default="mnist",
                       help="comma-separated zoo networks; tenants are "
                            "assigned round-robin and share compiled "
                            "models through the registry")
    serve.add_argument("--requests", type=int, default=32,
                       help="requests per tenant in the synthetic stream")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker simulator sessions per model host")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="micro-batch flush size per model host")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="bounded request-queue capacity per host")
    serve.add_argument("--batch-timeout", type=float, default=0.002,
                       help="micro-batch flush deadline in seconds")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds (enables "
                            "deadline-aware shedding)")
    serve.add_argument("--device", default="Z-7045",
                       choices=sorted(DEVICES),
                       help="target FPGA device")
    serve.add_argument("--fraction", type=float, default=0.3,
                       help="resource budget as a fraction of the device")
    serve.add_argument("--timing-only", action="store_true",
                       help="skip the bit-level functional execution")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for weights and the request streams")
    serve.add_argument("--tenants", type=int, default=3,
                       help="concurrent synthetic tenants")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-tenant request rate in req/s "
                            "(0 = closed-loop, as fast as served)")
    serve.set_defaults(handler=cmd_serve)

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper table/figure")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.set_defaults(handler=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DeepBurningError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
