"""Command-line interface: the FPVM toolchain as a user would drive it.

::

    python -m repro run program.fpc --arith mpfr:200
    python -m repro run program.fpc --native
    python -m repro spy program.fpc
    python -m repro analyze program.fpc --json
    python -m repro analyze --registry --validate
    python -m repro workload lorenz --arith mpfr:200 --trace t.ndjson
    python -m repro trace summarize t.ndjson
    python -m repro list

Arithmetic specs: ``vanilla`` | ``mpfr:BITS`` | ``adaptive[:INIT:MAX]``
| ``posit:NBITS[:ES]`` | ``interval``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arith import SPEC_HELP, ArithSpecError, from_spec, normalize_spec
from repro.compiler import compile_source
from repro.fpvm.runtime import FPVMConfig
from repro.harness.experiment import slowdown
from repro.session import Session
from repro.workloads import WORKLOADS, get_workload


def parse_arith(spec: str):
    """Parse an arithmetic-system spec string (CLI shell: exits on error).

    Library code should call :func:`repro.arith.from_spec`, which
    raises :class:`~repro.errors.ArithSpecError` instead of exiting.
    """
    try:
        return from_spec(spec)
    except ArithSpecError as exc:
        raise SystemExit(str(exc)) from None


def _load_builder(args):
    instrument = bool(getattr(args, "instrument", False))
    if getattr(args, "workload", None):
        spec = get_workload(args.workload)
        size = args.size
        return lambda: spec.build(size), args.workload
    path = Path(args.program)
    source = path.read_text()
    return (lambda: compile_source(source, instrument_fp=instrument),
            path.name)


def _print_run(res, label: str, stats: bool) -> None:
    sys.stdout.write(res.stdout)
    if stats:
        print(f"--- {label} ---", file=sys.stderr)
        print(f"  exit code          : {res.exit_code}", file=sys.stderr)
        print(f"  instructions       : {res.instr_count}", file=sys.stderr)
        print(f"  modeled cycles     : {res.cycles:.0f}", file=sys.stderr)
        print(f"  FP traps           : {res.fp_traps}", file=sys.stderr)
        print(f"  correctness traps  : {res.correctness_traps}",
              file=sys.stderr)
        if res.fpvm is not None:
            st = res.fpvm.stats
            print(f"  shadow values made : "
                  f"{res.fpvm.emulator.boxes_created}", file=sys.stderr)
            print(f"  GC passes          : {len(res.fpvm.gc.passes)}",
                  file=sys.stderr)
            print(f"  libm interposed    : {st.libm_interposed_calls}",
                  file=sys.stderr)
            print(f"  decode cache hits  : {st.decode_hit_rate:.1%}",
                  file=sys.stderr)
            print(f"  bind cache hits    : {st.bind_hit_rate:.1%}",
                  file=sys.stderr)
            if st.jit_sites_compiled:
                print(f"  jit sites compiled : {st.jit_sites_compiled} "
                      f"({st.jit_fused_kernels} fused kernels)",
                      file=sys.stderr)
                print(f"  jit hits           : {st.jit_hits} "
                      f"(+{st.jit_fast_path} hw fast path), "
                      f"hit rate {st.patched_site_hit_rate:.1%}",
                      file=sys.stderr)
                print(f"  boxes elided       : {st.boxes_elided}",
                      file=sys.stderr)
            print(f"  arithmetic system  : {res.fpvm.arith.describe()}",
                  file=sys.stderr)


def _load_lane_specs(args):
    """Resolve the shared ``--batch N`` / ``--lanes FILE`` flags into a
    list of lane-spec dicts, or ``None`` when neither was given."""
    import json

    if getattr(args, "lanes", None):
        doc = json.loads(Path(args.lanes).read_text())
        if not isinstance(doc, list) or not doc:
            raise SystemExit(f"{args.lanes}: expected a non-empty JSON "
                             "list of lane-spec objects")
        allowed = {"params", "stdin", "label",
                   "max_instructions", "max_cycles"}
        for i, lane in enumerate(doc):
            if not isinstance(lane, dict):
                raise SystemExit(f"{args.lanes}: lane {i} is not an object")
            bad = set(lane) - allowed
            if bad:
                raise SystemExit(f"{args.lanes}: lane {i} has unknown "
                                 f"fields {sorted(bad)} "
                                 f"(allowed: {sorted(allowed)})")
            if "stdin" in lane and isinstance(lane["stdin"], str):
                lane["stdin"] = lane["stdin"].encode()
        return doc
    if getattr(args, "batch", None):
        if args.batch < 1:
            raise SystemExit("--batch must be >= 1")
        return [{} for _ in range(args.batch)]
    return None


def _print_batch(batch, label: str, stats: bool) -> None:
    for i, lane in enumerate(batch):
        name = lane.spec.label or f"lane{i}"
        sys.stdout.write(f"--- {name} ---\n")
        sys.stdout.write(lane.stdout)
        if lane.error is not None:
            print(f"  [{name}] {lane.error_type}: {lane.error}",
                  file=sys.stderr)
    if stats:
        print(f"--- {label} batch ---", file=sys.stderr)
        print(f"  lanes              : {len(batch)}", file=sys.stderr)
        print(f"  vector dispatches  : {batch.dispatches}", file=sys.stderr)
        print(f"  spill events       : {batch.spill_events}",
              file=sys.stderr)
        print(f"  spill rate         : {batch.spill_rate:.1%}",
              file=sys.stderr)
        print(f"  exit codes         : "
              f"{[lane.exit_code for lane in batch]}", file=sys.stderr)


def _make_sink(args):
    path = getattr(args, "trace", None)
    if not path:
        return None
    from repro.trace import NDJSONSink

    return NDJSONSink(path)


def cmd_run(args) -> int:
    builder, label = _load_builder(args)
    sink = _make_sink(args)
    lanes = _load_lane_specs(args)
    if args.native:
        session = Session(builder, None, trace=sink, label=label)
    else:
        arith = parse_arith(args.arith)
        mode = args.mode or ("trap-and-patch" if args.patch_mode
                             else "trap-and-emulate")
        config = FPVMConfig(mode=mode, trace=sink,
                            jit_threshold=args.jit,
                            gc_mode=args.gc_mode)
        session = Session(builder, arith, config=config,
                          patch=not args.no_patch,
                          delivery_scenario=args.scenario, label=label)
    if lanes is not None:
        with session as s:
            batch = s.run_batch(lanes)
        _print_batch(batch, label, args.stats)
        code = 0 if batch.ok else 1
    else:
        with session as s:
            res = s.run()
        if args.native:
            _print_run(res, f"{label} (native)", args.stats)
        else:
            if args.slowdown:
                with Session(builder, None, label=label) as ns:
                    nat = ns.run()
                print(f"  modeled slowdown   : {slowdown(nat, res):.0f}x",
                      file=sys.stderr)
            _print_run(res, f"{label} (FPVM+{arith.describe()})",
                       args.stats)
        code = res.exit_code
    if sink is not None:
        print(f"trace written to {args.trace} ({sink.emitted} events)",
              file=sys.stderr)
    return code


def cmd_workload(args) -> int:
    args.workload = args.name
    return cmd_run(args)


def cmd_trace_summarize(args) -> int:
    from repro.trace import summarize_file

    print(summarize_file(args.file, top=args.top))
    return 0


def cmd_spy(args) -> int:
    from repro.fpvm.fpspy import spy_on

    builder, label = _load_builder(args)
    report = spy_on(builder)
    print(report.summary())
    print(f"top event sites in {label}:")
    for rip, count in report.hottest_sites(args.top):
        print(f"  {rip:#010x}  {count:8d} events")
    for mn, count in report.by_mnemonic.most_common(args.top):
        print(f"  {mn:12s} {count:8d}")
    return 0


def _print_analysis_text(binary, report) -> None:
    print(report.summary())
    prov = report.provenance
    if report.sinks or report.bitwise_sites or report.movq_sites:
        print("patch sites:")
        for addr in report.sinks:
            print(f"  sink     {binary.text_map[addr]}")
            stores = prov.get(addr, [])
            if stores:
                srcs = ", ".join(f"{a:#x}" for a in stores)
                print(f"           intersects FP stores: {srcs}")
        for addr in report.bitwise_sites:
            print(f"  bitwise  {binary.text_map[addr]}")
        for addr in report.movq_sites:
            print(f"  movq     {binary.text_map[addr]}")
    if report.pruned_sinks:
        print("refinement-pruned sinks (no trap installed):")
        for addr in report.pruned_sinks:
            print(f"  pruned   {binary.text_map[addr]}")
            reason = report.prune_reasons.get(addr)
            if reason:
                print(f"           {reason}")
    for addr, name in report.extern_demote_sites:
        print(f"  call-demote @{addr:#x} -> {name}")


def cmd_analyze(args) -> int:
    import json

    from repro.analysis import analyze
    from repro.analysis.oracle import validate, validate_registry

    if args.registry:
        results = validate_registry(args.arith, size=args.size)
        if args.json:
            print(json.dumps([r.to_dict() for r in results], indent=2))
        else:
            for r in results:
                print(r.summary())
                for v in r.violations:
                    print(f"    VIOLATION: {v}")
        return 0 if all(r.ok for r in results) else 1

    builder, label = _load_builder(args)
    binary = builder()
    report = analyze(binary)
    validation = None
    if args.validate:
        target = args.workload if getattr(args, "workload", None) else builder
        validation = validate(target, args.arith, size=args.size)
    if args.json:
        doc = report.to_dict()
        if validation is not None:
            doc["validation"] = validation.to_dict()
        print(json.dumps(doc, indent=2))
    else:
        _print_analysis_text(binary, report)
        if validation is not None:
            print(validation.summary())
            for v in validation.violations:
                print(f"    VIOLATION: {v}")
    if args.disassemble:
        print(binary.disassemble())
    return 0 if validation is None or validation.ok else 1


def cmd_chaos(args) -> int:
    from repro.faults import chaos_cells, run_campaign, survival_table
    from repro.faults.crashreport import write_crash_report

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    for w in workloads:
        if w not in WORKLOADS:
            raise SystemExit(f"unknown workload {w!r}; see `repro list`")
    ariths = []
    for raw in (a.strip() for a in args.ariths.split(",")):
        if not raw:
            continue
        try:
            ariths.append(normalize_spec(raw))
        except ArithSpecError as exc:
            raise SystemExit(str(exc)) from None
    stages = None
    if args.stages:
        stages = tuple(s.strip() for s in args.stages.split(",")
                       if s.strip())
    cells = chaos_cells(
        workloads, ariths,
        seed=args.seed,
        **({"stages": stages} if stages else {}),
        size=args.size,
        storm_threshold=args.storm_threshold,
        max_instructions=args.max_instructions,
    )
    print(f"chaos campaign: {len(cells)} cells "
          f"({len(workloads)} workloads x {len(ariths)} arithmetics), "
          f"seed {args.seed}", file=sys.stderr)
    lanes = _load_lane_specs(args)
    if lanes is not None:
        # determinism probe: run the fault-free control as N SoA lanes
        # and demand bit-identical results before trusting the table
        from repro.session import LaneSpec

        for w in workloads:
            for arith in ariths:
                with Session(w, arith, size=args.size) as probe:
                    batch = probe.run_batch(
                        [LaneSpec(**lane) for lane in lanes])
                first = batch[0]
                same = all(lane.stdout == first.stdout
                           and lane.exit_code == first.exit_code
                           and lane.cycles == first.cycles
                           for lane in batch)
                spec = ":".join(str(x) for x in arith)
                state = "identical" if same else "DIVERGED"
                print(f"control determinism [{w} {spec}]: "
                      f"{len(batch)} lanes {state} "
                      f"(spill rate {batch.spill_rate:.0%})",
                      file=sys.stderr)
                if not same:
                    raise SystemExit(
                        f"control lanes diverged for {w} {spec}; "
                        "campaign table would not be reproducible")
    results = run_campaign(cells, jobs=args.jobs,
                           timeout_s=args.timeout,
                           retries=args.retries)
    print(survival_table(results))
    crashed = [r for r in results if r.error is not None]
    if args.crash_reports and crashed:
        outdir = Path(args.crash_reports)
        outdir.mkdir(parents=True, exist_ok=True)
        for res in crashed:
            arith = "-".join(str(x) for x in (res.cell.arith or ("native",)))
            name = f"{res.cell.workload}_{arith}_{res.cell.label}.ndjson"
            write_crash_report(outdir / name, res.crash_records)
        print(f"{len(crashed)} crash reports written to {outdir}",
              file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    """Run benchmarks/run_benchmarks.py (or the regression check)."""
    import subprocess

    root = Path(__file__).resolve().parents[2]
    script = root / "benchmarks" / ("check_regression.py" if args.check
                                    else "run_benchmarks.py")
    if not script.exists():
        raise SystemExit(f"benchmark suite not found at {script} "
                         "(run from a source checkout)")
    cmd = [sys.executable, str(script)]
    if args.check:
        cmd += ["--threshold", str(args.threshold)]
    else:
        if args.seed_baseline is not None:
            cmd += ["--seed-baseline", str(args.seed_baseline)]
        if getattr(args, "lanes", None):
            raise SystemExit("bench: use --batch N to size the batched "
                             "sweep; --lanes files apply to run/chaos")
        if getattr(args, "batch", None):
            cmd += ["--batch-lanes", str(args.batch)]
    return subprocess.run(cmd, cwd=root).returncode


def cmd_list(args) -> int:
    print(f"{'workload':14s} {'paper R815 slowdown':>20s}  description")
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        slow = (f"{spec.paper_slowdown_r815:>19.0f}x"
                if spec.paper_slowdown_r815 is not None else f"{'-':>20s}")
        print(f"{name:14s} {slow}  {spec.description}")
    return 0


def cmd_sanitize(args) -> int:
    """NSan-mode numerical sanitizer: dual-path divergence checking
    with static interval-range exemptions.

    Exit code 1 means the sanitizer flagged at least one site (a bug
    report, like a sanitizer should); 2 means the static exemptions
    were dynamically unsound (a repro bug, never acceptable).
    """
    import json

    from repro.analysis.ranges import (autotune_precision,
                                       validate_registry,
                                       validate_sanitize_exemptions)
    from repro.fpvm.sanitize import SanitizeConfig

    if args.registry:
        names = args.only.split(",") if args.only else None
        results = validate_registry(size=args.size,
                                    threshold=args.threshold,
                                    precision=args.precision,
                                    names=names)
        if args.json:
            json.dump([v.to_dict() for v in results], sys.stdout,
                      indent=2)
            sys.stdout.write("\n")
        else:
            for v in results:
                print(v.summary())
        return 2 if any(not v.ok for v in results) else 0

    builder, label = _load_builder(args)

    if args.autotune:
        a = autotune_precision(builder, threshold=args.threshold)
        a.label = label
        if args.json:
            json.dump(a.to_dict(), sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(a.summary())
        return 0

    scfg = SanitizeConfig(threshold=args.threshold,
                          precision=args.precision,
                          exempt=not args.no_exempt,
                          aggressive=args.exempt_aggressive)
    sess = Session(builder, ("sanitize", args.precision),
                   config=FPVMConfig(sanitize=scfg), label=label)
    res = sess.run()
    san = sess.fpvm.sanitizer
    stats = sess.fpvm.stats

    validation = None
    if args.validate:
        validation = validate_sanitize_exemptions(
            builder, threshold=args.threshold, precision=args.precision)

    if args.json:
        doc = {
            "label": label,
            "guest_exit_code": res.exit_code,
            "threshold": args.threshold,
            "precision": args.precision,
            "checks": stats.sanitize_checks,
            "flags": stats.sanitize_flags,
            "exempt_execs": stats.sanitize_exempt_execs,
            "sites": [s.to_dict() for s in san.divergence_table(args.top)],
            "ranges": (sess.range_report.to_dict()
                       if sess.range_report is not None else None),
            "validation": (validation.to_dict()
                           if validation is not None else None),
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(res.stdout)
        err = sys.stderr
        print(f"--- sanitize {label} "
              f"[mpfr:{args.precision} shadow, threshold "
              f"{args.threshold:g}] ---", file=err)
        print(f"  dual-path checks   : {stats.sanitize_checks}", file=err)
        print(f"  divergence flags   : {stats.sanitize_flags}", file=err)
        if sess.range_report is not None:
            rr = sess.range_report
            print(f"  static proofs      : {len(rr.proven)}/"
                  f"{len(rr.checkable)} sites divergence-free "
                  f"({100 * rr.prove_rate:.1f}%), {len(rr.exact)} "
                  f"bit-exact", file=err)
            if not args.no_exempt:
                mode = ("aggressive" if args.exempt_aggressive
                        else "bit-exact")
                print(f"  exempt executions  : "
                      f"{stats.sanitize_exempt_execs} ({mode} exemption)",
                      file=err)
        rows = san.divergence_table(args.top)
        flagged = [s for s in rows if s.flags]
        if flagged:
            print("  flagged sites (worst first):", file=err)
            print(f"    {'addr':>10s} {'mnemonic':10s} {'flags':>7s} "
                  f"{'max rel':>10s} {'max ulps':>9s}  example "
                  f"(ieee vs shadow)", file=err)
            for s in flagged:
                print(f"    {s.addr:#10x} {s.mnemonic:10s} "
                      f"{s.flags:7d} {s.max_rel:10.3g} "
                      f"{s.max_ulps:9d}  {s.example_ieee:.17g} vs "
                      f"{s.example_shadow:.17g}", file=err)
        else:
            print("  no divergence above threshold", file=err)
        if validation is not None:
            print(f"  exemption gate     : {validation.summary()}",
                  file=err)

    if validation is not None and not validation.ok:
        return 2
    return 1 if stats.sanitize_flags else 0


def cmd_serve(args) -> int:
    from repro.serve.daemon import ServeConfig, run_daemon

    run_daemon(ServeConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        queue_limit=args.queue_limit,
        shed_watermark=args.shed_watermark,
        job_timeout_s=args.job_timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        cache_entries=args.cache_entries,
        selftest=not args.no_selftest,
        crash_log=args.crash_log,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="FPVM: run binaries under alternative arithmetic",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # one shared parent so run / workload / chaos / bench expose the
    # same batching surface with identical help text
    batch_parent = argparse.ArgumentParser(add_help=False)
    bg = batch_parent.add_mutually_exclusive_group()
    bg.add_argument("--batch", type=int, default=None, metavar="N",
                    help="execute N struct-of-arrays lanes in lockstep "
                         "(run: N identical lanes; chaos: N-lane "
                         "control determinism probe; bench: lane count "
                         "for the batched sweep)")
    bg.add_argument("--lanes", default=None, metavar="FILE",
                    help="JSON list of lane specs (params/stdin/label/"
                         "max_instructions/max_cycles); implies batched "
                         "execution")

    def add_target(sp, workload_ok=True):
        if workload_ok:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("program", nargs="?", help="fpc source file")
            g.add_argument("--workload", choices=sorted(WORKLOADS),
                           help="built-in benchmark instead of a file")
            sp.add_argument("--size", default="test",
                            choices=("test", "bench", "S"))
        else:
            sp.add_argument("program", help="fpc source file")

    def add_run_options(sp):
        sp.add_argument("--arith", default="vanilla", help=SPEC_HELP)
        sp.add_argument("--native", action="store_true",
                        help="run without FPVM")
        sp.add_argument("--no-patch", action="store_true",
                        help="skip static analysis/patching (unsound!)")
        sp.add_argument("--patch-mode", action="store_true",
                        help="use trap-and-patch instead of trap-and-emulate")
        sp.add_argument("--mode", default=None,
                        choices=("trap-and-emulate", "trap-and-patch",
                                 "static"),
                        help="execution approach (overrides --patch-mode)")
        sp.add_argument("--instrument", action="store_true",
                        help="compile with inline FP checks "
                             "(the compiler-based approach; use with "
                             "--mode static)")
        sp.add_argument("--scenario", default="user",
                        choices=("user", "kernel", "hrt", "pipeline"),
                        help="trap delivery deployment scenario (paper §6)")
        sp.add_argument("--stats", action="store_true",
                        help="print run statistics to stderr")
        sp.add_argument("--slowdown", action="store_true",
                        help="also run natively and report the slowdown")
        sp.add_argument("--trace", default=None, metavar="FILE",
                        help="record an NDJSON event trace to FILE "
                             "(inspect with `trace summarize FILE`)")
        sp.add_argument("--jit", type=int, default=0, metavar="N",
                        help="compile a trap site to a specialized "
                             "closure after N traps (0 disables; "
                             "trap-and-emulate mode only)")
        sp.add_argument("--gc-mode", default="full",
                        choices=("full", "incremental"),
                        help="GC scan strategy: full rescans all "
                             "writable memory each epoch; incremental "
                             "scans only dirtied pages")

    run_p = sub.add_parser("run", help="execute under FPVM (or natively)",
                           parents=[batch_parent])
    add_target(run_p)
    add_run_options(run_p)
    run_p.set_defaults(fn=cmd_run)

    wl_p = sub.add_parser("workload",
                          help="run a built-in benchmark under FPVM",
                          parents=[batch_parent])
    wl_p.add_argument("name", choices=sorted(WORKLOADS))
    wl_p.add_argument("--size", default="bench",
                      choices=("test", "bench", "S"))
    add_run_options(wl_p)
    wl_p.set_defaults(fn=cmd_workload, program=None)

    tr_p = sub.add_parser("trace", help="work with recorded trace files")
    tr_sub = tr_p.add_subparsers(dest="trace_command", required=True)
    sum_p = tr_sub.add_parser("summarize",
                              help="per-site hot spots, flag histogram, "
                                   "coverage report")
    sum_p.add_argument("file", help="NDJSON trace file")
    sum_p.add_argument("--top", type=int, default=10,
                       help="rows in the hot-spot table")
    sum_p.set_defaults(fn=cmd_trace_summarize)

    spy_p = sub.add_parser("spy", help="FPSpy: record FP events only")
    add_target(spy_p)
    spy_p.add_argument("--top", type=int, default=8)
    spy_p.set_defaults(fn=cmd_spy)

    an_p = sub.add_parser("analyze", help="static analysis report")
    an_g = an_p.add_mutually_exclusive_group(required=True)
    an_g.add_argument("program", nargs="?", help="fpc source file")
    an_g.add_argument("--workload", choices=sorted(WORKLOADS),
                      help="built-in benchmark instead of a file")
    an_g.add_argument("--registry", action="store_true",
                      help="oracle cross-check over every built-in "
                           "workload (implies --validate)")
    an_p.add_argument("--size", default="test",
                      choices=("test", "bench", "S"))
    an_p.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    an_p.add_argument("--validate", action="store_true",
                      help="run the dynamic soundness oracle: an "
                           "instrumented unpatched run cross-checks "
                           "every observed box consumption against "
                           "the static patch set")
    an_p.add_argument("--arith", default="mpfr:64",
                      help="arithmetic for the oracle run "
                           f"(boxing one recommended; {SPEC_HELP})")
    an_p.add_argument("--disassemble", action="store_true")
    an_p.set_defaults(fn=cmd_analyze)

    ls_p = sub.add_parser("list", help="list built-in workloads")
    ls_p.set_defaults(fn=cmd_list)

    sa_p = sub.add_parser(
        "sanitize",
        help="NSan-mode numerical sanitizer: every FP op runs "
             "dual-path (IEEE + high-precision shadow); sites whose "
             "relative divergence exceeds the threshold are flagged "
             "with per-site provenance; an interval-range static pass "
             "exempts sites proven divergence-free")
    sa_g = sa_p.add_mutually_exclusive_group(required=True)
    sa_g.add_argument("program", nargs="?", help="fpc source file")
    sa_g.add_argument("--workload", choices=sorted(WORKLOADS),
                      help="built-in benchmark instead of a file")
    sa_g.add_argument("--registry", action="store_true",
                      help="exemption soundness gate over every "
                           "built-in workload: no statically proven "
                           "site may dynamically diverge")
    sa_p.add_argument("--size", default="test",
                      choices=("test", "bench", "S"))
    sa_p.add_argument("--threshold", type=float, default=1e-6,
                      help="relative-divergence flag threshold")
    sa_p.add_argument("--precision", type=int, default=200,
                      help="shadow precision in bits")
    sa_p.add_argument("--no-exempt", action="store_true",
                      help="dual-path check every site, ignoring the "
                           "interval-range pass")
    sa_p.add_argument("--exempt-aggressive", action="store_true",
                      help="exempt every proven-divergence-free site, "
                           "not just the bit-exact ones (faster; may "
                           "mask bugs a downstream cancellation would "
                           "have revealed)")
    sa_p.add_argument("--validate", action="store_true",
                      help="also run the exemption soundness gate "
                           "(full dual-path run; proven sites must "
                           "not flag)")
    sa_p.add_argument("--autotune", action="store_true",
                      help="walk the shadow precision down until the "
                           "verdict changes; report the minimal safe "
                           "precision")
    sa_p.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    sa_p.add_argument("--top", type=int, default=10,
                      help="rows in the divergence table")
    sa_p.add_argument("--only", default=None, metavar="NAMES",
                      help="with --registry: comma-separated workload "
                           "subset to gate instead of the full registry")
    sa_p.set_defaults(fn=cmd_sanitize)

    be_p = sub.add_parser(
        "bench",
        help="run the micro benchmark suite and append a "
             "schema-versioned record to BENCH_interp.json",
        parents=[batch_parent])
    be_p.add_argument("--seed-baseline", type=float, default=None,
                      metavar="N",
                      help="instrs/sec measured on the seed commit "
                           "(default: carried over from the last record)")
    be_p.add_argument("--check", action="store_true",
                      help="compare against the committed baseline "
                           "instead of recording (CI smoke gate)")
    be_p.add_argument("--threshold", type=float, default=0.30,
                      help="allowed fractional regression for --check")
    be_p.set_defaults(fn=cmd_bench)

    ch_p = sub.add_parser(
        "chaos",
        help="fault-injection campaign over built-in workloads",
        parents=[batch_parent])
    ch_p.add_argument("--seed", type=int, default=0,
                      help="campaign seed (same seed = same table)")
    ch_p.add_argument("--workloads", default="lorenz,three_body",
                      help="comma-separated workload names")
    ch_p.add_argument("--ariths", default="mpfr:128",
                      help=f"comma-separated arithmetic specs ({SPEC_HELP})")
    ch_p.add_argument("--stages", default=None,
                      help="comma-separated fault stages "
                           "(default: all seven)")
    ch_p.add_argument("--size", default="test",
                      choices=("test", "bench", "S"))
    ch_p.add_argument("--storm-threshold", type=int, default=8,
                      help="degradations at one site before it is "
                           "permanently demoted")
    ch_p.add_argument("--max-instructions", type=int, default=5_000_000,
                      help="per-cell instruction watchdog")
    ch_p.add_argument("--timeout", type=float, default=120.0,
                      help="per-cell wall-clock timeout (seconds)")
    ch_p.add_argument("--retries", type=int, default=1,
                      help="retry rounds for failed/timed-out cells")
    ch_p.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: REPRO_JOBS or "
                           "CPU count)")
    ch_p.add_argument("--crash-reports", default=None, metavar="DIR",
                      help="write NDJSON crash reports for crashed "
                           "cells into DIR")
    ch_p.set_defaults(fn=cmd_chaos)

    sv_p = sub.add_parser(
        "serve",
        help="run the FPVM-as-a-service daemon: accept jobs over a "
             "local HTTP API with crash-isolated workers, admission "
             "control, and load-shedding")
    sv_p.add_argument("--host", default="127.0.0.1")
    sv_p.add_argument("--port", type=int, default=8714,
                      help="TCP port (0 = kernel-assigned)")
    sv_p.add_argument("--socket", default=None, metavar="PATH",
                      help="listen on a unix socket instead of TCP")
    sv_p.add_argument("--workers", type=int, default=2,
                      help="crash-isolated worker processes")
    sv_p.add_argument("--queue-limit", type=int, default=16,
                      help="backlog ceiling; jobs above it get a "
                           "structured 429")
    sv_p.add_argument("--shed-watermark", type=int, default=8,
                      help="backlog level where new jobs are demoted "
                           "to vanilla-precision before any are "
                           "rejected")
    sv_p.add_argument("--job-timeout", type=float, default=30.0,
                      help="per-job wall-clock timeout (seconds)")
    sv_p.add_argument("--retries", type=int, default=2,
                      help="retry budget for jobs whose worker died "
                           "or timed out")
    sv_p.add_argument("--backoff", type=float, default=0.05,
                      help="base retry backoff (doubles per attempt)")
    sv_p.add_argument("--cache-entries", type=int, default=256,
                      help="result-cache capacity (0 disables)")
    sv_p.add_argument("--no-selftest", action="store_true",
                      help="skip the startup self-test job")
    sv_p.add_argument("--crash-log", default=None, metavar="FILE",
                      help="append NDJSON crash records of contained "
                           "guest deaths to FILE")
    sv_p.set_defaults(fn=cmd_serve)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
