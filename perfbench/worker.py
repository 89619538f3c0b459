"""Run one workload in this process and write its measurements as JSON.

``run.py`` starts this script in a fresh process per workload run (with a
fresh temporary home and cache directory) and reads the file it writes::

    python3 perfbench/worker.py --workload hot_loop --seed 1 \\
        --seconds 15 --out result.json [--trace] [--max-sets 1]

Timed region of a job: ``setup`` runs from target to a runnable machine
(build, analysis, patching, loading, FPVM install); ``exec`` is the call
to ``Session.run`` or ``Session.run_batch``.  Output checks, reference
runs and warm-up Sessions are untimed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent

#: FPVMStats counters summed into the per-layer metrics
STAT_FIELDS = ("decode_hits", "decode_misses", "bind_hits", "bind_misses",
               "analysis_short_circuits", "jit_hits", "trace_hits",
               "trace_deopts", "sanitize_checks", "sanitize_exempt_execs")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def run_facts(res) -> dict:
    """What a check or a layer metric needs from one RunResult."""
    out = {"stdout_sha256": sha(res.stdout), "exit_code": res.exit_code,
           "instrs": res.instr_count, "fp_instrs": res.fp_instr_count,
           "fp_traps": res.fp_traps,
           "correctness_traps": res.correctness_traps,
           "cycles": res.cycles, "error": res.error}
    if res.fpvm is not None:
        st = res.fpvm.stats
        out["stats"] = {f: getattr(st, f) for f in STAT_FIELDS}
        out["gc_epochs"] = len(res.fpvm.gc.passes)
    return out


class Runner:
    """Executes job sets for one workload, optionally under a tracer."""

    def __init__(self, plan, expected: dict, tracer=None) -> None:
        self.plan = plan
        self.expected = expected
        self.tracer = tracer
        self.seen_hashes: set[str] = set()
        self.job_id = 0

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    # ------------------------------------------------------------------ #

    def run_job(self, job) -> dict:
        from repro.arith import from_spec
        from repro.machine.batch import LaneSpec
        from repro.session import Session

        row = job.row()
        row["job_id"] = self.job_id
        #: units attempted: batch lanes, or the job itself
        row["units"] = len(job.lanes) or 1
        self.job_id += 1
        ref_binary = None
        try:
            if job.source is not None:
                # cold job: the untimed copy serves the native reference
                # run and proves the binary is new in this run
                ref_binary = job.build()
                h = ref_binary.content_hash()
                row["binary_hash"] = h[:16]
                if h in self.seen_hashes:
                    raise AssertionError("binary already built in this run")
                self.seen_hashes.add(h)
            tr = self.tracer
            if tr is not None:
                tr.job = row["job_id"]
                tr.recording = True
            try:
                with self.span("job"):
                    c0, t0 = process_time(), perf_counter()
                    with self.span("setup"):
                        with self.span("compiler.build"):
                            binary = job.build()
                        arith = (from_spec(job.arith)
                                 if job.arith is not None else None)
                        if tr is not None and arith is not None:
                            tr.wrap_port(arith)
                        session = Session(binary, arith,
                                          params=job.params or None)
                    c1, t1 = process_time(), perf_counter()
                    with self.span("exec"):
                        if job.lanes:
                            with self.span("machine.batch"):
                                result = session.run_batch(
                                    [LaneSpec(params=p)
                                     for _, p in job.lanes])
                        else:
                            result = session.run()
                    c2, t2 = process_time(), perf_counter()
            finally:
                if tr is not None:
                    tr.recording = False
            row["setup_s"] = t1 - t0
            row["exec_s"] = t2 - t1
            row["time_to_result_s"] = t2 - t0
            # CPU time of this process over the same intervals: a wall
            # time well above it means the host made the job wait
            row["setup_cpu_s"] = c1 - c0
            row["exec_cpu_s"] = c2 - c1
            self._record(row, session, result, job)
            del session, result
            self._check(row, job, ref_binary)
        except Exception as exc:  # a failed job is counted, not fatal
            row["ok"] = False
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["traceback"] = traceback.format_exc(limit=4)
            row["failed_units"] = row["units"]
            return row
        row["ok"] = not row.get("failures")
        return row

    def _record(self, row: dict, session, result, job) -> None:
        rep = session.analysis
        if rep is not None:
            row["analysis"] = {
                "cache_hit": bool(rep.cache_hit),
                "vsa_iterations": rep.vsa_iterations,
                "contexts": rep.contexts,
                "pruned_sinks": len(rep.pruned_sinks),
                "patch_sites": rep.patch_count,
            }
        rr = session.range_report
        if rr is not None:
            row["ranges"] = {"cache_hit": bool(rr.cache_hit),
                             "iterations": rr.iterations,
                             "checkable": len(rr.checkable),
                             "proven": len(rr.proven)}
        if session.fpvm is not None and session.fpvm.sanitizer is not None:
            row["flagged_sites"] = len(
                session.fpvm.sanitizer.flagged_sites())
        if job.lanes:
            row["batch"] = {"lanes": len(result.lanes),
                            "dispatches": result.dispatches,
                            "spilled_lanes": result.spilled_lanes}
            row["lane_facts"] = [run_facts(r) for r in result.lanes]
        else:
            row.update(run_facts(result))

    def _check(self, row: dict, job, ref_binary) -> None:
        from repro.session import Session

        failures = []
        if job.check == "expect":
            table = self.expected["outputs"].get(job.expect_key)
            if table is None:
                raise KeyError(f"no recorded outputs for {job.expect_key!r}")
            if job.lanes:
                pairs = [(f"lane {n} (grid {i}): ", table[i], facts)
                         for n, ((i, _), facts)
                         in enumerate(zip(job.lanes, row["lane_facts"]))]
            else:
                pairs = [("", table[job.grid_index], row)]
            bad_units = 0
            for where, want, got in pairs:
                bad = [f"{where}{key}: got {got.get(key)!r}, "
                       f"recorded {want[key]!r}"
                       for key in ("stdout_sha256", "exit_code", "instrs",
                                   "fp_instrs")
                       if got.get(key) != want[key]]
                if got.get("error"):
                    bad.append(f"{where}error: {got['error']}")
                failures += bad
                bad_units += bool(bad)
            row["failed_units"] = bad_units
        else:
            native = Session(ref_binary, None,
                             params=job.params or None).run()
            if sha(native.stdout) != row["stdout_sha256"]:
                failures.append("stdout differs from the native run")
            if native.exit_code != row["exit_code"]:
                failures.append(f"exit code {row['exit_code']} != native "
                                f"{native.exit_code}")
            if job.check == "verdict":
                want = self.expected["verdicts"].get(job.program)
                if want is None:
                    raise KeyError(f"no known verdict for {job.program!r}")
                got = "flags" if row["flagged_sites"] > 0 else "clean"
                row["verdict"] = got
                if got != want:
                    failures.append(f"verdict {got!r}, known {want!r}")
        if failures:
            row["failures"] = failures
        row.setdefault("failed_units", int(bool(failures)))


# ---------------------------------------------------------------------- #
# aggregation                                                             #
# ---------------------------------------------------------------------- #

E2E = ("setup_s", "exec_s", "time_to_result_s")


def set_sums(rows: list[dict]) -> dict:
    return {k: sum(r.get(k, 0.0) for r in rows) for k in E2E}


def job_results(rows: list[dict]):
    """Every RunResult's facts: scalar rows and batch lanes alike."""
    for r in rows:
        if "lane_facts" in r:
            yield from r["lane_facts"]
        elif "instrs" in r:
            yield r


def layer_metrics(rows: list[dict], tracer) -> tuple[dict, list[dict]]:
    """Per-layer metrics of a traced set, plus the fidelity checks."""
    runs = list(job_results(rows))
    stats = {f: sum(r.get("stats", {}).get(f, 0) for r in runs)
             for f in STAT_FIELDS}
    ana = [r["analysis"] for r in rows if "analysis" in r]
    cold = [a for a in ana if not a["cache_hit"]]
    rng = [r["ranges"] for r in rows if "ranges" in r]
    rng_cold = [x for x in rng if not x["cache_hit"]]
    checkable = sum(x["checkable"] for x in rng)
    batches = [r["batch"] for r in rows if "batch" in r]
    lanes = sum(b["lanes"] for b in batches)

    def ratio(num, den):
        return num / den if den else 0.0

    t = tracer
    m = {
        "compiler.build_s": t.seconds("compiler.build"),
        "analysis.vsa_s": t.seconds("analysis.vsa"),
        "analysis.refine_s": t.seconds("analysis.refine"),
        "analysis.vsa_iterations": sum(a["vsa_iterations"] for a in cold),
        "analysis.contexts": sum(a["contexts"] for a in cold),
        "analysis.cache_hit_ratio": ratio(len(ana) - len(cold), len(ana)),
        "analysis.pruned_sinks": sum(a["pruned_sinks"] for a in ana),
        "analysis.ranges_s": t.seconds("analysis.ranges"),
        "analysis.ranges_iterations": sum(x["iterations"] for x in rng_cold),
        "analysis.ranges_prove_rate": ratio(
            sum(x["proven"] for x in rng), checkable),
        "analysis.patch_s": t.seconds("analysis.patch"),
        "analysis.patch_sites": sum(a["patch_sites"] for a in ana),
        "machine.load_s": t.seconds("machine.load"),
        "machine.dispatch_self_s": t.self_seconds("machine.run"),
        "machine.instrs": sum(r["instrs"] for r in runs),
        "machine.fp_instrs": sum(r["fp_instrs"] for r in runs),
        "machine.modeled_cycles": float(sum(r["cycles"] for r in runs)),
        "machine.libc_s": t.seconds("machine.libc"),
        "machine.batch_dispatches": sum(b["dispatches"] for b in batches),
        "machine.batch_spill_ratio": ratio(
            sum(b["spilled_lanes"] for b in batches), lanes),
        "fpvm.install_s": t.seconds("fpvm.install"),
        "fpvm.fp_trap_s": t.seconds("fpvm.fp_trap"),
        "fpvm.fp_trap_self_s": t.self_seconds("fpvm.fp_trap"),
        "fpvm.fp_traps": sum(r["fp_traps"] for r in runs),
        "fpvm.decode_hit_ratio": ratio(
            stats["decode_hits"], stats["decode_hits"]
            + stats["decode_misses"]),
        "fpvm.bind_hit_ratio": ratio(
            stats["bind_hits"], stats["bind_hits"] + stats["bind_misses"]),
        "fpvm.correctness_trap_s": t.seconds("fpvm.correctness_trap"),
        "fpvm.correctness_traps": sum(r["correctness_traps"] for r in runs),
        "fpvm.analysis_short_circuits": stats["analysis_short_circuits"],
        "fpvm.gc_s": t.seconds("fpvm.gc"),
        "fpvm.gc_epochs": sum(r.get("gc_epochs", 0) for r in runs),
        "fpvm.jit_hits": stats["jit_hits"],
        "fpvm.trace_hits": stats["trace_hits"],
        "fpvm.trace_deopts": stats["trace_deopts"],
        "fpvm.sanitize_checks": stats["sanitize_checks"],
        "fpvm.sanitize_exempt_execs": stats["sanitize_exempt_execs"],
        "arith.port_s": t.seconds("arith.port"),
        "arith.port_calls": t.calls("arith.port"),
    }
    # each wrapped boundary's call count against the program's own count
    sessions = len([r for r in rows if "setup_s" in r])
    spilled = sum(b["spilled_lanes"] for b in batches)
    fidelity = [
        ("fpvm.fp_trap", m["fpvm.fp_traps"]),
        ("fpvm.correctness_trap", m["fpvm.correctness_traps"]),
        ("fpvm.gc", m["fpvm.gc_epochs"]),
        ("analysis.vsa", len(cold) + len(rng_cold)),
        ("analysis.ranges", len(rng)),
        ("analysis.patch", len(ana)),
        ("machine.load", sessions + spilled),
    ]
    checks = [{"span": name, "spans": t.calls(name), "program_count": want,
               "ok": t.calls(name) == want} for name, want in fidelity]
    checks.append({"span": "*", "check": "children never sum past parent",
                   "violations": t.violations, "ok": t.violations == 0})
    return m, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-sets", type=int, default=0,
                    help="stop after this many job sets (0 = time only)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--expect", type=Path, default=HERE / "expected.json")
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.src))
    sys.path.insert(0, str(HERE))
    from plan import Plan
    from repro.session import Session
    from repro.workloads import get_workload

    expected = json.loads(args.expect.read_text())
    plan = Plan(args.workload, args.seed, expected)

    for program, size, arith in plan.warmup:
        # fills the analysis cache, as a harness matrix or serve worker
        Session(get_workload(program).build(size), arith)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(plan, expected, tracer)
    sets: list[list[dict]] = []
    t_start = perf_counter()
    limit = plan.max_sets
    if args.max_sets:
        limit = min(limit or args.max_sets, args.max_sets)
    while True:
        rows = [runner.run_job(job) for job in plan.jobs(len(sets))]
        for row in rows:
            row["set"] = len(sets)
        sets.append(rows)
        if limit is not None and len(sets) >= limit:
            break
        if perf_counter() - t_start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    rows = [r for s in sets for r in s]
    sums = [set_sums(s) for s in sets]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "sets": len(sets),
        "set_sums": sums,
        "metrics": {k: statistics.median(s[k] for s in sums) for k in E2E},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(r["units"] for r in rows),
        "failed": sum(r["failed_units"] for r in rows),
        "rows": rows,
    }
    if tracer is not None:
        out["layers"], out["fidelity"] = layer_metrics(rows, tracer)
        if args.spans is not None:
            tracer.dump(args.spans)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
