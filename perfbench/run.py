"""Host-time benchmark of virtualized runs, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hot_loop --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` runs the workload in one fresh worker process and reports
the end-to-end metrics (``setup_s``, ``exec_s``, ``time_to_result_s`` as
the median per-set sum, and ``peak_rss_mb``).  ``--trace 1`` runs one job
set untraced and the same set traced, each in its own fresh process,
checks that the traced run reproduced the untraced one, and reports the
per-layer metrics plus the tracing overhead.  The workloads are described
in ``plan.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report
(host fingerprint, workload provenance, per-set sums, per-job rows) is
written to ``.perfbench/out/`` and spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from plan import WORKLOADS  # noqa: E402

#: whole-run limit: a run must finish within three minutes
DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "exec_s": "s", "time_to_result_s": "s",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def host_fingerprint(src: Path) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return {"cpu_model": cpu or platform.processor() or "unknown",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "src_sha256": h.hexdigest()}


def spawn(args, deadline: float, *, traced: bool, max_sets: int,
          spans: Path | None = None) -> dict:
    """One worker process with a fresh home/cache directory."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    home = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=WORK / "tmp"))
    out = home / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--max-sets", str(max_sets),
           "--src", str(args.src), "--expect", str(args.expect),
           "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, HOME=str(home), TMPDIR=str(home),
               XDG_CACHE_HOME=str(home / "cache"), PYTHONHASHSEED="0")
    try:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("no time left for the worker")
        try:
            # run() kills and reaps the worker when the timeout expires
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                                  stdout=sys.stderr, stdin=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(home, ignore_errors=True)


def compare_runs(base: dict, traced: dict) -> list[str]:
    """Differences between an untraced and a traced run of one set."""
    keys = ("stdout_sha256", "exit_code", "instrs", "fp_instrs", "cycles")
    diffs = []
    for a, b in zip(base["rows"], traced["rows"], strict=True):
        pairs = zip(a.get("lane_facts", [a]), b.get("lane_facts", [b]))
        for n, (x, y) in enumerate(pairs):
            for k in keys:
                if x.get(k) != y.get(k):
                    diffs.append(f"{a['job']}[{n}] {k}: untraced "
                                 f"{x.get(k)!r} != traced {y.get(k)!r}")
    return diffs


def print_rows(rows: list[dict]) -> None:
    print(f"{'set':>3} {'job':28s} {'setup_s':>9} {'exec_s':>9} "
          f"{'units':>5} {'failed':>6}")
    for r in rows:
        print(f"{r.get('set', 0):>3} {r['job']:28s} "
              f"{r.get('setup_s', float('nan')):9.4f} "
              f"{r.get('exec_s', float('nan')):9.4f} "
              f"{r['units']:>5} {r['failed_units']:>6}"
              + ("" if r["ok"] else "  " + "; ".join(
                  r.get("failures", [r.get("error", "")]))[:200]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect", type=Path, default=HERE / "expected.json",
                    help="recorded outputs and verdicts to check against")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree of the program under test")
    args = ap.parse_args(argv)
    args.src = args.src.resolve()
    args.expect = args.expect.resolve()

    if not (args.src / "repro" / "session.py").is_file():
        print(f"perfbench: no program source at {args.src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    outdir = WORK / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_fingerprint(args.src),
              "provenance": WORKLOADS[args.workload]}
    try:
        if args.trace:
            base = spawn(args, deadline, traced=False, max_sets=1)
            res = spawn(args, deadline, traced=True, max_sets=1,
                        spans=outdir / f"{stem}.spans")
            diffs = compare_runs(base, res)
            metrics = dict(res["layers"])
            metrics["trace.overhead_s"] = (
                res["metrics"]["time_to_result_s"]
                - base["metrics"]["time_to_result_s"])
            units = {k: layer_unit(k) for k in metrics}
            correct = (not diffs and base["failed"] == 0
                       and all(c["ok"] for c in res["fidelity"]))
            report.update(untraced=base["metrics"], traced=res["metrics"],
                          fidelity=res["fidelity"], trace_diffs=diffs)
        else:
            res = spawn(args, deadline, traced=False, max_sets=0)
            metrics = dict(res["metrics"], peak_rss_mb=res["peak_rss_mb"])
            units = E2E_UNITS
            correct = True
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = correct and res["failed"] == 0
    report.update(sets=res["sets"], set_sums=res["set_sums"],
                  metrics=metrics, rows=res["rows"],
                  attempted=res["attempted"], failed=res["failed"],
                  failed_ratio=res["failed"] / res["attempted"],
                  correct=correct)
    (outdir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print_rows(res["rows"])
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
