"""Show that the benchmark's checks and its bound can fail.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py [--seed 1]

* ``digest``: one recorded sweep-lane digest is corrupted, so that lane
  must count as failed.
* ``verdict``: the known sanitize verdict of ``numbugs_cancel`` is
  flipped, so that job must count as failed.
* ``slowdown``: a copy of ``src/`` gets a sleep in the dispatch loop
  (2 µs per instruction dispatched, taken when the loop exits); its
  ``hot_loop`` ``exec_s`` must exceed the unmodified tree's by more than
  the ``exec_s`` bound in ``BENCHMARK.json``.

Exits 0 when every check failed where it should.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"

sys.path.insert(0, str(HERE))
from plan import Plan  # noqa: E402

#: the dispatch loop's exit in ``Machine.run`` and the slowed version
DISPATCH_EXIT = "        finally:\n            self._in_fast_loop = False\n"
SLOWED_EXIT = DISPATCH_EXIT + (
    "            __import__('time').sleep(self.instr_count * 2e-6)\n")


def bench(workload: str, seed: int, *extra: str) -> dict:
    """One ``run.py`` run of a single job set; returns its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupted(expected: dict, name: str) -> Path:
    path = WORK / f"expected-{name}.json"
    path.write_text(json.dumps(expected))
    return path


def test_digest(seed: int) -> str | None:
    expected = json.loads((HERE / "expected.json").read_text())
    job = Plan("sweep", seed, expected).jobs(0)[0]
    grid_index = job.lanes[0][0]
    expected["outputs"][job.expect_key][grid_index]["stdout_sha256"] = "0" * 64
    res = bench("sweep", seed, "--expect", str(corrupted(expected, "digest")))
    if res["failed"] < 1 or res["correct"]:
        return f"corrupt digest not caught: {res}"
    return None


def test_verdict(seed: int) -> str | None:
    expected = json.loads((HERE / "expected.json").read_text())
    expected["verdicts"]["numbugs_cancel"] = "clean"
    res = bench("sanitize", seed,
                "--expect", str(corrupted(expected, "verdict")))
    if res["failed"] < 1 or res["correct"]:
        return f"flipped verdict not caught: {res}"
    return None


def test_slowdown(seed: int) -> str | None:
    bound = next(m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if m["name"] == "exec_s")
    slow_src = WORK / "src"
    shutil.rmtree(slow_src, ignore_errors=True)
    shutil.copytree(ROOT / "src", slow_src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cpu = slow_src / "repro" / "machine" / "cpu.py"
    text = cpu.read_text()
    if text.count(DISPATCH_EXIT) != 1:
        return "dispatch loop exit not found in machine/cpu.py"
    cpu.write_text(text.replace(DISPATCH_EXIT, SLOWED_EXIT))
    base = bench("hot_loop", seed)["metrics"]["exec_s"]["value"]
    slow = bench("hot_loop", seed, "--src", str(slow_src))
    slow_exec = slow["metrics"]["exec_s"]["value"]
    change = slow_exec / base - 1
    print(f"  hot_loop exec_s {base:.3f} s -> {slow_exec:.3f} s "
          f"({change:+.1%}, bound {bound:.0%})")
    if not slow["correct"]:
        return "slowed tree produced wrong outputs"
    if change <= bound:
        return f"slowdown {change:+.1%} stayed within the bound {bound:.0%}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    failed = 0
    for test in (test_digest, test_verdict, test_slowdown):
        error = test(args.seed)
        print(f"{test.__name__}: {'FAIL ' + error if error else 'ok'}")
        failed += error is not None
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
