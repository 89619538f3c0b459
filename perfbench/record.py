"""Record the expected outputs of the digest-checked benchmark jobs.

``hot_loop`` jobs and ``sweep`` lanes take their ``params`` from fixed
grids; a seed only picks grid entries.  This script builds the grids and
records, for every entry and every arithmetic the benchmark uses on it,
the stdout digest, exit code and guest instruction counts of an untimed
scalar ``Session.run``.  Sanitize verdicts are fixed by the programs
(seeded bugs flag, clean programs do not) and carried over unchanged.

Run from the repository root after a change that legitimately alters
guest output, and review the diff::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: grid key -> (entries, generator of one params dict)
GRIDS = {
    "lorenz:S": (8, lambda r: {"rho": 28.0 + r.uniform(-0.5, 0.5),
                               "sigma": 10.0 + r.uniform(-0.2, 0.2),
                               "beta": 8 / 3 + r.uniform(-0.05, 0.05)}),
    "three_body:S": (8, lambda r: {"G": 1.0 + r.uniform(-0.02, 0.02)}),
    "fbench:S": (8, lambda r: {"clear_ap": 4.0 + r.uniform(-0.1, 0.1)}),
    "lorenz:bench": (64, lambda r: {"rho": r.uniform(24.0, 32.0)}),
}

VERDICTS = {"numbugs_cancel": "flags", "numbugs_sum": "flags",
            "numbugs_var": "flags", "fbench": "clean", "nas_ep": "clean",
            "nas_cg": "clean"}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from plan import HOT_JOBS, SWEEP_BATCHES, SWEEP_PROGRAM, SWEEP_SIZE, \
        arith_key
    from repro.session import Session
    from repro.workloads import get_workload
    from worker import run_facts

    grids = {}
    for key, (n, draw) in GRIDS.items():
        r = random.Random(f"grid:{key}")
        grids[key] = [draw(r) for _ in range(n)]

    runs = [(p, s, a) for p, s, a in HOT_JOBS]
    runs += [(SWEEP_PROGRAM, SWEEP_SIZE, a) for a, _ in SWEEP_BATCHES]
    outputs = {}
    for program, size, arith in runs:
        key = f"{program}:{size}:{arith_key(arith)}"
        table = []
        for params in grids[f"{program}:{size}"]:
            res = Session(get_workload(program).build(size), arith,
                          params=params).run()
            facts = run_facts(res)
            table.append({k: facts[k] for k in (
                "stdout_sha256", "exit_code", "instrs", "fp_instrs")})
        outputs[key] = table
        counts = sorted({(t["instrs"], t["fp_instrs"]) for t in table})
        print(f"{key}: {len(table)} entries, (instrs, fp_instrs) {counts}",
              file=sys.stderr)
    doc = {"grids": grids, "outputs": outputs, "verdicts": VERDICTS}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
