"""Golden fixpoint regression for the interval-range pass.

The range fixpoint's result depends on its worklist order and join
counts (the widening delay) and on the converged VSA states it reads,
so a change to how its states are stored or how it is driven can shift
the proofs without any single-transfer test noticing.  This test pins,
per target, the :class:`~repro.analysis.ranges.RangeReport` computed on
the unpatched binary:

* ``checkable`` sites and their ``mnemonics``;
* ``bounds``, with every float as its exact ``repr``;
* the ``proven`` and ``exact`` sets at threshold 1e-6;
* ``iterations`` of the range fixpoint.

Tier-1 covers the seeded-bug programs, fbench and lorenz at ``test``
size; ``-m slow`` adds the rest of the registry and the ``sanitize``
benchmark programs (``perfbench/plan.py``) at the top of their knob
windows.

Regenerate the data file only for a change that is meant to alter the
pass's result, from the repository root::

    PYTHONPATH=src python tests/unit/test_ranges_golden.py
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.ranges import analyze_ranges
from repro.workloads import WORKLOADS, get_workload

ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).resolve().parent / "data" / "ranges_golden.json"

#: registry workloads checked at ``test`` size in tier-1
FAST = ("numbugs_cancel", "numbugs_sum", "numbugs_var", "fbench", "lorenz")
#: the ``sanitize`` benchmark programs and their knob presets
SANITIZE = (("numbugs_cancel", "S"), ("numbugs_sum", "S"),
            ("numbugs_var", "S"), ("fbench", "S"), ("nas_ep", "S"),
            ("nas_cg", "test"))


@functools.cache
def _plan_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_plan", ROOT / "perfbench" / "plan.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def _targets() -> dict[str, bool]:
    """Target name -> whether it runs in tier-1."""
    out = {f"{name}:test": name in FAST for name in WORKLOADS}
    for program, preset in SANITIZE:
        out[f"{program}:{preset}:hi"] = False
    return out


def build(target: str):
    program, size, *end = target.split(":")
    if not end:
        return get_workload(program).build(size)
    from repro.compiler.driver import compile_source

    plan = _plan_module()
    top = plan.knob_window(program, size)[-1]
    return compile_source(plan.template_source(program, size, top))


def fingerprint(target: str) -> dict:
    rr = analyze_ranges(build(target), threshold=1e-6, cache=False)
    bounds = {}
    for addr in rr.checkable:
        b = rr.bounds[addr]
        bounds[f"{addr:#x}"] = None if b is None else [repr(x) for x in b]
    return {
        "checkable": [f"{a:#x}" for a in rr.checkable],
        "mnemonics": {f"{a:#x}": rr.mnemonics[a] for a in rr.checkable},
        "bounds": bounds,
        "proven": [f"{a:#x}" for a in sorted(rr.proven)],
        "exact": [f"{a:#x}" for a in sorted(rr.exact)],
        "iterations": rr.iterations,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def test_golden_covers_every_target(golden):
    assert sorted(golden) == sorted(_targets())


@pytest.mark.parametrize("target", [
    t if fast else pytest.param(t, marks=pytest.mark.slow)
    for t, fast in _targets().items()
])
def test_ranges_match_golden(target, golden):
    assert fingerprint(target) == golden[target]


if __name__ == "__main__":
    out = {}
    for t in _targets():
        out[t] = fingerprint(t)
        print(t, out[t]["iterations"], flush=True)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
