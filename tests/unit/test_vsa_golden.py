"""Golden fixpoint regression for the value-set analysis.

The VSA's result depends on its worklist order and join counts (the
widening delay), so a change to how states are stored or joined can
shift the fixpoint without any test of a single transfer noticing.
This test pins, per target,

* the analysis report, ``AnalysisReport.to_dict()`` without its
  wall-clock timings (``stats.vsa_iterations`` is part of it), and
* a sha256 of the converged ``vsa.states``, with each frame's stack
  slots sorted by a-loc so the digest does not depend on how a state
  stores them.

Tier-1 covers the cheap registry workloads at ``test`` size; ``-m slow``
adds the rest of the registry and the ``cold_start`` benchmark programs
(``perfbench/plan.py``) at both ends of their knob windows.

Regenerate the data file only for a change that is meant to alter the
analysis's result, from the repository root::

    PYTHONPATH=src python tests/unit/test_vsa_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.liveness import refine
from repro.analysis.vsa import ValueSetAnalysis
from repro.workloads import WORKLOADS, get_workload

ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).resolve().parent / "data" / "vsa_golden.json"

#: registry workloads analyzed at ``test`` size in tier-1
FAST = ("lorenz", "fbench", "nas_ep", "numbugs_cancel", "numbugs_sum",
        "numbugs_var")
#: the ``cold_start`` programs, built from their source templates
COLD = ("enzo", "nas_cg", "nas_lu", "nas_mg")


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
    for program in COLD:
        for end in ("lo", "hi"):
            out[f"{program}:bench:{end}"] = False
    return out


def build(target: str):
    program, size, *end = target.split(":")
    if not end:
        return get_workload(program).build(size)
    from repro.compiler.driver import compile_source

    plan = _plan_module()
    window = plan.knob_window(program, size)
    value = window[0] if end[0] == "lo" else window[-1]
    return compile_source(plan.template_source(program, size, value))


def states_digest(vsa: ValueSetAnalysis) -> str:
    h = hashlib.sha256()
    for key, st in sorted(vsa.states.items()):
        slots = sorted(dict(st.stack).items(), key=lambda kv: repr(kv[0]))
        h.update(repr((key, st.regs.regs, slots)).encode())
        h.update(b"\n")
    return h.hexdigest()


def fingerprint(target: str) -> dict:
    binary = build(target)
    vsa = ValueSetAnalysis(binary)
    report = vsa.run()
    refine(vsa, report)
    report.binary_hash = binary.content_hash()
    doc = report.to_dict()
    del doc["timings_ms"]
    return {"report": doc, "states_sha256": states_digest(vsa)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def test_golden_covers_every_target(golden):
    assert sorted(golden) == sorted(_targets())


@pytest.mark.parametrize("target", [
    t if fast else pytest.param(t, marks=pytest.mark.slow)
    for t, fast in _targets().items()
])
def test_fixpoint_matches_golden(target, golden):
    got = fingerprint(target)
    want = golden[target]
    assert got["report"] == want["report"]
    assert got["states_sha256"] == want["states_sha256"]


if __name__ == "__main__":
    out = {}
    for t in _targets():
        out[t] = fingerprint(t)
        print(t, out[t]["report"]["stats"]["vsa_iterations"], flush=True)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
