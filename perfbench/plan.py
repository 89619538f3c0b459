"""The four benchmark workloads: why each exists and which jobs it runs.

A *job* is one program run from target to result through the public
``repro.session.Session`` API, in the default configuration (no JIT,
trace-JIT, GC-mode or other mechanism flag is set).  A workload runs a
fixed *set* of jobs; a benchmark run repeats the set to fill its time
and reports the median set.  The seed changes only the generated inputs:

* cold jobs (``cold_start``, ``sanitize``) compile each program from its
  ``SOURCE_TEMPLATE`` with one size constant (the *knob*) drawn from a
  small window just below a preset.  Each set takes the next unused
  window value, so no binary repeats within a run and no analysis cache
  can serve a job; a run stops repeating when a window is used up.
* warm jobs (``hot_loop``, ``sweep``) poke seed-drawn data-symbol
  ``params`` chosen from the recorded grid in ``expected.json``; every
  set of a run repeats the same inputs.

Load is a closed loop of one: jobs run one at a time, in one process,
with no extra threads.  ``serve``, ``faults`` and ``harness`` are not
measured: the serve pool forks one worker per slot, which on a small
host would measure the scheduler rather than the program.
"""

from __future__ import annotations

import importlib
import inspect
import random
from dataclasses import dataclass, field

#: name -> provenance: why the workload exists, the layers it stresses
#: and the layers it bypasses (copied into every result report)
WORKLOADS = {
    "cold_start": {
        "why": "CLI-style cold --arith vanilla runs of enzo, nas_cg, nas_lu "
               "and nas_mg; every binary is new, so static analysis (VSA) "
               "is nearly all of the wait",
        "stresses": ["compiler", "analysis.vsa", "analysis.liveness",
                     "analysis.patcher", "fpvm.runtime (correctness traps, "
                     "enzo)"],
        "bypasses": ["analysis caches", "analysis.ranges", "machine.batch",
                     "arith beyond vanilla", "fpvm.sanitize"],
        "jobs": "enzo, nas_cg, nas_lu, nas_mg under vanilla; knob drawn "
                "just below the bench preset (above test)",
    },
    "hot_loop": {
        "why": "warm, long runs under mpfr:64 (lorenz, three_body, fbench "
               "at S) and posit:32:2 (lorenz S); trap service, dispatch "
               "and the arith port are all of the time",
        "stresses": ["machine.cpu/predecode", "machine.libc",
                     "fpvm.runtime (FP traps)", "fpvm.gc",
                     "arith (mpfr, posit)"],
        "bypasses": ["analysis (cache hit after an untimed warm-up)",
                     "analysis.ranges", "machine.batch", "fpvm.sanitize"],
        "jobs": "lorenz S, three_body S, fbench S under mpfr:64 and lorenz "
                "S under posit:32:2; params from the recorded grid",
    },
    "sanitize": {
        "why": "repro sanitize-style dual-path runs of three seeded-bug and "
               "three clean programs; ranges re-runs VSA in setup and "
               "every FP op is computed twice",
        "stresses": ["analysis.vsa", "analysis.ranges", "fpvm.sanitize",
                     "arith (dual path)"],
        "bypasses": ["analysis caches", "machine.batch"],
        "jobs": "numbugs_cancel, numbugs_sum, numbugs_var, fbench, nas_ep "
                "at S and nas_cg at test under sanitize:200",
    },
    "sweep": {
        "why": "Monte-Carlo lorenz rho sweeps through Session.run_batch: "
               "32 native lanes and 16 mpfr:64 lanes; the only workload "
               "that runs machine.batch",
        "stresses": ["machine.batch", "batch spill to the scalar "
                     "interpreter", "arith (mpfr) on spilled lanes"],
        "bypasses": ["analysis (cache hit after an untimed warm-up)",
                     "analysis.ranges", "fpvm.sanitize"],
        "jobs": "lorenz bench: one native batch of 32 lanes and one mpfr:64 "
                "batch of 16 lanes, rho from the recorded grid",
    },
}

#: program -> (module, template attr, sizes attr, knob constant)
TEMPLATES = {
    "enzo": ("repro.workloads.enzo", "SOURCE_TEMPLATE", "SIZES", "grid"),
    "nas_cg": ("repro.workloads.nas.cg", "SOURCE_TEMPLATE", "SIZES", "n"),
    "nas_lu": ("repro.workloads.nas.lu", "SOURCE_TEMPLATE", "SIZES", "n"),
    "nas_mg": ("repro.workloads.nas.mg", "SOURCE_TEMPLATE", "SIZES",
               "nfine"),
    "nas_ep": ("repro.workloads.nas.ep", "SOURCE_TEMPLATE", "SIZES",
               "pairs"),
    "fbench": ("repro.workloads.fbench", "SOURCE_TEMPLATE", "SIZES",
               "iterations"),
    "numbugs_cancel": ("repro.workloads.numbugs", "CANCEL_TEMPLATE",
                       "CANCEL_SIZES", "iters"),
    "numbugs_sum": ("repro.workloads.numbugs", "SUM_TEMPLATE", "SUM_SIZES",
                    "iters"),
    "numbugs_var": ("repro.workloads.numbugs", "VAR_TEMPLATE", "VAR_SIZES",
                    "n"),
}

#: (program, preset, arith spec) per cold workload
COLD_JOBS = {
    "cold_start": [("enzo", "bench", "vanilla"), ("nas_cg", "bench", "vanilla"),
                   ("nas_lu", "bench", "vanilla"),
                   ("nas_mg", "bench", "vanilla")],
    "sanitize": [("numbugs_cancel", "S", "sanitize:200"),
                 ("numbugs_sum", "S", "sanitize:200"),
                 ("numbugs_var", "S", "sanitize:200"),
                 ("fbench", "S", "sanitize:200"),
                 ("nas_ep", "S", "sanitize:200"),
                 ("nas_cg", "test", "sanitize:200")],
}

#: (program, size, arith spec) of the warm scalar jobs
HOT_JOBS = [("lorenz", "S", "mpfr:64"), ("three_body", "S", "mpfr:64"),
            ("fbench", "S", "mpfr:64"), ("lorenz", "S", "posit:32:2")]

#: sweep batches: (arith spec or None for native, lane count)
SWEEP_PROGRAM, SWEEP_SIZE = "lorenz", "bench"
SWEEP_BATCHES = [(None, 32), ("mpfr:64", 16)]


def arith_key(arith) -> str:
    return "native" if arith is None else arith


@dataclass
class Job:
    """One program run; ``lanes`` makes it a ``run_batch`` job."""

    name: str
    program: str
    arith: str | None
    #: fpc source text (cold jobs) or None to build the registry workload
    source: str | None = None
    size: str = ""
    params: dict = field(default_factory=dict)
    #: "native" (vanilla vs a native run), "expect" (recorded digests)
    #: or "verdict" (sanitize verdict plus native IEEE stdout)
    check: str = "native"
    #: expected-output key and grid index (scalar ``expect`` jobs)
    expect_key: str = ""
    grid_index: int = -1
    #: batch lanes: [(grid index, params), ...]
    lanes: list = field(default_factory=list)
    knob: dict = field(default_factory=dict)

    def build(self):
        if self.source is not None:
            from repro.compiler.driver import compile_source
            return compile_source(self.source)
        from repro.workloads import get_workload
        return get_workload(self.program).build(self.size)

    def row(self) -> dict:
        """Static description of the job for the per-job report rows."""
        out = {"job": self.name, "program": self.program,
               "arith": arith_key(self.arith), "size": self.size}
        if self.knob:
            out["knob"] = self.knob
        if self.params:
            out["params"] = self.params
        if self.grid_index >= 0:
            out["grid_index"] = self.grid_index
        if self.lanes:
            out["lanes"] = [i for i, _ in self.lanes]
        return out


def template_source(program: str, preset: str, knob_value: int) -> str:
    """``program``'s source at ``preset`` with its knob set to a value."""
    mod_name, tmpl_attr, sizes_attr, knob = TEMPLATES[program]
    mod = importlib.import_module(mod_name)
    preset_vals = getattr(mod, sizes_attr)[preset]
    derive = getattr(mod, "_params", None)
    if derive is None:
        vals = dict(preset_vals)
        vals[knob] = knob_value
    else:
        primary = {k: preset_vals[k]
                   for k in inspect.signature(derive).parameters}
        primary[knob] = knob_value
        vals = derive(**primary)
    return getattr(mod, tmpl_attr).format(**vals)


def knob_window(program: str, preset: str) -> list[int]:
    """Knob values a cold job may take: at most 4, ending at the preset.

    The window stays within 1/16 of the preset value so seeds move a
    job's work by a few percent only.
    """
    mod_name, _, sizes_attr, knob = TEMPLATES[program]
    top = getattr(importlib.import_module(mod_name), sizes_attr)[preset][knob]
    width = max(1, min(3, top // 16))
    return list(range(top - width, top + 1))


class Plan:
    """The job sets of one workload for one seed."""

    def __init__(self, workload: str, seed: int, expected: dict) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.expected = expected
        rng = random.Random(f"{workload}:{seed}")
        self._windows: dict[str, list[int]] = {}
        self._hot: list[Job] = []
        #: untimed warm-up Sessions: (program, size, arith)
        self.warmup: list[tuple[str, str, str]] = []
        if workload in COLD_JOBS:
            for program, preset, _ in COLD_JOBS[workload]:
                window = knob_window(program, preset)
                rng.shuffle(window)
                self._windows[program] = window
        elif workload == "hot_loop":
            for program, size, arith in HOT_JOBS:
                grid = expected["grids"][f"{program}:{size}"]
                i = rng.randrange(len(grid))
                self._hot.append(Job(
                    name=f"{program}/{arith}", program=program, arith=arith,
                    size=size, params=grid[i], check="expect",
                    expect_key=f"{program}:{size}:{arith}", grid_index=i))
                self.warmup.append((program, size, arith))
        else:
            grid = expected["grids"][f"{SWEEP_PROGRAM}:{SWEEP_SIZE}"]
            for arith, n in SWEEP_BATCHES:
                picks = rng.sample(range(len(grid)), n)
                self._hot.append(Job(
                    name=f"{SWEEP_PROGRAM}/{arith_key(arith)}x{n}",
                    program=SWEEP_PROGRAM, arith=arith, size=SWEEP_SIZE,
                    check="expect",
                    expect_key=f"{SWEEP_PROGRAM}:{SWEEP_SIZE}:"
                               f"{arith_key(arith)}",
                    lanes=[(i, grid[i]) for i in picks]))
                if arith is not None:
                    self.warmup.append((SWEEP_PROGRAM, SWEEP_SIZE, arith))

    @property
    def max_sets(self) -> int | None:
        """Sets a run may make (cold windows run out); None = unbounded."""
        if not self._windows:
            return None
        return min(len(w) for w in self._windows.values())

    def jobs(self, set_index: int) -> list[Job]:
        if not self._windows:
            return list(self._hot)
        out = []
        for program, preset, arith in COLD_JOBS[self.workload]:
            value = self._windows[program][set_index]
            knob = TEMPLATES[program][3]
            out.append(Job(
                name=f"{program}/{arith}", program=program, arith=arith,
                source=template_source(program, preset, value), size=preset,
                check="verdict" if self.workload == "sanitize" else "native",
                knob={knob: value}))
        return out
