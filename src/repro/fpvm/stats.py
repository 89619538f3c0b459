"""FPVM runtime statistics — the numbers behind Figs. 9, 10, 12.

Cycle accounting uses the machine cost model's buckets:

* ``hw_delivery`` / ``kernel_delivery`` — fault delivery (Fig. 9's
  "hardware overhead" / "kernel overhead")
* ``decode`` / ``bind`` / ``emulate`` — FPVM stages
* ``gc`` — amortized collection
* ``correctness`` / ``correctness_handler`` — static-patch traps
* ``base`` — ordinary (non-virtualized) execution
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ieee.softfloat import Flags

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine


#: bucket -> Fig. 9 component label
FIG9_COMPONENTS = (
    ("hw_delivery", "hardware overhead"),
    ("kernel_delivery", "kernel overhead"),
    ("decode", "decode"),
    ("bind", "bind"),
    ("emulate", "emulate"),
    ("gc", "garbage collection"),
    ("correctness", "correctness overhead"),
    ("correctness_handler", "correctness handler"),
)


@dataclass
class FPVMStats:
    """Counters accumulated by one FPVM run."""

    fp_traps: int = 0
    traps_by_flag: dict[str, int] = field(default_factory=dict)
    correctness_traps: int = 0
    correctness_demotions: int = 0
    call_site_demotions: int = 0
    libm_interposed_calls: int = 0
    printf_demotions: int = 0
    patch_sites_installed: int = 0
    patch_fast_path: int = 0
    patch_slow_path: int = 0
    #: amortization-stage counters (the Fig. 9 "amortized to ~0" claim,
    #: measurable for both stages: decode cache and bind cache)
    decode_hits: int = 0
    decode_misses: int = 0
    bind_hits: int = 0
    bind_misses: int = 0
    #: graceful-degradation ladder: recoverable faults demoted to
    #: vanilla IEEE re-execution, and trap sites permanently demoted by
    #: the storm detector (§4.1 short-circuiting as a safety valve)
    degradations: int = 0
    sites_short_circuited: int = 0
    short_circuit_execs: int = 0
    #: trap-site JIT: sites compiled to specialized closures, fused
    #: shadow kernels built, FP events absorbed without fault delivery
    #: (jit_hits), hardware commits at patched sites (jit_fast_path),
    #: closures torn down by faults/demotions, and intermediate results
    #: that stayed register-resident instead of being NaN-boxed
    jit_sites_compiled: int = 0
    jit_fused_kernels: int = 0
    jit_hits: int = 0
    jit_fast_path: int = 0
    jit_invalidations: int = 0
    boxes_elided: int = 0
    #: tracing JIT (machine-only: a TraceJIT owns its own FPVMStats, so
    #: an FPVM's copy always reads 0): hot loops compiled to trace
    #: functions, recordings aborted (too long, halted, unmapped),
    #: iterations run inside compiled traces (trace_hits), guard
    #: failures that deoptimized to the interpreter (trace_deopts),
    #: ordinary loop exits through branch guards (trace_side_exits), and
    #: traces torn down by patches/storms (trace_invalidations)
    trace_loops_compiled: int = 0
    trace_record_aborts: int = 0
    trace_hits: int = 0
    trace_deopts: int = 0
    trace_side_exits: int = 0
    trace_invalidations: int = 0
    #: correctness traps answered by the static analysis fast path —
    #: the liveness refinement proved the site box-free, so the handler
    #: skipped the operand demotion scan entirely
    analysis_short_circuits: int = 0
    #: NSan-mode sanitizer: dual-path divergence checks performed,
    #: checks that flagged (rel err above threshold), and trap
    #: executions short-circuited because the interval-range pass
    #: statically proved the site divergence-free
    sanitize_checks: int = 0
    sanitize_flags: int = 0
    sanitize_exempt_execs: int = 0

    def record_decode(self, hit: bool) -> None:
        if hit:
            self.decode_hits += 1
        else:
            self.decode_misses += 1

    def record_bind(self, hit: bool) -> None:
        if hit:
            self.bind_hits += 1
        else:
            self.bind_misses += 1

    @property
    def decode_hit_rate(self) -> float:
        total = self.decode_hits + self.decode_misses
        return self.decode_hits / total if total else 0.0

    @property
    def bind_hit_rate(self) -> float:
        total = self.bind_hits + self.bind_misses
        return self.bind_hits / total if total else 0.0

    @property
    def patched_site_hit_rate(self) -> float:
        """Fraction of emulated FP events absorbed by compiled sites."""
        total = self.jit_hits + self.fp_traps
        return self.jit_hits / total if total else 0.0

    def record_trap_flags(self, flags: int) -> None:
        self.fp_traps += 1
        for bit, name in ((Flags.IE, "IE"), (Flags.DE, "DE"),
                          (Flags.ZE, "ZE"), (Flags.OE, "OE"),
                          (Flags.UE, "UE"), (Flags.PE, "PE")):
            if flags & bit:
                self.traps_by_flag[name] = self.traps_by_flag.get(name, 0) + 1

    # ------------------------------------------------------------------ #
    def fig9_breakdown(self, machine: "Machine") -> dict[str, float]:
        """Average per-virtualized-instruction cycle cost by component.

        The decode component is amortized over all faulting FP
        instructions (paper footnote 8) — with a ~100% decode-cache
        hit rate it is tiny.
        """
        events = self.fp_traps + self.correctness_traps
        if events == 0:
            return {label: 0.0 for _, label in FIG9_COMPONENTS}
        buckets = machine.cost.buckets
        out: dict[str, float] = {}
        for bucket, label in FIG9_COMPONENTS:
            out[label] = buckets.get(bucket, 0) / events
        out["total"] = sum(v for k, v in out.items())
        return out
