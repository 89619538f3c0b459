"""Differential tests for the tracing JIT: trace-compiled hot loops
must be observationally identical to plain interpretation.

The contract (``repro.fpvm.tracejit``): with the trace JIT attached to
a plain machine, a run produces the same stdout, exit code, dynamic
instruction count, FP instruction count and register file as the same
run without it — including runs whose guards deoptimize and whose
traces a binary patch invalidates.  (Modeled cycles are summed in
batches inside a trace, so the float totals may differ in the last
ulps; they are not part of the observational contract.)

The tracer is machine-only: attached to a machine with an installed
FPVM it must compile nothing and leave every FPVM configuration —
each arithmetic, the trap-site JIT, fault plans — exactly as it was.
"""

import pytest

from repro.compiler import compile_source
from repro.faults import FaultPlan, FaultRule
from repro.fpvm.runtime import FPVMConfig
from repro.fpvm.tracejit import TraceJIT
from repro.machine.loader import load_binary
from repro.session import Session
from repro.workloads import get_workload

ARITHS = ["vanilla", "mpfr:64", "posit:32:2"]
WORKLOADS = ["lorenz", "fbench", "three_body"]
#: workloads whose hot loops the opt emitter compiles at test size
#: (lorenz's and fbench's loop bodies call printf, so they stay
#: interpreted)
OPT_WORKLOADS = {"three_body", "nas_cg"}


def _observed(res):
    return (res.stdout, res.exit_code, res.instr_count, res.fp_instr_count)


# --------------------------------------------------------------------------- #
# a tracer attached under an installed FPVM stays out of the way               #
# --------------------------------------------------------------------------- #

def _hosted(name, arith, cfg):
    """Run a workload under FPVM with a TraceJIT attached to its machine."""
    s = Session(name, arith, size="test", config=cfg)
    tj = TraceJIT(s.machine, 3)
    tj.attach()
    return s.run(), tj


def _hosted_pair(name, arith, **cfg):
    """The same FPVM run without and with an attached tracer."""
    off = Session(name, arith, size="test", config=FPVMConfig(**cfg)).run()
    on, tj = _hosted(name, arith, FPVMConfig(**cfg))
    return off, on, tj


def _assert_inert(on, tj):
    assert tj.stats.trace_loops_compiled == 0
    assert not tj.traces
    assert on.fpvm.stats.trace_hits == 0


@pytest.mark.parametrize("arith", ARITHS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_tracejit_identical(name, arith):
    off, on, tj = _hosted_pair(name, arith)
    assert _observed(on) == _observed(off)
    _assert_inert(on, tj)


# three_body from here on: the opt emitter compiles its inner loops on
# a plain machine, so a tracer that ignored the installed handler would
# compile them here too

def test_composes_with_trap_site_jit():
    off, on, tj = _hosted_pair("three_body", "mpfr:64", jit_threshold=2)
    assert _observed(on) == _observed(off)
    assert on.fpvm.stats.jit_sites_compiled > 0
    _assert_inert(on, tj)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_identical_under_fault_plan(seed):
    plan = FaultPlan(seed=seed, rules=(
        FaultRule(stage="emulate", probability=0.15, max_fires=None),))
    off, on, tj = _hosted_pair("three_body", "vanilla", faults=plan)
    assert _observed(on) == _observed(off)
    assert on.fpvm.stats.degradations > 0
    _assert_inert(on, tj)


def test_zero_rule_plan_matches_no_injector():
    off = Session("three_body", "mpfr:64", size="test").run()
    on, tj = _hosted("three_body", "mpfr:64",
                     FPVMConfig(faults=FaultPlan(seed=7)))
    assert _observed(on) == _observed(off)
    _assert_inert(on, tj)


# --------------------------------------------------------------------------- #
# machine-only traces (no FPVM handler, FP inlined as floats)                  #
# --------------------------------------------------------------------------- #

def _native_pair(binary_of, *, threshold=3):
    off = load_binary(binary_of())
    off.run()
    on = load_binary(binary_of())
    tj = TraceJIT(on, threshold)
    tj.attach()
    on.run()
    return off, on, tj


def _assert_machine_identical(on, off):
    assert "".join(on.stdout) == "".join(off.stdout)
    assert on.exit_code == off.exit_code
    assert on.instr_count == off.instr_count
    assert on.fp_instr_count == off.fp_instr_count
    assert on.regs.gpr == off.regs.gpr


@pytest.mark.parametrize("name", WORKLOADS + ["nas_cg"])
def test_machine_only_identical(name):
    spec = get_workload(name)
    off, on, tj = _native_pair(lambda: spec.build("test"))
    _assert_machine_identical(on, off)
    if name in OPT_WORKLOADS:
        assert tj.stats.trace_loops_compiled > 0
        assert tj.stats.trace_hits > 0


def test_machine_only_register_file_identical():
    """Full architectural state (GPRs, XMM lanes, flags) must match
    after a run whose hot loop executed inside compiled traces."""
    spec = get_workload("three_body")
    off, on, tj = _native_pair(lambda: spec.build("test"))
    assert tj.stats.trace_hits > 0
    for i in range(len(off.regs.xmm)):
        assert tuple(on.regs.xmm[i]) == tuple(off.regs.xmm[i])
    for f in ("zf", "sf", "of", "cf", "pf"):
        assert getattr(on.regs, f) == getattr(off.regs, f)


def test_opt_mode_emitted_for_fp_loop():
    """A printf-free FP loop (machine-only) gets the optimizing
    emitter — that is where the speedup lives."""
    src = """
    long main() {
        double x = 1.5;
        double acc = 0.0;
        for (long i = 0; i < 300; i = i + 1) {
            x = x * 0.99 + 0.03;
            acc = acc + x;
        }
        printf("%.17g\\n", acc);
        return 0;
    }
    """
    off, on, tj = _native_pair(lambda: compile_source(src), threshold=8)
    _assert_machine_identical(on, off)
    assert tj.stats.trace_loops_compiled >= 1
    assert any(info.mode == "opt" for info in tj.traces.values())


def test_overflow_deopts_then_patch_invalidates():
    """A compiled loop whose float value overflows to inf mid-run: every
    iteration past the overflow fails the finiteness guard and deopts
    to the interpreter, which must reproduce the SoftFPU result
    exactly.  A binary patch inside the loop then tears the trace
    down through the patch listener."""
    src = """
    long main() {
        double x = 1.0;
        for (long i = 0; i < 400; i = i + 1) {
            x = x * 10.0;
        }
        printf("%.17g\\n", x);
        return 0;
    }
    """
    off, on, tj = _native_pair(lambda: compile_source(src), threshold=8)
    _assert_machine_identical(on, off)
    assert "".join(on.stdout) == "inf\n"
    assert tj.stats.trace_hits > 0
    assert tj.stats.trace_deopts > 0

    (header, info), = tj.traces.items()
    assert info.mode == "opt" and on._blocks[header] is info.fn
    mul = next(on.binary.text_map[a] for a in info.addrs
               if on.binary.text_map[a].mnemonic == "mulsd")
    on.binary.replace_instruction(mul.addr, mul)
    assert tj.stats.trace_invalidations > 0
    assert not info.valid and header not in tj.traces
    assert on._blocks[header] is not info.fn
