"""Microbenchmarks of the substrate: simulator throughput, NaN-box
codec, decode cache, soft-FPU ops, and the GC scan."""

import pytest

from repro.compiler import compile_source
from repro.ieee.bits import f64_to_bits
from repro.ieee.softfloat import SoftFPU
from repro.fpvm.nanbox import NaNBoxCodec
from repro.machine.loader import load_binary

FPU = SoftFPU()
A = f64_to_bits(0.1)
B = f64_to_bits(0.7)


@pytest.mark.parametrize("op", ["add64", "mul64", "div64"])
def test_softfpu_op(benchmark, op):
    benchmark(getattr(FPU, op), A, B)


def test_nanbox_encode_decode(benchmark):
    codec = NaNBoxCodec()

    def roundtrip():
        bits = codec.encode(123456)
        return codec.decode(bits) if codec.is_box(bits) else None

    assert benchmark(roundtrip) == 123456


_THROUGHPUT_SRC = """
long main() {
    long s = 0;
    for (long i = 0; i < 2000; i = i + 1) { s = s + i * 3; }
    return s & 255;
}
"""


def test_simulator_throughput(benchmark):
    """Instructions/second of the predecoded interpreter (integer loop)."""
    def run():
        m = load_binary(compile_source(_THROUGHPUT_SRC))
        m.run()
        return m.instr_count

    count = benchmark(run)
    benchmark.extra_info["instr_count"] = count
    assert count > 10_000


def test_simulator_throughput_legacy(benchmark):
    """Same loop under the legacy per-step dispatch (the seed path) —
    the predecode speedup is the ratio of these two benches."""
    def run():
        m = load_binary(compile_source(_THROUGHPUT_SRC), predecode=False)
        m.run()
        return m.instr_count

    count = benchmark(run)
    benchmark.extra_info["instr_count"] = count
    assert count > 10_000


#: FP loop shared by the whole-program benches: a fusible divsd+addsd
#: pair per iteration (1000 FP events per run)
_FP_LOOP_SRC = """
long main() {
    double s = 0.1;
    for (long i = 0; i < 500; i = i + 1) { s = s / 1.0000001 + 0.0000001; }
    printf("%.17g\\n", s);
    return 0;
}
"""


def _fp_loop_state(config=None, virtualize=True):
    """Fresh machine (+ optionally installed FPVM) per measured run;
    compile/load/install happen in the pedantic setup hook so the
    measured time is the run itself."""
    from repro.arith import VanillaArithmetic
    from repro.fpvm.runtime import FPVM

    state = {}

    def setup():
        m = load_binary(compile_source(_FP_LOOP_SRC))
        if virtualize:
            fpvm = FPVM(VanillaArithmetic(), config)
            fpvm.install(m)
            state["fpvm"] = fpvm
        state["m"] = m
        return (), {}

    def run():
        state["m"].run()

    return state, setup, run


def test_fp_loop_native(benchmark):
    """The FP loop with no FPVM installed (masked FP, no traps)."""
    state, setup, run = _fp_loop_state(virtualize=False)
    benchmark.pedantic(run, setup=setup, rounds=20)
    benchmark.extra_info["fp_instrs"] = state["m"].fp_instr_count
    assert state["m"].fp_trap_count == 0


def test_fp_loop_trap(benchmark):
    """Whole-program throughput with every FP event trap-serviced."""
    state, setup, run = _fp_loop_state()
    benchmark.pedantic(run, setup=setup, rounds=20)
    traps = state["m"].fp_trap_count
    benchmark.extra_info["fp_traps"] = traps
    assert traps >= 1000


def test_fp_loop_jit(benchmark):
    """Whole-program throughput with the trap-site JIT on: the hot
    pair fuses into one shadow kernel, intermediates stay unboxed."""
    from repro.fpvm.runtime import FPVMConfig

    state, setup, run = _fp_loop_state(FPVMConfig(jit_threshold=4))
    benchmark.pedantic(run, setup=setup, rounds=20)
    stats = state["fpvm"].stats
    benchmark.extra_info["jit_hits"] = stats.jit_hits
    benchmark.extra_info["patched_site_hit_rate"] = stats.patched_site_hit_rate
    assert stats.jit_hits >= 900
    assert stats.jit_fused_kernels >= 1
    assert stats.boxes_elided >= 400


def _service_step(config=None):
    """Steady-state servicing closure for the hot divsd+addsd pair.

    Runs the FP-loop program once (warming decode/bind caches,
    compiling the JIT sites when enabled), then returns whatever
    closure the dispatch loop would invoke at the head site — the
    predecoded interpreter step (whose FP event takes the full fault →
    decode → bind → emulate round-trip, one event per call) or the
    fused JIT kernel (both events per call, intermediate unboxed).
    Benchmarking that closure directly measures per-event servicing
    cost with no loop scaffolding mixed in.
    """
    from repro.arith import VanillaArithmetic
    from repro.fpvm.runtime import FPVM

    m = load_binary(compile_source(_FP_LOOP_SRC))
    fpvm = FPVM(VanillaArithmetic(), config)
    fpvm.install(m)
    m.run()
    head = next(i.addr for i in m.binary.text if i.mnemonic == "divsd")
    step = m._code[head]
    step()  # reach steady state: destination register holds a box
    return m, fpvm, step


def test_trap_roundtrip(benchmark):
    """One full trap round-trip (fault delivery → decode → bind →
    emulate → box), steady state, caches warm."""
    m, fpvm, step = _service_step()
    benchmark(step)
    benchmark.extra_info["events_per_call"] = 1
    assert fpvm.stats.fp_traps > 1000


def test_jit_roundtrip(benchmark):
    """Both FP events of the pair serviced by the fused shadow kernel —
    no fault delivery, no handler dispatch, one box instead of two."""
    from repro.fpvm.runtime import FPVMConfig

    m, fpvm, step = _service_step(FPVMConfig(jit_threshold=4))
    assert fpvm.stats.jit_fused_kernels >= 1
    benchmark(step)
    benchmark.extra_info["events_per_call"] = 2
    assert fpvm.stats.jit_hits > 1000
    assert fpvm.stats.boxes_elided > 400


#: lorenz-style inner loop, printf-free inside the loop: machine-only
#: execution with no FPVM handler, so the tracing JIT's optimizing
#: emitter applies (FP inlined in the float domain)
_TRACE_LOOP_SRC = """
long main() {
    double x = 1.0;
    double y = 1.0;
    double z = 1.0;
    double h = 0.01;
    double dx = 0.0;
    double dy = 0.0;
    double dz = 0.0;
    for (long i = 0; i < 2000; i = i + 1) {
        dx = 10.0 * (y - x);
        dy = x * (28.0 - z) - y;
        dz = x * y - 2.6666666666666665 * z;
        x = x + h * dx;
        y = y + h * dy;
        z = z + h * dz;
    }
    printf("%.17g %.17g %.17g\\n", x, y, z);
    return 0;
}
"""


def test_trace_predecode_lorenz(benchmark):
    """The lorenz inner loop on the plain predecode interpreter —
    the baseline of the trace-JIT speedup ratio."""
    state = {}

    def setup():
        state["m"] = load_binary(compile_source(_TRACE_LOOP_SRC))
        return (), {}

    benchmark.pedantic(lambda: state["m"].run(), setup=setup, rounds=5)
    benchmark.extra_info["instr_count"] = state["m"].instr_count
    assert state["m"].exit_code == 0


def test_trace_jit_lorenz(benchmark):
    """The same loop with the tracing JIT attached: the hot loop is
    trace-compiled to one Python function after 8 back edges."""
    from repro.fpvm.tracejit import TraceJIT

    state = {}

    def setup():
        m = load_binary(compile_source(_TRACE_LOOP_SRC))
        state["tj"] = TraceJIT(m, 8)
        state["tj"].attach()
        state["m"] = m
        return (), {}

    benchmark.pedantic(lambda: state["m"].run(), setup=setup, rounds=5)
    tj = state["tj"]
    benchmark.extra_info["trace_hits"] = tj.stats.trace_hits
    benchmark.extra_info["trace_deopts"] = tj.stats.trace_deopts
    benchmark.extra_info["trace_side_exits"] = tj.stats.trace_side_exits
    assert state["m"].exit_code == 0
    assert tj.stats.trace_loops_compiled >= 1
    assert any(info.mode == "opt" for info in tj.traces.values())
    assert tj.stats.trace_hits > 1900


def test_gc_scan_speed(benchmark):
    """Vectorized conservative scan over 1 MiB of writable memory."""
    from repro.fpvm.gc import ConservativeGC
    from repro.fpvm.shadow import ShadowStore

    src = "double big[131072]; long main() { big[7] = 0.5; return 0; }"
    m = load_binary(compile_source(src))
    m.run()
    store = ShadowStore()
    codec = NaNBoxCodec()
    h = store.alloc(1.0)
    m.memory.write(m.binary.symbols["big"] + 64, 8, codec.encode(h))
    gc = ConservativeGC(store, codec)

    def scan():
        store.clear_marks()
        stats = gc.collect(m)
        # re-alloc for next round (collect frees nothing: box is live)
        return stats.words_scanned

    words = benchmark(scan)
    benchmark.extra_info["words_scanned"] = words
    assert words > 100_000


def test_decode_cache_hit(benchmark):
    from repro.fpvm.decoder import DecodeCache
    from repro.isa.instructions import Instruction
    from repro.isa.operands import Xmm

    cache = DecodeCache()
    ins = Instruction("addsd", (Xmm(0), Xmm(1)), addr=0x400000)
    cache.lookup(ins)
    benchmark(cache.lookup, ins)
    assert cache.hit_rate > 0.99
