"""Property tests for the VSA frame state (``AbsState``).

``AbsState`` keeps the frame's stack slots in a dict that states share
(``with_regs`` and an unchanged ``join`` reuse the operand's dict).  A
random program of ``stack_set`` / ``stack_clobber`` / ``with_regs`` /
``join`` / ``join(widen=True)`` over a small alphabet of a-locs and
abstract values must agree, state for state, with a plain reference
model: a sorted tuple of (a-loc, value) pairs whose join folds every
slot through ``join_vals``, with a missing slot reading as ``BOTTOM``.
No operation may change what an earlier state returns.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domain import (
    BOTTOM,
    TOP,
    HeapAddr,
    Num,
    RegState,
    StackAddr,
    join_vals,
    widen_vals,
)
from repro.analysis.si import SI
from repro.analysis.vsa import AbsState

FN = 0x400000
ALOCS = [("s", FN, off) for off in (-24, -16, -8, 0)]

# fresh objects per draw: equal-but-not-identical values must behave
# exactly like identical ones
values = st.one_of(
    st.just(BOTTOM),
    st.just(TOP),
    st.builds(lambda c: Num(SI.const(c)), st.sampled_from([0, 1, 8])),
    st.builds(lambda lo, n: Num(SI.range(lo, lo + 8 * n, 8)),
              st.sampled_from([0, 8]), st.integers(1, 3)),
    st.builds(lambda off: StackAddr(FN, SI.const(off)),
              st.sampled_from([-16, -8])),
    st.builds(lambda: StackAddr(FN + 0x40, SI.const(-8))),
    st.builds(lambda: HeapAddr(0x401000, SI.const(0))),
)
reg_states = st.builds(
    lambda base, rax, rsi: base.set("rax", rax).set("rsi", rsi),
    st.sampled_from([RegState.top_state(), RegState.bottom(),
                     RegState.entry(FN)]),
    values, values)

ops = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 63), st.sampled_from(ALOCS),
              values),
    st.tuples(st.just("clobber"), st.integers(0, 63)),
    st.tuples(st.just("regs"), st.integers(0, 63), reg_states),
    st.tuples(st.just("join"), st.integers(0, 63), st.integers(0, 63),
              st.booleans()),
)


# --------------------------------------------------------------------------- #
# reference model: regs tuple + sorted tuple of (a-loc, value) pairs           #
# --------------------------------------------------------------------------- #

def ref_get(stack, key):
    for k, v in stack:
        if k == key:
            return v
    return BOTTOM


def ref_set(stack, key, val):
    items = [(k, v) for k, v in stack if k != key]
    items.append((key, val))
    items.sort(key=lambda kv: repr(kv[0]))
    return tuple(items)


def ref_join(a, b, widen):
    regs_a, stack_a = a
    regs_b, stack_b = b
    fold = widen_vals if widen else join_vals
    regs = tuple(fold(x, y) for x, y in zip(regs_a, regs_b))
    keys = {k for k, _ in stack_a} | {k for k, _ in stack_b}
    items = sorted(((k, join_vals(ref_get(stack_a, k), ref_get(stack_b, k)))
                    for k in keys), key=lambda kv: repr(kv[0]))
    return regs, tuple(items)


def observe(state: AbsState):
    """What a client of the state can see, in the reference's shape."""
    slots = tuple(sorted(state.stack.items(), key=lambda kv: repr(kv[0])))
    return state.regs.regs, slots


def apply(op, pool):
    kind, i = op[0], op[1] % len(pool)
    state, ref = pool[i]
    if kind == "set":
        _, _, key, val = op
        return state.stack_set(key, val), (ref[0], ref_set(ref[1], key, val))
    if kind == "clobber":
        return state.stack_clobber(), (ref[0], ())
    if kind == "regs":
        regs = op[2]
        return state.with_regs(regs), (regs.regs, ref[1])
    other, other_ref = pool[op[2] % len(pool)]
    widen = op[3]
    return state.join(other, widen=widen), ref_join(ref, other_ref, widen)


#: a few starting states, so joins meet slots that differ from the start
seed_states = st.lists(
    st.tuples(reg_states, st.dictionaries(st.sampled_from(ALOCS), values)),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(seed_states, st.lists(ops, min_size=1, max_size=40))
def test_abs_state_matches_reference_model(seeds, program):
    pool = [(AbsState(regs, dict(stack)),
             (regs.regs, tuple(sorted(stack.items(),
                                      key=lambda kv: repr(kv[0])))))
            for regs, stack in seeds]
    snapshots = [observe(state) for state, _ in pool]
    for op in program:
        state, ref = apply(op, pool)
        assert observe(state) == ref
        for key in ALOCS:
            assert state.stack_get(key) == ref_get(ref[1], key)
        if op[0] == "join":
            # the fixpoint's change test (``new != old``) must agree
            # with the reference's
            old, old_ref = pool[op[1] % len(pool)]
            assert (state == old) == (ref == old_ref)
        pool.append((state, ref))
        snapshots.append(observe(state))
    # no later operation changed an earlier state (shared dicts)
    for (state, ref), snap in zip(pool, snapshots):
        assert observe(state) == snap == ref


def test_widening_join_still_joins_stack_slots():
    # only registers widen; a widened slot would read [0, 2^32]
    key = ALOCS[0]
    a = AbsState(RegState.top_state(), {key: Num(SI.const(0))})
    b = AbsState(RegState.top_state(), {key: Num(SI.const(8))})
    assert a.join(b, widen=True).stack_get(key) == Num(SI.range(0, 8, 8))


@settings(max_examples=200, deadline=None)
@given(values, values)
def test_value_fast_paths_match_the_slow_path(a, b):
    # the identity shortcuts in join_vals / widen_vals and RegState
    # return what the general rule returns for an equal fresh copy
    for fold in (join_vals, widen_vals):
        assert fold(a, a) == fold(a, _copy(a))
        assert fold(a, b) == fold(_copy(a), _copy(b))
    ra = RegState.top_state().set("rax", a)
    rb = RegState.top_state().set("rax", b)
    assert ra.join(ra) is ra and ra.widen(ra) is ra
    assert ra.join(rb).regs == tuple(join_vals(x, y)
                                     for x, y in zip(ra.regs, rb.regs))
    assert ra.widen(rb).regs == tuple(widen_vals(x, y)
                                      for x, y in zip(ra.regs, rb.regs))


def _copy(v):
    """An equal value that shares no object with ``v``."""
    if isinstance(v, (Num, StackAddr, HeapAddr)):
        return replace(v, si=replace(v.si))
    return v
