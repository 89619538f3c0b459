"""Property tests for the interval-range frame state (``ranges.FPState``).

``FPState`` keeps the frame's stack slots in a dict that states share
(``xmm_set`` and a join of one dict with itself reuse it).  A random
program of ``stack_set`` / ``clobber_stack`` / ``xmm_set`` / ``join`` /
``join(widen=True)`` over a small alphabet of a-locs and abstract
values must agree, state for state, with a plain reference model: a
sorted tuple of (a-loc, value) pairs where a missing slot reads as
``FTOP``, storing ``FTOP`` erases the slot, and a join keeps only the
slots present on both sides whose joined value is not ``FTOP``.  No
operation may change what an earlier state returns.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ranges import FTOP, FPState, Rng, _join_fp

FN = 0x400000
ALOCS = [("s", FN, off) for off in (-24, -16, -8, 0)]
NXMM = 4

# fresh objects per draw: equal-but-not-identical values must behave
# exactly like identical ones
rngs = st.builds(Rng, st.sampled_from([-1.0, 0.0, 2.0]),
                 st.sampled_from([2.0, 3.5]),
                 st.sampled_from([0.0, 2.0 ** -53, 1e-9]), st.booleans())
values = st.one_of(st.just(FTOP), rngs)
xmms = st.tuples(*[values] * NXMM)

ops = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 63), st.sampled_from(ALOCS),
              values),
    st.tuples(st.just("clobber"), st.integers(0, 63)),
    st.tuples(st.just("xmm"), st.integers(0, 63),
              st.integers(0, NXMM - 1), values),
    st.tuples(st.just("join"), st.integers(0, 63), st.integers(0, 63),
              st.booleans()),
)


# --------------------------------------------------------------------------- #
# reference model: xmm tuple + sorted tuple of (a-loc, value) pairs            #
# --------------------------------------------------------------------------- #

def ref_get(stack, key):
    for k, v in stack:
        if k == key:
            return v
    return FTOP


def ref_set(stack, key, val):
    items = [(k, v) for k, v in stack if k != key]
    if val is not FTOP:
        items.append((key, val))
    items.sort(key=lambda kv: repr(kv[0]))
    return tuple(items)


def ref_join(a, b, widen):
    xmm_a, stack_a = a
    xmm_b, stack_b = b
    xmm = tuple(_join_fp(x, y, widen) for x, y in zip(xmm_a, xmm_b))
    keys = {k for k, _ in stack_a} & {k for k, _ in stack_b}
    items = []
    for k in keys:
        v = _join_fp(ref_get(stack_a, k), ref_get(stack_b, k), widen)
        if v is not FTOP:
            items.append((k, v))
    items.sort(key=lambda kv: repr(kv[0]))
    return xmm, tuple(items)


def observe(state: FPState):
    """What a client of the state can see, in the reference's shape."""
    slots = tuple(sorted(state.stack.items(), key=lambda kv: repr(kv[0])))
    return state.xmm, slots


def apply(op, pool):
    kind, i = op[0], op[1] % len(pool)
    state, ref = pool[i]
    if kind == "set":
        _, _, key, val = op
        return state.stack_set(key, val), (ref[0], ref_set(ref[1], key, val))
    if kind == "clobber":
        return state.clobber_stack(), (ref[0], ())
    if kind == "xmm":
        _, _, reg, val = op
        xmm = list(ref[0])
        xmm[reg] = val
        return state.xmm_set(reg, val), (tuple(xmm), ref[1])
    other, other_ref = pool[op[2] % len(pool)]
    widen = op[3]
    return state.join(other, widen=widen), ref_join(ref, other_ref, widen)


#: a few starting states, so joins meet slots that differ from the start
seed_states = st.lists(
    st.tuples(xmms, st.dictionaries(st.sampled_from(ALOCS), rngs)),
    min_size=2, max_size=3)


@settings(max_examples=300, deadline=None)
@given(seed_states, st.lists(ops, min_size=1, max_size=40))
def test_fp_state_matches_reference_model(seeds, program):
    pool = [(FPState(xmm, dict(stack)),
             (xmm, tuple(sorted(stack.items(), key=lambda kv: repr(kv[0])))))
            for xmm, stack in seeds]
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


def test_join_folds_common_slots():
    key = ALOCS[0]
    a = FPState((FTOP,) * NXMM, {key: Rng(0.0, 1.0, 0.0)})
    b = FPState((FTOP,) * NXMM, {key: Rng(0.0, 2.0, 0.0)})
    assert a.join(b).stack == {key: Rng(0.0, 2.0, 0.0)}
    # stack slots widen with the registers
    assert a.join(b, widen=True).stack == {key: Rng(0.0, math.inf, 0.0)}
    for widen in (False, True):
        assert a.join(a, widen=widen).stack == {key: Rng(0.0, 1.0, 0.0)}
