"""Generator internals: caching, input drift, request mechanics, and
generation as a pure function that writes nothing into the program."""

import copy
import gc
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.workloads import generator
from repro.workloads.behaviors import BiasedBehavior, BurstyBehavior, LoopBehavior
from repro.workloads.generator import (
    _drifted_behaviors,
    _zipf_weights,
    clear_caches,
    generate_trace,
    get_program,
    merged_traces,
)
from repro.workloads.drifting import generate_drifting_trace
from repro.workloads.registry import get_spec


class TestZipf:
    def test_normalised(self):
        weights = _zipf_weights(100, 1.0)
        assert weights.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = _zipf_weights(50, 0.8)
        assert all(b <= a for a, b in zip(weights, weights[1:]))

    def test_steeper_exponent_concentrates(self):
        flat = _zipf_weights(100, 0.5)
        steep = _zipf_weights(100, 1.5)
        assert steep[0] > flat[0]


class TestDrift:
    def test_input_zero_never_drifts(self, tiny_spec, tiny_program):
        assert _drifted_behaviors(tiny_program, 0) == {}

    def test_drift_is_deterministic_per_input(self, tiny_program):
        a = _drifted_behaviors(tiny_program, 2)
        b = _drifted_behaviors(tiny_program, 2)
        assert set(a) == set(b)

    def test_drift_differs_across_inputs(self, tiny_program):
        a = _drifted_behaviors(tiny_program, 1)
        b = _drifted_behaviors(tiny_program, 2)
        assert set(a) != set(b) or not a

    def test_drift_preserves_behavior_class(self, tiny_program):
        overrides = _drifted_behaviors(tiny_program, 1)
        assert overrides, "the tiny app should drift some branches"
        for block, replacement in overrides.items():
            original = tiny_program.behaviors[block]
            if isinstance(original, BurstyBehavior):
                assert isinstance(replacement, BurstyBehavior)
                assert replacement.common == original.common
            else:
                assert isinstance(replacement, BiasedBehavior)

    def test_drifting_trace_leaves_the_input_drift_alone(self, tiny_spec, tiny_program):
        # The input's drift draw is shared through Program.derived; a
        # drifting trace rotates branch models on top of it, and none of
        # its rotations may reach a plain trace of the same input.
        drift = dict(_drifted_behaviors(tiny_program, 1))
        fresh = generate_trace(tiny_spec, 1, 6_000, use_cache=False)
        drifting = generate_drifting_trace(tiny_spec, 1, 6_000, n_phases=3, drift_fraction=0.5)
        assert any(drifting.rotated_pcs)
        after = generate_trace(tiny_spec, 1, 6_000, use_cache=False)
        assert _drifted_behaviors(tiny_program, 1) == drift
        assert after.block_ids.tobytes() == fresh.block_ids.tobytes()
        assert after.taken.tobytes() == fresh.taken.tobytes()

    def test_zero_drift_spec(self):
        from dataclasses import replace

        spec = replace(get_spec("kafka"), name="kafka-nodrift", drift=0.0)
        program = get_program(spec)
        assert _drifted_behaviors(program, 3) == {}


class TestMergedTraces:
    def test_returns_one_trace_per_input(self, tiny_spec):
        traces = merged_traces(tiny_spec, (0, 1, 2), n_events_each=5000)
        assert len(traces) == 3
        assert [t.input_id for t in traces] == [0, 1, 2]
        assert all(t.n_events == 5000 for t in traces)


class TestCaches:
    def test_clear_caches_forces_rebuild(self, tiny_spec):
        a = generate_trace(tiny_spec, 0, 5000)
        clear_caches()
        b = generate_trace(tiny_spec, 0, 5000)
        assert a is not b
        assert np.array_equal(a.block_ids, b.block_ids)


class TestPureGeneration:
    """A trace is a function of its arguments: generating one writes no
    behaviour object, and the cache keeps no trace alive."""

    def test_threads_sharing_a_program_get_their_sequential_traces(self):
        """A guard that generation stays pure: with any behaviour state
        shared through the program, two interleaved scalar walks would
        corrupt each other's outcomes."""
        spec = get_spec("mysql")

        def generate(input_id):
            return generate_trace(spec, input_id, 20_000, use_cache=False, kernel="scalar")

        want = {input_id: generate(input_id) for input_id in (1, 2)}
        got = {}
        threads = [
            threading.Thread(target=lambda i=i: got.__setitem__(i, generate(i)))
            for i in (1, 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for input_id in (1, 2):
            assert np.array_equal(got[input_id].block_ids, want[input_id].block_ids)
            assert np.array_equal(got[input_id].taken, want[input_id].taken)

    def test_generation_writes_no_behaviour(self, tiny_spec, tiny_trace):
        program = get_program(tiny_spec)
        cond = tiny_trace.block_ids[tiny_trace.is_conditional]
        hot = int(np.bincount(cond).argmax())
        override = LoopBehavior(trip=3)
        behaviors, loop = copy.deepcopy(program.behaviors), copy.deepcopy(override)
        for kernel in ("scalar", None):
            generate_trace(tiny_spec, 1, 6_000, use_cache=False, kernel=kernel)
            generate_trace(
                tiny_spec, 1, 6_000, kernel=kernel, behavior_overrides={hot: override}
            )
        assert program.behaviors == behaviors
        assert override == loop

    def test_cache_holds_traces_weakly(self, tiny_spec):
        key = (tiny_spec.name, tiny_spec.seed, 3, 5_000)
        trace = generate_trace(tiny_spec, 3, 5_000)
        assert generator._trace_cache[key] is trace
        del trace
        gc.collect()
        assert key not in generator._trace_cache


#: SHA-256 of (block_ids, taken) bytes at 20k events, recorded before
#: both walks drew their phases from one shared plan.
_DIGESTS = {
    ("cassandra", 0): (
        "2970ca7ebf38d58808780c02830124d561503aeb422540275cdf3fa34664471c",
        "7e3625835beb6cdf0bab50e2a43576d71216ab43b213cd00b6db64a71663d721",
    ),
    ("cassandra", 1): (
        "9f6b4e40f9f2a501cd377caf3314cce2eb95dad4ee79adf363af01ce1596d592",
        "a08e2b88b95670c3faf9c983bcb0d1b64ea4e36fe243cfcd369982c000859c69",
    ),
    ("mysql", 0): (
        "d5a82b676ea09b9e117a73f38cf4497fcda0a95b7bc22802ac973145633f38fc",
        "48567d156c19b74c1d301e3875ea12ac97c0b7d0e99ea55669568367d2eab2c8",
    ),
    ("mysql", 1): (
        "dfb93148d9a3d68b718fdadba50b751803d89df370c2e0bdedfcc6a74522d768",
        "c39019204cf7754991ecfd98cfab9a48a72c75357973f8a41537341250385b6e",
    ),
    ("finagle-http", 0): (
        "7610be3d5d6f37934fa0e402872d2d5bb3f2d9302a61a1c9479dc4e936307020",
        "ccae015195bc9ee39bdb9c0e4befe83bddc3039a8f8d191bd33d22185daddcfe",
    ),
    ("finagle-http", 1): (
        "a51a55c7af70744fed75e242102bf0c37f1c645f03c0df1e7b675253ddbd89fd",
        "6e0edeb1feaa016abbf84457665ac9fe6b9f4d19e0d3b8b4763821803ffdfec0",
    ),
}


def _digest(trace):
    return (
        hashlib.sha256(trace.block_ids.tobytes()).hexdigest(),
        hashlib.sha256(trace.taken.tobytes()).hexdigest(),
    )


class TestPinnedTraces:
    """The per-phase draw order is part of every trace's identity."""

    @pytest.mark.parametrize("app,input_id", sorted(_DIGESTS))
    def test_default_walk(self, app, input_id):
        trace = generate_trace(get_spec(app), input_id, 20_000, use_cache=False)
        assert trace.block_ids.dtype == np.int32
        assert _digest(trace) == _DIGESTS[(app, input_id)]

    def test_scalar_walk(self):
        trace = generate_trace(
            get_spec("mysql"), 1, 20_000, use_cache=False, kernel="scalar"
        )
        assert _digest(trace) == _DIGESTS[("mysql", 1)]
