"""Native kernels: JIT backend, column builders, scalar fallback, bench rows.

Bit-identity of the default tier (with and without the compiled
library) is enforced by tests/test_vector_equivalence.py; this suite
covers the machinery around it — compile/cache/load, the one kernel
registry, each compiled column builder and walk against the scalar
definition it replaces (the generator's outcome pass, the hint buffer's
LRU walk, the loop table's trip limit, the FDIP merge and the formula
search's root split among them),
the one entrance to the fast
path (with no C toolchain every call runs its scalar definition end to
end, after a single warning that names the entry point's caller,
byte-identical), the one cache of
trace-derived data and its weak hold on traces, kernel-name
single-sourcing in the CLI and ``REPRO_KERNEL``, the benchmark row's
provenance, and the ratchets.
"""

import copy
import dataclasses
import gc
import math
import os
import random
import warnings
import weakref
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.analysis import kernel_bench
from repro.bpu import native, runner, vector
from repro.bpu.base import FoldedHistory
from repro.bpu.corrector import StatisticalCorrector
from repro.bpu.loop import _TRIP_LIMIT
from repro.bpu.mtage import MTageScPredictor
from repro.bpu.perceptron import PerceptronPredictor
from repro.bpu.runner import (
    VALID_KERNELS,
    kernel_for,
    replay_tier,
    resolve_kernel,
    simulate,
)
from repro.bpu.simple import GSharePredictor
from repro.bpu.tage import TagePredictor
from repro.bpu.tage_sc_l import TageScLPredictor
from repro.core import training
from repro.core.formulas import ROMBF_OPS, WHISPER_OPS, FormulaTree, all_formula_table
from repro.core.hint_buffer import HintBuffer
from repro.core.search import FormulaSearch, decode_candidates
from repro.profiling.trace import Trace
from repro.sim import simulate_timing, simulator
from repro.sim.caches import BranchTargetBuffer, SetAssociativeCache
from repro.sim.config import SimConfig
from repro.sim.simulator import _get_inputs, _timing_scalar, _timing_sparse
from repro.workloads import generator
from repro.workloads.behaviors import (
    BiasedBehavior,
    BurstyBehavior,
    FormulaBehavior,
    LocalBehavior,
    LoopBehavior,
    PatternBehavior,
    SparseHistoryBehavior,
)
from repro.workloads.generator import _HISTORY_MASK, _Models, _Unpackable, generate_trace
from repro.workloads.registry import get_spec

from .test_search import count_rows

N_EVENTS = 8_000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_spec("cassandra"), 1, N_EVENTS)


class TestBackend:
    def test_backend_compiles_and_loads(self):
        assert native.load() is not None
        assert native.load_error() is None
        assert replay_tier() == "native"

    def test_kernel_registry_walks_mro(self):
        # MTageScPredictor subclasses TageScLPredictor: same kernel.
        assert kernel_for(MTageScPredictor()) is kernel_for(TageScLPredictor(10))
        assert kernel_for(TagePredictor(10)) is native._native_tage_family
        assert kernel_for(PerceptronPredictor()) is native._native_perceptron

    def test_simple_predictors_keep_python_batch_kernels(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_for(GSharePredictor()) is vector._replay_gshare


class TestFallback:
    def test_absent_backend_falls_back_to_scalar_replay_byte_identical(
        self, trace, no_native
    ):
        with pytest.warns(RuntimeWarning, match="falling back to the scalar replay"):
            assert kernel_for(TageScLPredictor(16)) is None
        fallback = simulate(trace, TageScLPredictor(16))
        scalar = simulate(trace, TageScLPredictor(16), kernel="scalar")
        assert fallback.correct.tobytes() == scalar.correct.tobytes()
        assert fallback.mpki == scalar.mpki

    def test_fallback_warns_exactly_once_per_process(self, trace, no_native):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate(trace, TagePredictor(16))
            simulate(trace, TagePredictor(16))
            simulate(trace, PerceptronPredictor())
        ours = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(ours) == 1

    @pytest.mark.parametrize(
        "entry",
        ["simulate", "simulate_timing", "generate_trace", "collect_training_data", "search"],
    )
    def test_warning_names_the_caller(self, entry, tiny_spec, tiny_trace, no_native):
        short = tiny_trace.slice(0, 2_000)
        rows = np.ones((1, 256), dtype=np.int64)
        calls = {
            "simulate": lambda: simulate(short, GSharePredictor()),
            "simulate_timing": lambda: simulate_timing(short),
            "generate_trace": lambda: generate_trace(tiny_spec, 1, 2_000, use_cache=False),
            "collect_training_data": lambda: training.collect_training_data(
                [short], np.unique(short.pcs[short.is_conditional])[:4]
            ),
            "search": lambda: FormulaSearch(8, ROMBF_OPS, False, fraction=1.0).search(
                rows, rows
            ),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[entry]()
        (warning,) = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert warning.filename == __file__

    def test_replay_tier_names_the_fallback(self, no_native, monkeypatch):
        with pytest.warns(RuntimeWarning):
            tier = replay_tier()
        assert tier.startswith("native (fallback: no C compiler")
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert replay_tier() == "scalar"


@pytest.mark.filterwarnings("ignore:native replay kernels unavailable:RuntimeWarning")
class TestOneEntrance:
    """Without the library every call runs its scalar definition end to
    end: no batched hint pre-pass, no batch kernel, no vector table
    collection, and results equal to ``kernel="scalar"`` bit for bit."""

    def test_no_half_batched_replay(self, tiny_trace, tiny_whisper, no_native):
        optimizer, _, placement, _ = tiny_whisper
        obs.configure(enabled=True)
        try:
            obs.drain()
            got = simulate(
                tiny_trace, TageScLPredictor(16), runtime=optimizer.build_runtime(placement)
            )
            names = {event["name"] for event in obs.drain() if event["type"] == "span"}
        finally:
            obs.configure_from_env()
        assert "replay" in names
        assert not names & {"replay.hint_pass", "replay.kernel"}
        want = simulate(
            tiny_trace,
            TageScLPredictor(16),
            runtime=optimizer.build_runtime(placement),
            kernel="scalar",
        )
        assert got.hinted.any()
        assert got.correct.tobytes() == want.correct.tobytes()
        assert got.hinted.tobytes() == want.hinted.tobytes()

    def test_every_call_equals_the_scalar_tier(
        self, tiny_spec, tiny_whisper, no_native, monkeypatch
    ):
        placement = tiny_whisper[2]
        scalar_trace = generate_trace(tiny_spec, 1, 6_000, use_cache=False, kernel="scalar")
        trace = generate_trace(tiny_spec, 1, 6_000, use_cache=False)
        assert trace.block_ids.tobytes() == scalar_trace.block_ids.tobytes()
        assert trace.taken.tobytes() == scalar_trace.taken.tobytes()

        prediction = simulate(trace, TageScLPredictor(16))
        want = simulate(trace, TageScLPredictor(16), kernel="scalar")
        assert prediction.correct.tobytes() == want.correct.tobytes()
        got, ref = (
            simulate_timing(trace, prediction, placement=placement, kernel=kernel)
            for kernel in (None, "scalar")
        )
        assert dataclasses.asdict(got) == dataclasses.asdict(ref)

        walks = []
        real = training._collect_scalar
        monkeypatch.setattr(
            training, "_collect_scalar", lambda *args: walks.append(1) or real(*args)
        )
        candidates = np.unique(trace.pcs[trace.is_conditional])[:16]
        tables = training.collect_training_data([trace], candidates)
        assert walks == [1]
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        ref_tables = training.collect_training_data([trace], candidates)
        assert tables.taken.tobytes() == ref_tables.taken.tobytes()
        assert tables.nottaken.tobytes() == ref_tables.nottaken.tobytes()
        # Nothing here asked for a batch.
        assert id(trace) not in runner._BATCH_CACHE


class TestOneCache:
    """The replay batch is the one cache of trace-derived data, timing
    inputs included, and it never keeps its trace alive."""

    def test_dropped_trace_leaves_no_batch(self):
        trace = generate_trace(get_spec("cassandra"), 1, N_EVENTS, use_cache=False)
        prediction = simulate(trace, TageScLPredictor(16))
        simulate_timing(trace, prediction)
        key = id(trace)
        batch = weakref.ref(runner._get_batch(trace))
        assert batch().trace is trace
        assert any(k[0] == "timing" for k in batch().derived if isinstance(k, tuple))
        del trace, prediction  # the prediction links its trace
        gc.collect()
        assert key not in runner._BATCH_CACHE
        assert batch() is None
        assert all(ref() is not None for ref, _ in runner._BATCH_CACHE.values())

    def test_timing_inputs_live_in_the_batch(self, trace, monkeypatch):
        seen = []
        real = simulator._timing_sparse

        def spy(trace, mispredicted, inputs, *rest):
            seen.append(inputs)
            return real(trace, mispredicted, inputs, *rest)

        monkeypatch.setattr(simulator, "_timing_sparse", spy)
        config = SimConfig()
        prediction = simulate(trace, TagePredictor(16))
        simulate_timing(trace, prediction, config=config)
        simulate_timing(trace, prediction, config=config, fdip=False)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert runner._get_batch(trace).derived[("timing", None, config)] is seen[0]
        assert _get_inputs(trace, None, config) is seen[0]
        assert not hasattr(seen[0], "trace")

    def test_callback_drops_only_its_own_entry(self, tiny_program):
        first, second = (
            Trace(program=tiny_program, block_ids=np.zeros(4, np.int32), taken=np.ones(4, bool))
            for _ in range(2)
        )
        runner._get_batch(first)
        runner._get_batch(second)
        gone, kept = id(first), id(second)
        del first
        gc.collect()
        assert gone not in runner._BATCH_CACHE
        assert runner._BATCH_CACHE[kept][0]() is second


class TestLruWalk:
    """The compiled LRU walk against the timing model's Python oracles,
    from empty sets, on small geometries: direct-mapped and 2-way, set
    counts that are not powers of two, and streams that all map to one
    set."""

    @given(
        keys=st.lists(st.integers(0, 60), max_size=250),
        n_sets=st.sampled_from((1, 2, 3, 5, 6, 8)),
        assoc=st.sampled_from((1, 2)),
        one_set=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_set_associative_cache(self, keys, n_sets, assoc, one_set):
        if one_set:
            keys = [key * n_sets for key in keys]
        # One KB lines make the cache hold exactly n_sets * assoc lines.
        cache = SetAssociativeCache(n_sets * assoc, assoc, line_bytes=1024)
        assert cache.n_sets == n_sets
        want = [cache.access(key) for key in keys]
        hit = native.lru_walk(np.array(keys, dtype=np.int64), n_sets, assoc)
        assert hit.tolist() == want
        assert len(keys) - int(hit.sum()) == cache.misses

    @given(
        pcs=st.lists(st.integers(0, 400), max_size=250),
        n_sets=st.sampled_from((1, 3, 4, 7)),
        assoc=st.sampled_from((1, 2)),
        one_set=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_branch_target_buffer(self, pcs, n_sets, assoc, one_set):
        if one_set:
            pcs = [(pc * n_sets) << 2 | pc & 3 for pc in pcs]
        btb = BranchTargetBuffer(n_sets * assoc, assoc)
        assert btb.n_sets == n_sets
        want = [btb.access(pc) for pc in pcs]
        hit = native.lru_walk(np.array(pcs, dtype=np.int64) >> 2, n_sets, assoc)
        assert hit.tolist() == want
        assert len(pcs) - int(hit.sum()) == btb.misses

    @pytest.mark.parametrize("n_sets, assoc", [(0, 2), (2, 0)])
    def test_geometry_without_ways_is_refused(self, n_sets, assoc):
        # Either would divide by zero or overrun the ways in C.
        with pytest.raises(ValueError):
            native.lru_walk(np.arange(8, dtype=np.int64), n_sets, assoc)


#: Short branch streams: (pc, taken) pairs.  Histories below reach past
#: the stream's end, so the zero bits before it are covered too.
STREAMS = st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()), max_size=160)
#: Mostly shorter than a stream, so outcomes also leave the window.
HISTORY_LENGTHS = st.one_of(st.integers(1, 48), st.integers(49, 2100))
#: A fixed 300-branch stream for the explicit examples.
_RNG = np.random.default_rng(3)
LONG_STREAM = list(
    zip(_RNG.integers(0, 1 << 20, 300).tolist(), (_RNG.random(300) < 0.6).tolist())
)


def _columns(stream):
    pcs = np.array([pc for pc, _ in stream], dtype=np.int64)
    taken = np.array([tk for _, tk in stream], dtype=bool)
    return pcs, taken


class TestColumnBuilders:
    """Each compiled column builder against the scalar definition it
    replaces, before every branch and after the stream."""

    @given(
        histories=st.lists(HISTORY_LENGTHS, min_size=1, max_size=16).map(sorted),
        log_entries=st.integers(4, 15),
        tag_bits=st.integers(1, 16),
        stream=STREAMS,
    )
    # MTAGE-SC's geometry: 16 tables, histories up to 2048, 15-bit tags.
    @example(
        histories=MTageScPredictor().tage.histories,
        log_entries=15,
        tag_bits=15,
        stream=LONG_STREAM,
    )
    @settings(max_examples=40, deadline=None)
    def test_tage_columns_match_compute(self, histories, log_entries, tag_bits, stream):
        tage = TagePredictor(storage_kb=1, tag_bits=tag_bits)
        tage.n_tables, tage.histories, tage.log_entries = (
            len(histories), histories, log_entries,
        )
        tage._build_tables()
        pcs, taken = _columns(stream)
        idx_mat, tag_mat, finals = native.tage_columns(
            pcs, taken, histories, log_entries, tag_bits
        )
        assert idx_mat.shape == tag_mat.shape == (len(histories), len(stream))
        for t, (pc, tk) in enumerate(stream):
            indices, tags, _, _ = tage._compute(pc)
            assert idx_mat[:, t].tolist() == indices, t
            assert tag_mat[:, t].tolist() == tags, t
            tage.update(pc, tk)
        assert finals.tolist() == [
            [tage._fold_idx[i].comp, tage._fold_tag0[i].comp, tage._fold_tag1[i].comp]
            for i in range(len(histories))
        ]

    @given(
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        log_entries=st.integers(1, 20),
        stream=STREAMS,
    )
    @example(lengths=[0, 4, 10, 16, 32], log_entries=10, stream=LONG_STREAM)
    # With 16 index bits, history bit 31 reaches the index.
    @example(lengths=[0, 31, 32, 40], log_entries=16, stream=LONG_STREAM)
    @settings(max_examples=40, deadline=None)
    def test_sc_columns_match_indices(self, lengths, log_entries, stream):
        sc = StatisticalCorrector(log_entries=log_entries, history_lengths=tuple(lengths))
        pcs, taken = _columns(stream)
        mat, ghr = native.sc_columns(pcs, taken, lengths, log_entries)
        assert mat.shape == (len(lengths), len(stream))
        for t, (pc, tk) in enumerate(stream):
            assert mat[:, t].tolist() == sc._indices(pc), t
            sc.update(pc, tk)
        assert ghr == sc._ghr

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 300), st.integers(1, 20)), min_size=1, max_size=6
        ),
        stream=STREAMS,
    )
    @example(pairs=[(0, 8), (1, 1), (7, 1), (300, 1), (9, 8), (17, 20)], stream=LONG_STREAM)
    @settings(max_examples=40, deadline=None)
    def test_fold_columns_match_folded_history(self, pairs, stream):
        _, taken = _columns(stream)
        cols, finals = native.fold_columns(taken, pairs)
        assert cols.shape == (len(pairs), len(stream))
        bits = [int(tk) for tk in taken]
        for row, (length, width) in enumerate(pairs):
            if length == 0:  # an empty window
                assert not cols[row].any() and finals[row] == 0
                continue
            reg = FoldedHistory(length, width)
            for t, bit in enumerate(bits):
                assert cols[row, t] == reg.comp, (length, width, t)
                reg.update(bit, bits[t - length] if t >= length else 0)
            assert finals[row] == reg.comp

    def test_out_of_range_parameters_are_refused(self):
        taken = np.ones(4, dtype=bool)
        pcs = np.arange(4, dtype=np.int64)
        for pairs in ([(-1, 8)], [(8, 0)], [(8, 63)]):
            with pytest.raises(ValueError):
                native.fold_columns(taken, pairs)
        with pytest.raises(ValueError):
            native.tage_columns(pcs, taken, [0, 8], 10, 10)
        with pytest.raises(ValueError):
            native.tage_columns(pcs, taken, [4, 8], 2, 10)
        with pytest.raises(ValueError):
            native.sc_columns(pcs, taken, [-1], 10)
        with pytest.raises(ValueError):
            native.sc_columns(pcs, taken[:3], [4], 10)


NOISE = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True))


@st.composite
def behaviors(draw):
    """One behaviour of the six kinds the compiled outcome pass resolves."""
    kind = draw(st.sampled_from(("biased", "bursty", "sparse", "pattern", "loop", "local")))
    if kind == "biased":
        return BiasedBehavior(p=draw(st.floats(0.0, 1.0)))
    if kind == "bursty":
        return BurstyBehavior(
            common=draw(st.booleans()),
            excursion_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
            # 1 is the p_stop == 1 branch: every burst is one event long.
            mean_burst=draw(st.one_of(st.just(1.0), st.floats(1.0, 40.0))),
        )
    if kind == "sparse":
        # Positions reach before the first event, and past the generator's
        # 1024-bit history.
        positions = draw(st.lists(st.integers(0, 1100), min_size=1, max_size=8, unique=True))
        return SparseHistoryBehavior(
            positions=tuple(positions),
            table=draw(st.integers(0, (1 << (1 << len(positions))) - 1)),
            noise=draw(NOISE),
        )
    if kind == "pattern":
        period = draw(st.integers(1, 64))
        return PatternBehavior(pattern=draw(st.integers(0, (1 << period) - 1)), period=period)
    if kind == "loop":
        return LoopBehavior(trip=draw(st.integers(2, 12)))
    k = draw(st.integers(1, 16))
    table = random.Random(draw(st.integers(0, 2**32))).getrandbits(1 << k)
    return LocalBehavior(k=k, table=table, noise=draw(NOISE))


def _thresholds(beh):
    """The draws at which ``beh`` changes its mind."""
    return [v for v in (getattr(beh, name, None) for name in ("p", "excursion_rate", "noise"))
            if v is not None]


@st.composite
def outcome_streams(draw):
    """``(models, blocks, events, draws)``: behaviour objects (some shared
    by two blocks), the block of each event and each event's draw, with
    draws placed on and next to the behaviours' thresholds."""
    models = draw(st.lists(behaviors(), min_size=1, max_size=6))
    blocks = draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=8))
    events = draw(st.lists(st.integers(0, len(blocks) - 1), max_size=300))
    near = sorted({
        x
        for beh in models
        for t in _thresholds(beh)
        for x in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0))
        if 0.0 <= x < 1.0
    })
    draw_value = st.floats(0.0, 1.0, exclude_max=True)
    if near:
        draw_value = st.one_of(draw_value, st.sampled_from(near))
    draws = draw(st.lists(draw_value, min_size=len(events), max_size=len(events)))
    return models, blocks, events, draws


def _walk_outcomes(behaviors_of_blocks, events, draws):
    """``_walk_scalar``'s outcome loop: one ``outcome`` call per event."""
    history, out = 0, []
    for block, u in zip(events, draws):
        outcome = behaviors_of_blocks[block].outcome(history, u)
        history = ((history << 1) | int(outcome)) & _HISTORY_MASK
        out.append(bool(outcome))
    return out


_STATE = ("_count", "_pos", "_remaining", "_local")

#: A 1,500-event stream over sparse positions on both sides of the
#: 1024-bit history edge, with a loop and a local branch driving it.
_EDGE_MODELS = [
    SparseHistoryBehavior(positions=(0, 1023, 1024, 1050), table=0xB6E9, noise=0.0),
    LoopBehavior(trip=3),
    LocalBehavior(k=5, table=0x9E3779B9, noise=0.1),
]
_EDGE_EVENTS = [i % 3 for i in range(1500)]
_EDGE_DRAWS = np.random.default_rng(5).random(1500).tolist()


class TestOutcomePass:
    """The compiled outcome pass, through the generator's packing,
    against each behaviour's ``outcome`` and its post-run state."""

    @given(stream=outcome_streams())
    @example(stream=(_EDGE_MODELS, [0, 1, 2], _EDGE_EVENTS, _EDGE_DRAWS))
    @settings(max_examples=200, deadline=None)
    def test_matches_outcome_calls(self, stream):
        models, blocks, events, draws = stream
        before = copy.deepcopy(models)
        oracle = copy.deepcopy(models)
        want = _walk_outcomes([oracle[m] for m in blocks], events, draws)

        packed = _Models([models[m] for m in blocks], range(len(blocks)))
        events, draws = np.array(events, dtype=np.int64), np.array(draws)
        got = packed.outcomes(events, draws)
        assert got.tolist() == want
        assert models == before, "the pass wrote a behaviour object"
        # Post-run state, from the column the compiled pass fills in place.
        state = packed.state.copy()
        native.gen_outcomes(
            packed.block_slot[events], draws, packed.kinds, packed.iparam,
            packed.fparam, packed.positions, packed.bits, state,
        )
        for block, m in enumerate(blocks):
            post = [getattr(oracle[m], name) for name in _STATE if hasattr(oracle[m], name)]
            assert state[packed.block_slot[block]] == (post or [0])[0]

    def test_returns_post_run_state(self):
        loop = LoopBehavior(trip=4)
        packed = _Models([loop], [0])
        state = packed.state.copy()
        out = native.gen_outcomes(
            np.zeros(6, dtype=np.int64), np.zeros(6), packed.kinds, packed.iparam,
            packed.fparam, packed.positions, packed.bits, state,
        )
        assert out.tolist() == [True, True, True, False, True, True]
        assert state.tolist() == [2] and loop._count == 0

    def test_other_kinds_take_the_scalar_walk(self, tiny_spec, tiny_program, monkeypatch):
        block = int(np.flatnonzero(tiny_program.is_conditional)[0])
        overrides = {block: FormulaBehavior(
            length=12, formula=FormulaTree(ops=(0, 1, 2, 3, 0, 1, 2)), noise=0.1
        )}
        want = generate_trace(
            tiny_spec, 1, 4000, kernel="scalar", behavior_overrides=overrides
        )
        monkeypatch.setattr(generator, "_walk_vector", None)  # must not run
        got = generate_trace(tiny_spec, 1, 4000, behavior_overrides=overrides)
        assert np.array_equal(got.block_ids, want.block_ids)
        assert np.array_equal(got.taken, want.taken)

    @pytest.mark.parametrize("beh", [
        BurstyBehavior(common=True, excursion_rate=0.1, mean_burst=1e17),
        PatternBehavior(pattern=5, period=3, _pos=3),
        LocalBehavior(k=4, table=7, _local=16),
    ])
    def test_out_of_range_models_are_refused(self, beh):
        with pytest.raises(_Unpackable):
            _Models([beh], [0])


#: Hint loads per block (branch PCs from a small pool, so reloads are
#: common), each block's branch PC and whether it is conditional.
HINT_PROGRAMS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 7), max_size=3),
        st.integers(0, 9),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


class TestHintWalk:
    """The compiled hint-buffer walk against :class:`HintBuffer` driven
    the way ``WhisperRuntime.on_block`` and ``predict`` drive it."""

    @given(
        program=HINT_PROGRAMS,
        stream=st.lists(st.integers(0, 7), max_size=200),
        capacity=st.sampled_from((1, 2, 3, 32, None)),
    )
    # Block 1 reloads PC 5: the entry block 0 parked (load 0) stays.
    @example(
        program=[([5], 9, False), ([5], 5, True)], stream=[0, 1, 1], capacity=32
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_hint_buffer(self, program, stream, capacity):
        stream = [block % len(program) for block in stream]
        load_pcs = [pc for loads, _, _ in program for pc in loads]
        load_first = np.cumsum([0] + [len(loads) for loads, _, _ in program])
        buffer = HintBuffer(capacity)
        want = []
        for block in stream:
            loads, pc, conditional = program[block]
            for offset, load_pc in enumerate(loads):
                buffer.load(load_pc, int(load_first[block]) + offset)
            if conditional:
                entry = buffer.lookup(pc)
                want.append(-1 if entry is None else entry)

        hit, counts, final_pcs, final_loads = native.hint_walk(
            np.array(stream, dtype=np.int32),
            np.array([pc for _, pc, _ in program], dtype=np.int64),
            np.array([cond for _, _, cond in program], dtype=bool),
            load_first,
            load_pcs,
            capacity,
        )
        assert hit.tolist() == want
        assert counts == (buffer.loads, buffer.hits, buffer.evictions)
        assert list(zip(final_pcs.tolist(), final_loads.tolist())) == list(
            buffer._entries.items()
        )


class TestLoopTable:
    """The compiled loop predictor's table: it forgets a branch taken
    more than ``_TRIP_LIMIT`` times in a row, as ``LoopPredictor.update``
    does, and the kernel refuses what its walk cannot start from."""

    def test_entry_past_the_limit_is_dropped(self, tiny_program):
        first, second, third = np.flatnonzero(tiny_program.is_conditional)[:3].tolist()
        # Never taken at first, so the first branch enters the table on a
        # TAGE miss; then taken past the limit, the others now and then.
        blocks, taken = [first, second, third] * 40, [False, True, False] * 40
        for run in range(1, _TRIP_LIMIT + 5):
            blocks.append(first)
            taken.append(True)
            if run == _TRIP_LIMIT:
                at_limit = len(blocks)
            if run % 500 == 0:
                blocks += [second, third]
                taken += [True, False]
        trace = Trace(
            program=tiny_program, block_ids=np.array(blocks, np.int32), taken=np.array(taken)
        )
        pc = int(tiny_program.branch_pcs[first])

        def replay(events, kernel):
            predictor = TageScLPredictor(16)
            correct = simulate(events, predictor, kernel=kernel).correct
            table = [(key, e.trip, e.count, e.conf) for key, e in predictor.loop._table.items()]
            return correct.tolist(), table

        before, after = trace.slice(0, at_limit), trace
        scalar_before, scalar_after = replay(before, "scalar"), replay(after, "scalar")
        assert replay(before, None) == scalar_before
        assert replay(after, None) == scalar_after
        assert (pc, 0, _TRIP_LIMIT, 0) in scalar_before[1]
        assert pc not in [row[0] for row in scalar_after[1]]

    @pytest.mark.parametrize("stale", [True, False])
    def test_kernel_refuses_what_the_walk_cannot_start_from(self, tiny_program, stale):
        block = int(np.flatnonzero(tiny_program.is_conditional)[-1])
        predictor = TageScLPredictor(16)
        if stale:  # an entry left from an earlier replay
            predictor.loop.update(0x40, taken=False, tage_mispredicted=True)
        else:  # a negative block id still indexes the program's columns
            block -= tiny_program.n_blocks
        trace = Trace(program=tiny_program, block_ids=[block], taken=[True])
        no = np.zeros(1, dtype=bool)
        match = "empty loop table" if stale else "outside the program"
        with pytest.raises(ValueError, match=match):
            native._native_tage_family(predictor, runner._get_batch(trace), no, no, True)


class TestFdipMerge:
    """The sparse timing kernel's compiled FDIP merge against
    ``_timing_scalar``, with FDIP on and off, over random squash
    streams and small caches that miss often."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from((0.0, 0.01, 0.2, 1.0)),
        l1i_kb=st.sampled_from((1, 2, 8)),
        fdip=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_timing_scalar(self, tiny_trace, seed, rate, l1i_kb, fdip):
        trace = Trace(
            program=tiny_trace.program,
            block_ids=tiny_trace.block_ids[:3000],
            taken=tiny_trace.taken[:3000],
        )
        config = SimConfig(l1i_kb=l1i_kb, l1i_assoc=2, l2_kb=16, l2_assoc=4)
        mispredicted = np.random.default_rng(seed).random(trace.n_events) < rate
        mispredicted &= trace.is_conditional
        inputs = _get_inputs(trace, None, config)
        sparse = _timing_sparse(trace, mispredicted, inputs, config, fdip, False)
        scalar = _timing_scalar(trace, mispredicted, inputs, config, fdip, False)
        assert sparse == scalar
        assert sparse[1] > 0  # the small L1i missed


@lru_cache(maxsize=None)
def exhaustive_search(ops, with_invert, include_bias):
    """A search over every 8-input encoding: the compiled root split's
    scope."""
    return FormulaSearch(
        8, ops, with_invert, fraction=1.0, include_bias=include_bias, seed=11
    )


def numpy_root_split(search, t, nt):
    """``search``'s results on its NumPy root split (the scalar tier)."""
    with mock.patch.dict(os.environ, {"REPRO_KERNEL": "scalar"}):
        return search.search(t, nt), search.best_formulas(t, nt)


SPACES = [(WHISPER_OPS, True), (ROMBF_OPS, False)]


class TestRootSplitKernel:
    """The compiled root split (``split_search``, ``split_winners``)
    against the NumPy root split it compiles, over the whole op space of
    Whisper's and ROMBF's 8-input formulas."""

    @given(
        space=st.sampled_from(SPACES),
        include_bias=st.booleans(),
        rows=st.lists(count_rows(8, 256), min_size=1, max_size=6),
    )
    # nt > t on every key: every formula's dot product is positive, so a
    # padded cell that is not a real formula would read lower.
    @example(
        space=SPACES[1], include_bias=False, rows=[(np.zeros(256, np.int64), np.arange(1, 257))]
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_numpy_root_split(self, space, include_bias, rows):
        search = exhaustive_search(*space, include_bias)
        t = np.stack([row[0] for row in rows])
        nt = np.stack([row[1] for row in rows])
        (want, want_bias), want_formulas = numpy_root_split(search, t, nt)
        got, got_bias = search.search(t, nt)
        assert search._kernel is not None  # the compiled pass ran
        assert got.tolist() == want.tolist()
        assert got_bias.tolist() == want_bias.tolist()
        assert search.best_formulas(t, nt) == want_formulas

    @pytest.mark.parametrize("space", SPACES)
    def test_tied_row_decodes_to_the_first_candidate(self, space):
        # t == nt on every key: every encoding makes the same errors.
        t = np.zeros((2, 256), dtype=np.int64)
        t[0, [3, 77, 200]] = [5, 1, 9]
        t[1] = np.arange(256)
        search = exhaustive_search(*space, False)
        first = decode_candidates(search.candidates[:1], 8, *space)[0]
        assert search.best_formulas(t, t.copy()) == [first, first]
        assert numpy_root_split(search, t, t.copy())[1] == [first, first]

    @pytest.mark.parametrize("space", SPACES)
    def test_exact_at_the_count_bound(self, space):
        # Every key at the largest |nt - t| the kernel takes: each
        # formula's dot product is the bound times its true histories.
        ops, with_invert = space
        bound = 1 << 52
        search = exhaustive_search(ops, with_invert, False)
        n_sub, mask, coef, positions = search._kernel_tables()
        ones = all_formula_table(8, ops).sum(axis=1)
        d = np.full((1, 256), bound, dtype=np.int64)
        extremes = native.split_search(d, n_sub, mask, coef)
        assert extremes.tolist() == [[bound * int(ones.min()), bound * int(ones.max())]]
        with pytest.raises(ValueError, match="nt - t"):
            native.split_search(d + 1, n_sub, mask, coef)
        with pytest.raises(ValueError, match="nt - t"):
            native.split_search(-d - 1, n_sub, mask, coef)
        totals = np.array([[0, 256 * bound]], dtype=np.int64)
        (position,) = native.split_winners(d, totals, with_invert, n_sub, mask, coef, positions)
        encodings = search.candidates
        op, inverted = (encodings >> 1, encodings & 1) if with_invert else (encodings, 0)
        errors = np.where(inverted, 256 * bound - bound * ones[op], bound * ones[op])
        assert position == int(np.argmin(errors))
        with pytest.raises(ValueError, match="row sample total"):
            native.split_winners(d, totals * 2, with_invert, n_sub, mask, coef, positions)

    def test_tables_outside_the_kernel_are_refused(self):
        search = exhaustive_search(WHISPER_OPS, True, False)
        n_sub, mask, coef, positions = search._kernel_tables()
        d = np.zeros((1, 256), dtype=np.int64)
        bad = {
            "rows of 256": (d[:, :128], n_sub, mask, coef),
            "subformulas": (d, 65, mask, coef),
            "table of 0 and -1": (d, n_sub, mask * 2, coef),
            "four root ops": (d, n_sub, mask, coef * 2),
        }
        for match, args in bad.items():
            with pytest.raises(ValueError, match=match):
                native.split_search(*args)
        totals = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="positions"):
            native.split_winners(d, totals, True, n_sub, mask, coef, positions[:, :2])

    def test_scalar_tier_runs_the_numpy_root_split(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the compiled root split ran")

        monkeypatch.setattr(native, "split_search", refuse)
        monkeypatch.setattr(native, "split_winners", refuse)
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        search = FormulaSearch(8, ROMBF_OPS, False, fraction=1.0)
        t = np.zeros((1, 256), dtype=np.int64)
        t[0, 9] = 3
        search.search(t, t[::-1].copy())
        search.best_formulas(t, t[::-1].copy())
        assert search._kernel is None


class TestKernelNameSingleSource:
    def test_cli_kernel_choices_match_valid_kernels(self):
        from repro.cli import build_parser

        parser = build_parser()
        action = next(a for a in parser._actions if a.dest == "kernel")
        assert tuple(action.choices) == VALID_KERNELS

    def test_env_error_names_all_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError) as err:
            resolve_kernel(None)
        for name in VALID_KERNELS:
            assert name in str(err.value)

    def test_vector_tier_is_gone(self, monkeypatch):
        from repro.cli import build_parser

        with pytest.raises(ValueError):
            resolve_kernel("vector")
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        with pytest.raises(ValueError):
            resolve_kernel(None)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--kernel", "vector", "apps"])
        assert exit_info.value.code == 2


class TestBenchProvenance:
    def test_row_records_environment_and_two_tiers(self):
        row = kernel_bench.run_bench(
            app="cassandra",
            n_events=2_000,
            predictors=["tage"],
            log=lambda line: None,
        )
        assert "numba" not in row
        assert row["cpu_count"] >= 1
        assert row["replay_tier"] == replay_tier()
        entry = row["results"]["replay_tage"]
        assert set(entry) == {
            "scalar_s", "default_s", "default_cold_s", "speedup", "events_per_s",
        }
        assert entry["events_per_s"] > 0 and entry["speedup"] > 0


class TestRatchets:
    def _row(self, **overrides):
        entry = {"speedup": 10.0, "events_per_s": 1_000_000}
        entry.update(overrides)
        return {
            "results": {
                name: dict(entry) for name in kernel_bench.CHECKED_BENCHMARKS
            }
        }

    def test_healthy_when_equal(self):
        row = self._row()
        assert kernel_bench.check_regression(row, row, log=lambda line: None)

    def test_perceptron_is_checked(self):
        assert "replay_perceptron" in kernel_bench.CHECKED_BENCHMARKS

    def test_absolute_events_per_s_regression_fails(self):
        base = self._row()
        row = self._row(events_per_s=50_000)  # a 20x collapse
        assert not kernel_bench.check_regression(row, base, log=lambda line: None)

    def test_speedup_regression_fails(self):
        base = self._row()
        row = self._row(speedup=5.0)
        assert not kernel_bench.check_regression(row, base, log=lambda line: None)

    @pytest.mark.parametrize("side", ("row", "baseline"))
    def test_missing_metric_fails_not_skips(self, side):
        rows = {"row": self._row(), "baseline": self._row()}
        del rows[side]["results"]["replay_perceptron"]["events_per_s"]
        lines = []
        assert not kernel_bench.check_regression(
            rows["row"], rows["baseline"], log=lines.append
        )
        assert any("MISSING" in line for line in lines)
