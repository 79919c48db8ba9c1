"""Dynamic trace generation: the Markov walk over a synthetic program.

The generator models a server processing a stream of requests: it draws a
sequence of *functions* from a Zipf-skewed frequency distribution (the
skew exponent controls whether the app looks data-center-flat or
SPEC-concentrated), executes each function's basic-block chain in order,
and resolves every conditional branch through its behaviour model against
the live global history.

Two mechanisms create the working-set churn that produces the paper's
capacity-dominated mispredictions (Fig 3):

* a per-input permutation of the function-id space decides *which*
  functions are hot for that input (this is also what makes profiles
  input-sensitive, Fig 17); and
* the permutation is rolled by ``phase_shift`` every ``phase_events``
  events, so the hot set slowly migrates and branch substreams see large
  reuse distances.

Traces are deterministic functions of ``(spec, input_id, n_events)``,
and generating one writes no behaviour object: nothing is reset before
a trace or written back after one.

Two walks produce them, bit for bit alike: :func:`_walk_scalar` calls
each conditional event's ``outcome`` in turn on its own copies of the
stateful behaviours (the definition), and :func:`_walk_vector`
assembles the block stream in NumPy, then resolves every outcome in one
compiled pass (:func:`repro.bpu.native.gen_outcomes`) over a packed
copy of their state.  A call takes the second when
:func:`repro.bpu.runner.use_native` holds and every conditional block's
behaviour is one of the six kinds that pass resolves; otherwise (the
``scalar`` tier, no compiled library, or a behaviour such as
:class:`~repro.workloads.behaviors.FormulaBehavior`) it takes the first.

The module keeps built programs and, weakly, generated traces: a trace
is shared while some caller holds it.  What it derives from a program
alone (the request and function geometry, the packed behaviours, each
input's drift draw) lives in
:attr:`Program.derived <repro.workloads.program.Program.derived>`.
"""

from __future__ import annotations

import copy
import weakref
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import obs
from ..profiling.trace import Trace
from .behaviors import (
    BiasedBehavior,
    BurstyBehavior,
    FormulaBehavior,
    LocalBehavior,
    LoopBehavior,
    PatternBehavior,
    SparseHistoryBehavior,
)
from .program import Program, build_program
from .spec import AppSpec

_HISTORY_BITS = 1024
_HISTORY_MASK = (1 << _HISTORY_BITS) - 1

_program_cache: Dict[Tuple[str, int], Program] = {}
#: Traces shared while some caller holds them; the cache keeps none alive.
_trace_cache: "weakref.WeakValueDictionary[Tuple, Trace]" = weakref.WeakValueDictionary()


def get_program(spec: AppSpec) -> Program:
    """Build (or fetch the cached) program for a spec."""
    key = (spec.name, spec.seed)
    if key not in _program_cache:
        with obs.span("program.build", app=spec.name):
            _program_cache[key] = build_program(spec)
    return _program_cache[key]


def clear_caches() -> None:
    """Drop memoised programs and traces (used by tests)."""
    _program_cache.clear()
    _trace_cache.clear()


def _input_rng(spec: AppSpec, input_id: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([spec.seed, 7919, input_id, salt])


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _drifted_behaviors(program: Program, input_id: int) -> Dict[int, BiasedBehavior]:
    """Per-input re-draws of data-dependent branch biases (Fig 17).

    Only mid-range biased branches drift; always/never-taken branches are
    structural (e.g. error checks) and stay put across inputs.  Input 0 is
    the canonical profile-collection input and never drifts, so
    "profile-from-the-same-input" runs are exactly reproducible.

    Each input's draw is made once per program and kept in
    :attr:`Program.derived`; every caller shares the returned dict (no
    walk writes a behaviour) and must copy it before changing it.
    """
    spec = program.spec
    if input_id == 0 or spec.drift <= 0.0:
        return {}
    drifts = program.derived.setdefault("drift", {})
    if input_id in drifts:
        return drifts[input_id]
    rng = _input_rng(spec, input_id, salt=1)
    overrides: Dict[int, object] = {}
    for block, behavior in enumerate(program.behaviors):
        if isinstance(behavior, BiasedBehavior) and 0.0 < behavior.p < 1.0:
            if rng.random() < spec.drift:
                overrides[block] = BiasedBehavior(p=float(rng.uniform(*spec.noisy_p)))
        elif isinstance(behavior, BurstyBehavior):
            if rng.random() < spec.drift:
                rare_share = 1.0 - float(rng.uniform(*spec.easy_p))
                mean_burst = float(rng.uniform(3.0, 12.0))
                rate = rare_share / ((1.0 - rare_share) * mean_burst)
                overrides[block] = BurstyBehavior(
                    common=behavior.common, excursion_rate=rate, mean_burst=mean_burst
                )
    drifts[input_id] = overrides
    return overrides


#: Behaviour kinds that carry no state between executions.  The scalar
#: walk shares these and advances its own copy of any other object.
_STATELESS = frozenset((BiasedBehavior, SparseHistoryBehavior, FormulaBehavior))


class _Unpackable(Exception):
    """A behaviour the compiled outcome pass does not resolve."""


def _pack(beh, table, sparse):
    """``(kind code, iparam, fparam, state)`` of one behaviour, in the
    layout ``_replay.c``'s ``gen_outcomes`` documents; ``table`` and
    ``sparse`` store its truth table or pattern and its history
    positions, returning their offsets.  Parameters or states that would
    read outside a table, or make the burst length's logarithm ratio
    infinite, are refused: the scalar walk takes them."""
    kind = type(beh)
    if kind is BiasedBehavior:
        return 0, (0, 0, 0), (beh.p, 0.0), 0
    if kind is BurstyBehavior:
        if not (beh.mean_burst >= 1.0 and 1.0 - 1.0 / beh.mean_burst != 1.0):
            raise _Unpackable("log(1 - 1 / mean_burst) is zero")
        return (1, (int(bool(beh.common)), 0, 0),
                (beh.excursion_rate, beh.mean_burst), beh._remaining)
    if kind is SparseHistoryBehavior:
        k = len(beh.positions)
        if k > 8 or min(beh.positions, default=0) < 0:
            raise _Unpackable("sparse positions out of range")
        # A bit past the 1024-bit history reads zero, as one at 1024 does.
        first = sparse([min(pos, _HISTORY_BITS) for pos in beh.positions])
        return 2, (first, k, table(beh.table, 1 << k)), (beh.noise, 0.0), 0
    if kind is PatternBehavior:
        if not 0 <= beh._pos < beh.period:
            raise _Unpackable("pattern position out of range")
        return 3, (beh.period, 0, table(beh.pattern, beh.period)), (0.0, 0.0), beh._pos
    if kind is LoopBehavior:
        return 4, (beh.trip, 0, 0), (0.0, 0.0), beh._count
    if kind is LocalBehavior:
        if not (1 <= beh.k <= 16 and 0 <= beh._local < 1 << beh.k):
            raise _Unpackable("local history out of range")
        return 5, (beh.k, 0, table(beh.table, 1 << beh.k)), (beh.noise, 0.0), beh._local
    raise _Unpackable(kind.__name__)


class _Models:
    """A trace's conditional-block behaviours, packed for
    :func:`repro.bpu.native.gen_outcomes`.

    One slot per distinct object, so blocks sharing a behaviour share
    its state as in the scalar walk; ``block_slot`` maps a block to its
    slot, and ``state`` holds each slot's state as packed.  Raises
    :class:`_Unpackable` (or ``OverflowError``) for a behaviour the
    compiled pass does not take.
    """

    __slots__ = ("block_slot", "kinds", "iparam", "fparam",
                 "positions", "bits", "state")

    def __init__(self, behaviors, blocks, base: Optional["_Models"] = None) -> None:
        """Pack ``behaviors[b]`` for each block ``b`` of ``blocks``, after
        ``base``'s slots (whose block map the new blocks then override)."""
        slot_of: Dict[int, int] = {}
        first_slot = len(base.kinds) if base is not None else 0
        first_position = base.positions.shape[0] if base is not None else 0
        first_byte = len(base.bits) if base is not None else 0
        kinds, iparam, fparam, state = [], [], [], []
        positions: List[int] = []
        bits = bytearray()

        def table(value: int, n_bits: int) -> int:
            """Append ``n_bits`` bits of ``value`` (LSB first) at a byte
            boundary; return their byte offset."""
            offset = first_byte + len(bits)
            bits.extend((value & ((1 << n_bits) - 1)).to_bytes((n_bits + 7) // 8, "little"))
            return offset

        def sparse(values: List[int]) -> int:
            """Append a sparse behaviour's positions; return their offset."""
            offset = first_position + len(positions)
            positions.extend(values)
            return offset

        slots = []
        for block in blocks:
            beh = behaviors[block]
            slot = slot_of.get(id(beh))
            if slot is None:
                slot = slot_of[id(beh)] = first_slot + len(kinds)
                code, ip, fp, st = _pack(beh, table, sparse)
                kinds.append(code)
                iparam.append(ip)
                fparam.append(fp)
                state.append(st)
            slots.append(slot)

        if base is None:
            self.block_slot = np.zeros(len(behaviors), dtype=np.int64)
        else:
            self.block_slot = base.block_slot.copy()
        self.block_slot[np.asarray(blocks, dtype=np.int64)] = slots
        columns = {
            "kinds": np.array(kinds, dtype=np.int64),
            "iparam": np.array(iparam, dtype=np.int64).reshape(-1, 3),
            "fparam": np.array(fparam, dtype=np.float64).reshape(-1, 2),
            "positions": np.array(positions, dtype=np.int64),
            "state": np.array(state, dtype=np.int64),
        }
        for name, column in columns.items():
            if base is not None:
                column = np.concatenate([getattr(base, name), column])
            setattr(self, name, column)
        self.bits = (base.bits if base is not None else b"") + bytes(bits)

    def outcomes(self, cond_blocks: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Resolve the conditional events in order, each slot starting
        from its packed state.  The pass advances a copy of that state,
        so the model (and every behaviour object) is left as it was."""
        from ..bpu import native

        return native.gen_outcomes(
            self.block_slot[cond_blocks], uniforms, self.kinds, self.iparam,
            self.fparam, self.positions, self.bits, self.state.copy(),
        )


def _compiled_models(program: Program, overrides: Dict[int, object]) -> Optional[_Models]:
    """The behaviours of a trace packed for the compiled outcome pass:
    the program's own, packed once into :attr:`Program.derived`, then
    ``overrides`` (block -> behaviour).  None when the program has no
    requests or a conditional block's behaviour is not one of the six
    kinds the pass resolves (such as :class:`FormulaBehavior`): the
    scalar walk runs then."""
    if not program.requests:
        return None
    if "models" not in program.derived:
        blocks = np.flatnonzero(program.is_conditional).tolist()
        program.derived["models"] = _packed(program.behaviors, blocks)
    models = program.derived["models"]
    blocks = [block for block in overrides if program.is_conditional[block]]
    if models is not None and blocks:
        models = _packed(overrides, blocks, base=models)
    return models


def _packed(behaviors, blocks: List[int], base: Optional[_Models] = None) -> Optional[_Models]:
    """:class:`_Models` over ``blocks``, or None when one cannot be packed."""
    try:
        return _Models(behaviors, blocks, base)
    except (_Unpackable, OverflowError):
        return None


def _phase_arrays(program: Program) -> Tuple:
    """Flattened request/function geometry for the vector walk, kept in
    :attr:`Program.derived`."""
    arrays = program.derived.get("phase arrays")
    if arrays is None:
        requests = program.requests
        req_len = np.fromiter(
            (len(r) for r in requests), dtype=np.int64, count=len(requests)
        )
        req_starts = np.cumsum(req_len) - req_len
        req_flat = (
            np.concatenate([np.asarray(r, dtype=np.int64) for r in requests])
            if requests
            else np.empty(0, dtype=np.int64)
        )
        func_first = np.fromiter(
            (f.first_block for f in program.functions),
            dtype=np.int64,
            count=program.n_functions,
        )
        func_len = np.fromiter(
            (f.n_blocks for f in program.functions),
            dtype=np.int64,
            count=program.n_functions,
        )
        arrays = (req_flat, req_starts, req_len, func_first, func_len)
        program.derived["phase arrays"] = arrays
    return arrays


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + (np.arange(total, dtype=np.int64) - offsets)


def _phase_plans(
    program: Program,
    spec: AppSpec,
    rng: np.random.Generator,
    request_rank: np.ndarray,
    request_zipf: np.ndarray,
    func_zipf: np.ndarray,
    avg_request_blocks: float,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each phase's draws, one phase per ``next``: ``(req_seq,
    filler_mask, filler_funcs)``.

    Both walks consume this one plan.  Nothing is drawn before the first
    ``next``, so a walk draws its uniform pool first and the generator
    stream is then used in one fixed order per phase: function
    permutation, request re-ranking, request sequence, filler decisions,
    filler functions.  ``filler_*`` hold one slot per skeleton function
    of the phase's requests, plus a trailing slot that is drawn but
    never consumed.
    """
    n_functions = program.n_functions
    n_requests = max(1, len(program.requests))
    req_len = _phase_arrays(program)[2]
    hot_cut = max(1, int(0.08 * n_functions))
    n_draws = max(1, int(spec.phase_events / avg_request_blocks))
    phase = 0
    while True:
        # Each phase keeps the hot head of the function ranking stable but
        # re-jitters the warm/cold ranks used for filler draws, migrating
        # the mid-frequency working set: branch substreams there see large
        # reuse distances, which is where TAGE's capacity mispredictions
        # come from (Fig 3).
        perm = np.arange(n_functions)
        if phase > 0:
            rest = perm[hot_cut:]
            order = np.argsort(
                np.arange(len(rest)) + rng.normal(0.0, spec.phase_shift * len(rest), len(rest))
            )
            perm[hot_cut:] = rest[order]
        filler_weights = np.empty(n_functions, dtype=np.float64)
        filler_weights[perm] = func_zipf

        # Request popularity also drifts between phases: branch substreams
        # tied to a request recur at long reuse distances, which a small
        # predictor evicts in between (capacity) but a large one retains.
        if phase == 0:
            phase_request_rank = request_rank
        else:
            order = np.argsort(
                np.arange(n_requests)
                + rng.normal(0.0, spec.phase_shift * n_requests, n_requests)
            )
            phase_request_rank = request_rank[order]
        req_weights = np.empty(n_requests, dtype=np.float64)
        req_weights[phase_request_rank] = request_zipf
        req_seq = rng.choice(n_requests, size=n_draws, p=req_weights)
        total_slots = int(req_len[req_seq].sum()) + 1
        filler_mask = rng.random(total_slots) < spec.filler_prob
        filler_funcs = rng.choice(n_functions, size=total_slots, p=filler_weights)
        phase += 1
        yield req_seq, filler_mask, filler_funcs


def _walk_scalar(
    program: Program,
    behaviors: List,
    rng: np.random.Generator,
    n_events: int,
    plans: Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference event walk: one ``outcome`` call per conditional event.

    The definition :func:`_walk_vector` reproduces; it also runs
    without the compiled library and for behaviours the compiled
    outcome pass does not resolve.  It advances its own copy of each
    stateful behaviour object in ``behaviors`` (blocks sharing an
    object share its copy), so the objects themselves are never
    touched."""
    copies: Dict[int, object] = {}
    for beh in behaviors:
        if beh is not None and type(beh) not in _STATELESS and id(beh) not in copies:
            copies[id(beh)] = copy.copy(beh)
    behaviors = [copies.get(id(beh), beh) for beh in behaviors]

    block_ids = np.empty(n_events, dtype=np.int32)
    taken = np.empty(n_events, dtype=bool)
    uniforms = rng.random(n_events + 16)

    functions = program.functions
    requests = program.requests
    is_conditional = program.is_conditional
    history = 0
    event = 0
    u_cursor = 0

    while event < n_events:
        req_seq, filler_mask, filler_funcs = next(plans)
        slot = 0

        stop = False
        for req_id in req_seq:
            for skeleton_func in requests[req_id]:
                func_id = int(filler_funcs[slot]) if filler_mask[slot] else int(skeleton_func)
                slot += 1
                func = functions[func_id]
                for block in func.blocks:
                    behavior = behaviors[block]
                    if is_conditional[block]:
                        if u_cursor >= len(uniforms):
                            uniforms = rng.random(n_events + 16)
                            u_cursor = 0
                        outcome = behavior.outcome(history, uniforms[u_cursor])
                        u_cursor += 1
                        history = ((history << 1) | int(outcome)) & _HISTORY_MASK
                    else:
                        outcome = True  # unconditional transfer is always taken
                    block_ids[event] = block
                    taken[event] = outcome
                    event += 1
                    if event >= n_events:
                        stop = True
                        break
                if stop:
                    break
            if stop:
                break
    return block_ids, taken


def _walk_vector(
    program: Program,
    models: _Models,
    rng: np.random.Generator,
    n_events: int,
    plans: Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-pass event walk; replicates ``_walk_scalar`` bit for bit.

    Pass 1 assembles the basic-block stream: the per-phase draws come
    from the same :func:`_phase_plans` the scalar walk consumes, after
    the same uniform pool, then the request -> function -> block
    expansion collapses into two gather operations because every
    function is a consecutive block range.  Outcomes cannot change which
    blocks execute, so this pass is outcome-free.

    Pass 2 resolves the conditional outcomes in one compiled, in-order
    pass (:func:`repro.bpu.native.gen_outcomes`): event ``k`` draws
    ``uniforms[k]`` over conditional events in order, and its history is
    the outcomes before it.
    """
    req_flat, req_starts, req_len, func_first, func_len = _phase_arrays(program)
    uniforms = rng.random(n_events + 16)

    chunks: List[np.ndarray] = []
    assembled = 0
    while assembled < n_events:
        req_seq, filler_mask, filler_funcs = next(plans)
        counts = req_len[req_seq]

        # The trailing slot is pre-drawn but never consumed (scalar walk
        # increments ``slot`` once per skeleton function only).
        skeleton = req_flat[_concat_ranges(req_starts[req_seq], counts)]
        used = filler_mask.size - 1
        func_seq = np.where(filler_mask[:used], filler_funcs[:used], skeleton)
        blocks = _concat_ranges(func_first[func_seq], func_len[func_seq])
        if blocks.size == 0:
            raise RuntimeError("phase produced no events; program has empty requests")
        chunks.append(blocks)
        assembled += blocks.size

    block_ids = np.concatenate(chunks)[:n_events].astype(np.int32)

    # Pass 2: conditional outcome resolution.
    cond_pos = np.flatnonzero(program.is_conditional[block_ids])
    taken = np.ones(n_events, dtype=bool)
    taken[cond_pos] = models.outcomes(block_ids[cond_pos], uniforms)
    return block_ids, taken


def generate_trace(
    spec: AppSpec,
    input_id: int = 0,
    n_events: int = 200_000,
    use_cache: bool = True,
    kernel: Optional[str] = None,
    behavior_overrides: Optional[Dict[int, object]] = None,
) -> Trace:
    """Generate (or fetch) the dynamic trace for one (app, input) pair.

    ``kernel`` selects the event-walk implementation: ``"scalar"`` walks
    events one at a time, the default ``"native"`` tier runs the
    two-pass vector walk, whose outcome pass is compiled (the scalar
    walk when :func:`repro.bpu.runner.use_native` is false or a
    behaviour is not one the pass resolves).  Both produce identical
    traces, so the cache key does not include it.  ``None`` defers to
    :func:`repro.bpu.runner.resolve_kernel`.

    ``behavior_overrides`` (block id -> behaviour) is applied on top of
    the per-input drift draws — the hook :mod:`repro.workloads.drifting`
    uses to rotate branch models mid-stream.  Each override starts from
    the state its object holds, and the object keeps it.  Overridden
    traces are never cached: the cache key identifies the *canonical*
    behaviours.

    With ``use_cache`` a call returns the equal trace some caller still
    holds, if any; ``use_cache=False`` always generates a new one.
    """
    if behavior_overrides:
        use_cache = False
    key = (spec.name, spec.seed, input_id, n_events)
    if use_cache:
        cached = _trace_cache.get(key)
        if cached is not None:
            return cached

    from ..bpu.runner import use_native

    compiled = use_native(kernel)

    program = get_program(spec)
    overrides = _drifted_behaviors(program, input_id)
    if behavior_overrides:
        overrides = {**overrides, **behavior_overrides}
    behaviors = list(program.behaviors)
    for block, replacement in overrides.items():
        behaviors[block] = replacement

    rng = _input_rng(spec, input_id, salt=2)
    n_requests = max(1, len(program.requests))

    # Per-input hotness of *request types*: a perturbation of the
    # canonical ranking, not a full reshuffle — real services keep
    # roughly the same hot requests across inputs, with a moderate number
    # rising or falling (this is what Fig 17's input sensitivity
    # measures).  Input 0 is the canonical ranking.
    if input_id == 0:
        request_rank = np.arange(n_requests)
    else:
        jitter = rng.normal(0.0, 0.35 * n_requests, size=n_requests)
        request_rank = np.argsort(np.arange(n_requests) + jitter)
    request_zipf = _zipf_weights(n_requests, spec.request_zipf)
    func_zipf = _zipf_weights(program.n_functions, spec.zipf_exponent)

    avg_request_blocks = max(
        1.0,
        float(np.mean([len(r) for r in program.requests]) if program.requests else 1.0)
        * (program.n_blocks / program.n_functions),
    )

    # The compiled pass resolves the outcomes; off the fast path, or for
    # a behaviour it does not cover, the scalar walk runs.
    models = _compiled_models(program, overrides) if compiled else None
    plans = _phase_plans(
        program, spec, rng, request_rank, request_zipf, func_zipf,
        avg_request_blocks,
    )
    with obs.span(
        "trace.generate",
        app=spec.name,
        input_id=input_id,
        n_events=n_events,
        kernel="walk_scalar" if models is None else "walk_vector",
    ):
        if models is None:
            block_ids, taken = _walk_scalar(program, behaviors, rng, n_events, plans)
        else:
            block_ids, taken = _walk_vector(program, models, rng, n_events, plans)
    obs.add("trace.generated")
    obs.add("trace.events", int(n_events))

    trace = Trace(
        program=program,
        block_ids=block_ids,
        taken=taken,
        app=spec.name,
        input_id=input_id,
    )
    if use_cache:
        _trace_cache[key] = trace
    return trace


def merged_traces(
    spec: AppSpec, input_ids, n_events_each: int = 200_000
) -> Tuple[Trace, ...]:
    """Traces for several inputs of the same app (profile-merging studies)."""
    return tuple(generate_trace(spec, input_id, n_events_each) for input_id in input_ids)
