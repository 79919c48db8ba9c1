"""Trace-driven predictor simulation.

:func:`simulate` replays a :class:`~repro.profiling.trace.Trace` through a
direction predictor, optionally composed with a profile-guided *hint
runtime* (Whisper's hint buffer, the ROMBF annotator, or BranchNet's CNN
inference engine).  The runtime is consulted first for every conditional
branch; when it supplies a prediction, the online predictor is bypassed
and — following the paper's §IV — is updated with allocation suppressed
so its capacity is freed for the remaining branches.

The runner owns the 1024-bit global history register that hint formulas
hash, and (on request) a token history of recent ``(pc, direction)``
pairs for CNN-style runtimes.

Each call runs one of two definitions, decided once by
:func:`use_native`: the batched fast path (a hint pre-pass, then the
predictor's batch kernel over a :class:`~repro.bpu.vector.ReplayBatch`)
or the per-event scalar loop, the oracle.  The fast path is taken only
when the kernel resolves to ``native``, the compiled library loads, the
predictor has a batch kernel and the runtime (if any) a batched
pre-pass; in every other case the whole call is the scalar loop.  The
replay batch is also the one cache of trace-derived data (hashed
histories, predictor columns, timing inputs); it holds its trace only
weakly, so dropping a trace frees everything derived from it.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .. import obs
from ..profiling.trace import Trace
from .base import BranchPredictor

_HISTORY_BITS = 1024
_HISTORY_MASK = (1 << _HISTORY_BITS) - 1

#: Replay kernel implementations selectable per call / via environment.
#: ``scalar`` is the per-event oracle the tests compare against;
#: ``native`` is the batched fast path: JIT-compiled state walks for
#: TAGE, TAGE-SC-L and the perceptron (:mod:`repro.bpu.native`), small
#: batch kernels for the simple predictors (:mod:`repro.bpu.vector`).
VALID_KERNELS = ("scalar", "native")
KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_KERNEL = "native"


def default_kernel() -> str:
    """Session-wide kernel choice: ``REPRO_KERNEL`` env var or 'native'."""
    value = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    if not value:
        return DEFAULT_KERNEL
    if value not in VALID_KERNELS:
        # A typo here would silently run the wrong kernel — the whole
        # point of the variable is to force one deliberately.
        raise ValueError(
            f"{KERNEL_ENV_VAR}={value!r} is not a valid kernel; "
            f"expected one of {VALID_KERNELS}"
        )
    return value


def resolve_kernel(kernel: Optional[str]) -> str:
    """Validate an explicit kernel choice, or fall back to the default."""
    if kernel is None:
        return default_kernel()
    if kernel not in VALID_KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {VALID_KERNELS}"
        )
    return kernel


def use_native(kernel: Optional[str]) -> bool:
    """Whether a call with ``kernel`` takes the compiled fast path.

    True when ``kernel`` (or, for None, the session default) resolves to
    ``native`` and the compiled library loads.  The one entrance to the
    fast path: :func:`simulate`, :func:`repro.sim.simulate_timing`,
    :func:`repro.workloads.generator.generate_trace`,
    :func:`repro.core.training.collect_training_data` and, for a search
    over every 8-input encoding, ``FormulaSearch.search`` and
    ``FormulaSearch.best_formulas`` (:mod:`repro.core.search`) each ask
    it once and otherwise run their scalar definition.
    """
    if resolve_kernel(kernel) != "native":
        return False
    from . import native

    return native.load() is not None


def replay_tier() -> str:
    """The replay tier this process runs, for run records.

    ``scalar``, ``native``, or — when the compiled library cannot load
    and every call runs its scalar definition —
    ``native (fallback: <reason>)``.
    """
    mode = default_kernel()
    if mode == "native" and not use_native(mode):
        from . import native

        return f"native (fallback: {native.load_error()})"
    return mode


class RunContext:
    """Mutable per-run state exposed to hint runtimes."""

    __slots__ = ("history", "token_pcs", "token_dirs", "token_pos", "token_size")

    def __init__(self, token_size: int = 0) -> None:
        self.history = 0  # global conditional history, bit 0 = most recent
        self.token_size = token_size
        self.token_pcs = np.zeros(max(1, token_size), dtype=np.int64)
        self.token_dirs = np.zeros(max(1, token_size), dtype=np.int8)
        self.token_pos = 0

    def push(self, pc: int, taken: bool) -> None:
        self.history = ((self.history << 1) | int(taken)) & _HISTORY_MASK
        if self.token_size:
            self.token_pos = (self.token_pos + 1) % self.token_size
            self.token_pcs[self.token_pos] = pc
            self.token_dirs[self.token_pos] = int(taken)

    def recent_tokens(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Last ``count`` (pc, direction) pairs, most recent last."""
        if count > self.token_size:
            raise ValueError("requested more tokens than tracked")
        idx = (self.token_pos - np.arange(count - 1, -1, -1)) % self.token_size
        return self.token_pcs[idx], self.token_dirs[idx]


class HintRuntime:
    """Interface for profile-guided overlays; all hooks are optional."""

    #: Ask the runner to maintain the (pc, direction) token ring.
    wants_tokens = 0  # token ring size; 0 = not needed

    def reset(self) -> None:
        """Restore start-of-run state."""

    def on_block(self, block_id: int) -> None:
        """Called for every executed basic block (hint-load modelling)."""

    def predict(self, pc: int, ctx: RunContext) -> Optional[bool]:
        """Return a hint prediction for ``pc``, or None to defer."""
        return None


@dataclass
class PredictionResult:
    """Outcome of replaying one trace through one predictor stack."""

    app: str
    predictor_name: str
    correct: np.ndarray  # bool per conditional event, in trace order
    cond_event_indices: np.ndarray  # event index of each conditional branch
    hinted: np.ndarray  # bool: prediction came from the hint runtime
    warmup_fraction: float = 0.0
    measured_instructions: int = 0
    _trace: Optional[Trace] = field(default=None, repr=False)

    @property
    def n_conditional(self) -> int:
        return int(self._measured_mask().sum())

    def _measured_mask(self) -> np.ndarray:
        if self.warmup_fraction <= 0.0:
            return np.ones(len(self.correct), dtype=bool)
        cutoff = int(len(self.correct) * self.warmup_fraction)
        mask = np.zeros(len(self.correct), dtype=bool)
        mask[cutoff:] = True
        return mask

    @property
    def mispredictions(self) -> int:
        mask = self._measured_mask()
        return int((~self.correct[mask]).sum())

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        mask = self._measured_mask()
        total = int(mask.sum())
        return float(self.correct[mask].sum() / total) if total else 1.0

    @property
    def mpki(self) -> float:
        if self.measured_instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.measured_instructions

    def per_pc_mispredictions(self) -> Dict[int, Tuple[int, int]]:
        """Per-branch ``(executions, mispredictions)`` in the measured region."""
        if self._trace is None:
            raise ValueError("result was built without trace linkage")
        mask = self._measured_mask()
        pcs = self._trace.pcs[self.cond_event_indices[mask]]
        wrong = (~self.correct[mask]).astype(np.int64)
        unique, inverse = np.unique(pcs, return_inverse=True)
        execs = np.bincount(inverse)
        errors = np.bincount(inverse, weights=wrong).astype(np.int64)
        return {
            int(pc): (int(n), int(e)) for pc, n, e in zip(unique, execs, errors)
        }

    def with_warmup(self, warmup_fraction: float) -> "PredictionResult":
        """A view of the same run measured after a warm-up prefix (Fig 22)."""
        if self._trace is None:
            raise ValueError("result was built without trace linkage")
        cutoff = int(len(self.correct) * warmup_fraction)
        if cutoff > 0:
            first_event = self.cond_event_indices[cutoff]
            measured = int(
                self._trace.program.block_sizes[self._trace.block_ids[first_event:]].sum()
            )
        else:
            measured = self._trace.n_instructions
        return PredictionResult(
            app=self.app,
            predictor_name=self.predictor_name,
            correct=self.correct,
            cond_event_indices=self.cond_event_indices,
            hinted=self.hinted,
            warmup_fraction=warmup_fraction,
            measured_instructions=measured,
            _trace=self._trace,
        )

    def misprediction_reduction(self, baseline: "PredictionResult") -> float:
        """Percent of the baseline's mispredictions this run eliminated."""
        base = baseline.mispredictions
        if base == 0:
            return 0.0
        return 100.0 * (base - self.mispredictions) / base


def _simulate_scalar(
    trace: Trace,
    predictor: BranchPredictor,
    runtime: Optional[HintRuntime],
    suppress_hint_allocation: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference per-event replay loop (the original scalar kernel)."""
    predictor.reset()
    token_size = runtime.wants_tokens if runtime is not None else 0
    ctx = RunContext(token_size=token_size)
    if runtime is not None:
        runtime.reset()

    block_ids = trace.block_ids
    taken_arr = trace.taken
    pcs = trace.pcs
    cond = trace.is_conditional
    n_events = trace.n_events

    is_ideal = getattr(predictor, "is_ideal", False)

    correct = np.empty(trace.n_conditional, dtype=bool)
    hinted = np.zeros(trace.n_conditional, dtype=bool)
    cond_event_indices = np.flatnonzero(cond).astype(np.int64)

    predictor_predict = predictor.predict
    predictor_update = predictor.update
    runtime_predict = runtime.predict if runtime is not None else None
    runtime_on_block = runtime.on_block if runtime is not None else None

    j = 0
    for i in range(n_events):
        if runtime_on_block is not None:
            runtime_on_block(int(block_ids[i]))
        if not cond[i]:
            continue
        pc = int(pcs[i])
        taken = bool(taken_arr[i])

        hint_pred: Optional[bool] = None
        if runtime_predict is not None:
            hint_pred = runtime_predict(pc, ctx)

        if hint_pred is not None:
            prediction = hint_pred
            hinted[j] = True
            if not is_ideal:
                predictor_predict(pc)  # lookup still happens in hardware
                predictor_update(pc, taken, allocate=not suppress_hint_allocation)
        elif is_ideal:
            prediction = taken
        else:
            prediction = predictor_predict(pc)
            predictor_update(pc, taken)

        correct[j] = prediction == taken
        ctx.push(pc, taken)
        j += 1

    return correct, hinted, cond_event_indices


#: kernel(predictor, batch, hinted, hint_preds, suppress) -> correct[bool]
ReplayKernel = Callable[..., np.ndarray]

#: Predictor class -> (batch kernel, availability probe or None).
_KERNELS: Dict[type, Tuple[ReplayKernel, Optional[Callable[[], object]]]] = {}


def register_kernel(*classes: type, needs: Optional[Callable[[], object]] = None):
    """Decorator registering a batch kernel for predictor types.

    ``needs`` guards a kernel that depends on something the host may
    lack: it is called at lookup and the kernel is used only when it
    returns a non-None value (the compiled kernels pass
    :func:`repro.bpu.native.load`).
    """

    def decorate(fn: ReplayKernel) -> ReplayKernel:
        for cls in classes:
            _KERNELS[cls] = (fn, needs)
        return fn

    return decorate


def kernel_for(predictor: BranchPredictor) -> Optional[ReplayKernel]:
    """The batch kernel for ``predictor``, or None: the scalar loop runs.

    Walks the MRO, so subclasses such as MTAGE-SC inherit their base
    predictor's kernel.  A kernel whose ``needs`` probe fails — the
    compiled library could not be built — also resolves to None; the
    loader warns once per process.
    """
    from . import native, vector  # noqa: F401  (importing registers the kernels)

    for cls in type(predictor).__mro__:
        entry = _KERNELS.get(cls)
        if entry is not None:
            fn, needs = entry
            return fn if needs is None or needs() is not None else None
    return None


#: Experiments replay the same trace under many predictor/runtime
#: configurations, so the SoA batch — the one store of everything
#: derived from a trace, timing inputs included — is kept for the last
#: few traces replayed.  Keyed by object identity; each entry holds a
#: weak reference to its trace whose callback drops that entry, so the
#: cache never keeps a trace (or its columns) alive.
_BATCH_CACHE: "OrderedDict[int, Tuple[weakref.ref, object]]" = OrderedDict()
_BATCH_CACHE_SIZE = 3


def _get_batch(trace: Trace):
    """The cached :class:`~repro.bpu.vector.ReplayBatch` of ``trace``."""
    from .vector import ReplayBatch

    key = id(trace)
    entry = _BATCH_CACHE.get(key)
    if entry is not None and entry[0]() is trace:
        _BATCH_CACHE.move_to_end(key)
        return entry[1]

    def forget(ref: weakref.ref) -> None:
        # This entry only, never a later one under a reused id; pop, as
        # the callback may run in any thread, racing an eviction.
        if _BATCH_CACHE.get(key, (None,))[0] is ref:
            _BATCH_CACHE.pop(key, None)

    batch = ReplayBatch(trace)
    _BATCH_CACHE[key] = (weakref.ref(trace, forget), batch)
    while len(_BATCH_CACHE) > _BATCH_CACHE_SIZE:
        _BATCH_CACHE.popitem(last=False)
    return batch


def _simulate_batched(
    trace: Trace,
    predictor: BranchPredictor,
    runtime: Optional[HintRuntime],
    suppress_hint_allocation: bool,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Two-stage batched replay: the runtime's batched hint pre-pass,
    then the predictor's batch kernel over SoA columns.

    Returns None — :func:`_simulate_scalar` then runs the whole replay —
    when the predictor has no kernel (:func:`kernel_for`), the runtime
    has no ``predict_batch``, or that pre-pass returns None.
    """
    kernel_fn = kernel_for(predictor)
    predict_batch = getattr(runtime, "predict_batch", None)
    if kernel_fn is None or (runtime is not None and predict_batch is None):
        return None
    predictor.reset()
    batch = _get_batch(trace)
    if runtime is None:
        hinted = np.zeros(batch.n, dtype=bool)
        hint_preds = np.zeros(batch.n, dtype=bool)
    else:
        runtime.reset()
        with obs.span("replay.hint_pass", runtime=type(runtime).__name__):
            result = predict_batch(batch)
        if result is None:
            return None
        hinted, hint_preds = result

    with obs.span("replay.kernel", kernel=kernel_fn.__name__, n=batch.n):
        correct = kernel_fn(
            predictor, batch, hinted, hint_preds, suppress_hint_allocation
        )
    return correct, hinted, batch.cond_event_indices


def simulate(
    trace: Trace,
    predictor: BranchPredictor,
    runtime: Optional[HintRuntime] = None,
    warmup_fraction: float = 0.0,
    suppress_hint_allocation: bool = True,
    kernel: Optional[str] = None,
) -> PredictionResult:
    """Replay ``trace`` through ``predictor`` (+ optional hint runtime).

    ``suppress_hint_allocation=False`` disables the paper's §IV rule that
    hinted branches do not allocate predictor entries (ablation study).

    ``kernel`` selects the replay implementation: ``"native"`` (default)
    runs the batched fast path — JIT-compiled state walks from
    :mod:`repro.bpu.native` for TAGE, TAGE-SC-L and the perceptron —
    and ``"scalar"`` the original per-event reference loop, which also
    runs whenever :func:`use_native` is false or the fast path declines
    (:func:`_simulate_batched`).  Both produce bit-identical predictions
    (enforced by the equivalence suite); ``REPRO_KERNEL`` flips the
    session default.
    """
    mode = resolve_kernel(kernel)
    with obs.span(
        "replay",
        app=trace.app,
        predictor=predictor.name,
        kernel=mode,
        n_events=trace.n_events,
        runtime=type(runtime).__name__ if runtime is not None else "",
    ):
        result = None
        if use_native(mode):
            result = _simulate_batched(
                trace, predictor, runtime, suppress_hint_allocation
            )
        if result is None:
            result = _simulate_scalar(
                trace, predictor, runtime, suppress_hint_allocation
            )
        correct, hinted, cond_event_indices = result
    obs.add("replay.runs")
    obs.add("replay.events", int(trace.n_events))
    obs.add("replay.conditionals", int(len(correct)))
    obs.add("replay.hinted", int(hinted.sum()))

    cutoff = int(len(correct) * warmup_fraction)
    if cutoff > 0:
        first_event = cond_event_indices[cutoff]
        measured_instr = int(trace.program.block_sizes[trace.block_ids[first_event:]].sum())
    else:
        measured_instr = trace.n_instructions

    return PredictionResult(
        app=trace.app,
        predictor_name=predictor.name,
        correct=correct,
        cond_event_indices=cond_event_indices,
        hinted=hinted,
        warmup_fraction=warmup_fraction,
        measured_instructions=measured_instr,
        _trace=trace,
    )
