"""Phase-drifting workload variant: branch models rotate mid-stream.

The canonical generator drifts branch behaviour *between inputs*
(Fig 17); a deployed fleet also sees behaviour drift *within* one long
stream as the live input distribution shifts — the case "Branch
Prediction Is Not a Solved Problem" argues static hints cannot serve.
This module synthesises that stress input for :mod:`repro.serve`'s
drift detector: the trace is a concatenation of phases, and at each
phase boundary a deterministic subset of conditional branches has its
behaviour *rotated* (bias flipped, planted formula inverted, pattern
complemented) so the direction distribution of exactly those branches
moves while every other branch stays put.

Rotations preserve the behaviour's class, so the vector generation
kernel keeps resolving every phase natively.  Everything is a pure
function of ``(spec, input_id, n_events, n_phases, drift_fraction)`` —
the house determinism invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.formulas import FormulaTree
from ..profiling.trace import Trace
from .behaviors import (
    BiasedBehavior,
    BurstyBehavior,
    FormulaBehavior,
    PatternBehavior,
    SparseHistoryBehavior,
)
from .generator import _input_rng, generate_trace, get_program
from .program import Program
from .spec import AppSpec

#: RNG salt namespace for phase rotations (clear of the generator's 0-2).
_PHASE_SALT = 7000


@dataclass
class DriftingTrace:
    """A phase-concatenated trace plus its drift ground truth.

    ``phase_starts[p]`` is the event index where phase ``p`` begins;
    ``rotated_pcs[p]`` lists the branch PCs whose behaviour differs from
    phase 0 during phase ``p`` (empty for phase 0) — the oracle the
    drift-detector tests score against.
    """

    trace: Trace
    phase_starts: List[int] = field(default_factory=list)
    rotated_pcs: List[List[int]] = field(default_factory=list)

    @property
    def n_phases(self) -> int:
        return len(self.phase_starts)

    def phase_slice(self, phase: int) -> Trace:
        """The sub-trace covering one phase."""
        start = self.phase_starts[phase]
        stop = (
            self.phase_starts[phase + 1]
            if phase + 1 < len(self.phase_starts)
            else len(self.trace.block_ids)
        )
        return self.trace.slice(start, stop)


def _rotate_behavior(behavior: object, rng: np.random.Generator) -> object:
    """The rotated counterpart of one behaviour, or None if structural.

    Mid-range biases flip (``p -> 1 - p``), bursty branches flip their
    common direction, planted formulas invert (every outcome negates),
    sparse-history truth tables and fixed patterns complement — each
    rotation moves the branch's marginal taken rate to ``1 - r``, which
    is what the windowed drift detector measures.  Structural
    always/never-taken branches and classes without a rate-moving
    rotation return None.
    """
    if isinstance(behavior, BiasedBehavior):
        if not 0.05 < behavior.p < 0.95:
            return None  # structural; error checks do not drift
        return BiasedBehavior(p=1.0 - behavior.p)
    if isinstance(behavior, BurstyBehavior):
        return BurstyBehavior(
            common=not behavior.common,
            excursion_rate=behavior.excursion_rate,
            mean_burst=behavior.mean_burst,
        )
    if isinstance(behavior, SparseHistoryBehavior):
        # A plain table complement keeps the marginal rate near 0.5 for
        # a balanced table, which a rate-windowed detector cannot see.
        # Rotate instead to a near-constant table on the side the branch
        # currently leans *away* from: the rate moves decisively and the
        # old sparse formula becomes wrong on almost every history.
        n_entries = 1 << len(behavior.positions)
        ones = bin(behavior.table).count("1")
        lone = 1 << int(rng.integers(n_entries))
        if 2 * ones >= n_entries:
            table = lone  # was taken-leaning; now almost never taken
        else:
            table = ((1 << n_entries) - 1) ^ lone
        return SparseHistoryBehavior(
            positions=behavior.positions,
            table=table,
            noise=behavior.noise,
        )
    if isinstance(behavior, FormulaBehavior):
        inverted = FormulaTree(
            ops=behavior.formula.ops,
            invert=not behavior.formula.invert,
            n_inputs=behavior.formula.n_inputs,
        )
        return FormulaBehavior(
            length=behavior.length,
            formula=inverted,
            noise=behavior.noise,
            hash_bits=behavior.hash_bits,
        )
    if isinstance(behavior, PatternBehavior):
        complemented = behavior.pattern ^ ((1 << behavior.period) - 1)
        return PatternBehavior(pattern=complemented, period=behavior.period)
    return None


#: Probe-trace length used to rank conditional blocks by heat.
_PROBE_EVENTS = 20_000

#: Rotations draw from this many of the hottest conditional blocks.
_HOT_POOL = 64


def hot_conditional_blocks(
    program: Program, input_id: int, top: int = _HOT_POOL
) -> List[int]:
    """The most-executed conditional blocks, by a deterministic probe.

    A short canonical probe trace, a pure function of the spec and
    input, ranks blocks by dynamic execution count.  The generator keeps
    no trace alive, so a call generates its probe afresh unless a caller
    holds an equal one (:func:`generate_drifting_trace` holds one for
    all its phases).  Rotating within this pool
    guarantees the drift is *observable* — a Zipf-skewed program executes
    a uniformly chosen block essentially never, which would starve any
    windowed detector.
    """
    probe = generate_trace(program.spec, input_id, _PROBE_EVENTS)
    cond = probe.block_ids[program.is_conditional[probe.block_ids]]
    counts = np.bincount(cond, minlength=len(program.block_sizes))
    order = np.argsort(-counts, kind="stable")
    return [int(b) for b in order if counts[b] > 0][:top]


#: Behaviour classes Whisper's formula search hints well; drift on these
#: is the staleness story, so rotations target them first.
_HINTABLE_CLASSES = (SparseHistoryBehavior, FormulaBehavior, PatternBehavior)


def phase_overrides(
    program: Program, input_id: int, phase: int, drift_fraction: float
) -> Dict[int, object]:
    """Behaviour overrides (block -> rotated behaviour) for one phase.

    Phase 0 is canonical (no overrides).  Later phases deterministically
    rotate ``drift_fraction`` of the *hot* conditional blocks, filling
    the budget from the history-structured (hintable) classes first —
    those are the branches that carry hints, so their drift is what
    leaves stale hints behind — then from the remaining pool in an
    rng-permuted order keyed on ``(spec, input_id, phase)``, so two runs
    of the same schedule rotate identical branches.
    """
    if phase == 0 or drift_fraction <= 0.0:
        return {}
    rng = _input_rng(program.spec, input_id, salt=_PHASE_SALT + phase)
    pool = hot_conditional_blocks(program, input_id)
    budget = max(1, int(round(drift_fraction * len(pool))))
    structured = [
        b for b in pool if isinstance(program.behaviors[b], _HINTABLE_CLASSES)
    ]
    others = [b for b in pool if b not in set(structured)]
    ordered = structured + [others[i] for i in rng.permutation(len(others))]
    overrides: Dict[int, object] = {}
    for block in ordered:
        if len(overrides) >= budget:
            break
        rotated = _rotate_behavior(program.behaviors[block], rng)
        if rotated is not None:
            overrides[block] = rotated
    return overrides


def generate_drifting_trace(
    spec: AppSpec,
    input_id: int = 0,
    n_events: int = 200_000,
    n_phases: int = 2,
    drift_fraction: float = 0.25,
    kernel: Optional[str] = None,
) -> DriftingTrace:
    """Build the phase-drifting stress trace for one app.

    Each phase replays the *same* request/block stream (same input rng)
    with that phase's rotated behaviours, so outcome drift is isolated
    from control-flow drift: the detector sees the same branches at the
    same frequencies, only their directions move.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be at least 1")
    program = get_program(spec)
    per_phase = n_events // n_phases
    if per_phase < 1:
        raise ValueError("n_events too small for the phase count")

    segments: List[Trace] = []
    phase_starts: List[int] = []
    rotated_pcs: List[List[int]] = []
    cursor = 0
    # Held through the loop, so every phase's hot_conditional_blocks
    # ranks from this one probe instead of generating its own.
    probe = (
        generate_trace(spec, input_id, _PROBE_EVENTS)
        if n_phases > 1 and drift_fraction > 0.0
        else None
    )
    for phase in range(n_phases):
        overrides = phase_overrides(program, input_id, phase, drift_fraction)
        events = per_phase if phase < n_phases - 1 else n_events - cursor
        segment = generate_trace(
            spec,
            input_id,
            events,
            use_cache=not overrides,
            kernel=kernel,
            behavior_overrides=overrides,
        )
        segments.append(segment)
        phase_starts.append(cursor)
        rotated_pcs.append(
            sorted(int(program.branch_pcs[block]) for block in overrides)
        )
        cursor += events
    del probe

    trace = Trace(
        program=program,
        block_ids=np.concatenate([s.block_ids for s in segments]),
        taken=np.concatenate([s.taken for s in segments]),
        app=spec.name,
        input_id=input_id,
    )
    return DriftingTrace(
        trace=trace, phase_starts=phase_starts, rotated_pcs=rotated_pcs
    )
