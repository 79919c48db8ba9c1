"""Intel LBR-style sampled branch records.

The paper's second profiling source is the Last Branch Record facility:
on a performance-counter overflow (here: every ``sample_period``-th
conditional branch, with the ``br_misp_retired.conditional`` event
selecting mispredicted branches), the hardware snapshots the last 32
taken/not-taken records, each tagged with the predictor's verdict.

:func:`collect_lbr_profile` reproduces that pipeline: it replays the
trace through the baseline predictor but aggregates per-branch accuracy
only from LBR *samples*, not from the full stream — yielding the
statistically-thinner (but cheap) per-PC accuracy estimates a production
deployment would actually have.  The full-stream
:meth:`~repro.profiling.profile.BranchProfile.collect` is the idealised
upper bound; tests verify the sampled estimates converge to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..profiling.trace import Trace
from .profile import BranchProfile

#: Hardware LBR depth.
LBR_DEPTH = 32


@dataclass(frozen=True)
class LbrRecord:
    """One entry of a sampled LBR stack."""

    pc: int
    taken: bool
    mispredicted: bool


def collect_lbr_profile(
    traces,
    predictor_factory: Callable,
    sample_period: int = 64,
    depth: int = LBR_DEPTH,
) -> BranchProfile:
    """Build a :class:`BranchProfile` from sampled LBR snapshots.

    Every ``sample_period`` conditional branches, the last ``depth``
    records (pc, direction, mispredict flag) are captured and aggregated.
    Per-PC executions/mispredictions are *estimates* scaled by the
    sampling rate only implicitly — Whisper's candidate selection and
    acceptance rules are ratio-based, so raw sampled counts work
    directly, exactly as they would on LBR data.
    """
    if sample_period < 1:
        raise ValueError("sample_period must be positive")
    if not 1 <= depth <= LBR_DEPTH:
        raise ValueError(f"depth must be in [1, {LBR_DEPTH}]")

    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace is required")

    per_pc: Dict[int, Tuple[int, int]] = {}
    name = ""
    for trace in traces:
        predictor = predictor_factory()
        name = predictor.name
        ring: List[LbrRecord] = []
        counter = 0
        for _, pc, taken in trace.conditional_events():
            prediction = predictor.predict(pc)
            predictor.update(pc, taken)
            ring.append(LbrRecord(pc=pc, taken=taken, mispredicted=prediction != taken))
            if len(ring) > depth:
                ring.pop(0)
            counter += 1
            if counter % sample_period == 0:
                for record in ring:
                    execs, mispredicts = per_pc.get(record.pc, (0, 0))
                    per_pc[record.pc] = (
                        execs + 1,
                        mispredicts + int(record.mispredicted),
                    )
                ring.clear()  # hardware LBR freezes + rearms on sample
    return BranchProfile(
        traces=traces, per_pc=per_pc, predictor_name=f"{name}+lbr", app=traces[0].app
    )


def sampling_overhead(sample_period: int, depth: int = LBR_DEPTH) -> float:
    """Fraction of branches whose records reach software.

    With a 32-deep stack sampled every N branches, at most ``depth / N``
    of branch executions are observed — the knob behind LBR's "minimal
    overhead" claim the paper cites.
    """
    return min(1.0, depth / sample_period)
