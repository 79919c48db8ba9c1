"""Branch behaviour models for synthetic workloads.

Each conditional branch of a synthetic program owns one behaviour object
that decides its outcome at every dynamic execution.  The mix of
behaviours is what gives an application its branch "personality":

* :class:`BiasedBehavior` — outcome is a Bernoulli draw.  ``p = 1`` /
  ``p = 0`` model always/never-taken branches; mid-range ``p`` models the
  paper's *conditional-on-data* branches whose direction does not
  correlate with history (§II-C).
* :class:`FormulaBehavior` — outcome is a planted Boolean formula of the
  XOR-folded global history at a planted geometric length, optionally
  corrupted by noise.  These are the branches Whisper's hashed-history
  correlation is designed for: an online predictor must memorise one entry
  per distinct long history (capacity pressure), while a 15-bit formula
  captures them exactly.
* :class:`PatternBehavior` — a fixed repeating direction sequence (e.g.
  ``TTNTTN...``); easy for TAGE when its tables retain the substream.
* :class:`LoopBehavior` — taken for ``trip - 1`` iterations, then
  not-taken once; the TAGE-SC-L loop predictor's bread and butter.
* :class:`LocalBehavior` — a function of the branch's *own* last ``k``
  outcomes (local history).  Global-history predictors see these through
  interleaving noise, making them moderately hard for everyone.

Behaviours are deterministic functions of ``(history, u, state)`` where
``u`` is a pre-drawn uniform random number supplied by the generator, so a
trace is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.formulas import FormulaTree
from ..core.hashing import fold_history


class Behavior:
    """Base class; subclasses implement :meth:`outcome`."""

    kind = "abstract"

    def outcome(self, history: int, u: float) -> bool:
        """Decide the branch direction for one dynamic execution.

        ``history`` is the global conditional-branch history (bit 0 = most
        recent outcome); ``u`` is a uniform[0,1) draw owned by this event.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-run mutable state (loop counters etc.)."""


@dataclass
class BiasedBehavior(Behavior):
    """Bernoulli branch: taken with probability ``p``."""

    p: float
    kind = "biased"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")

    def outcome(self, history: int, u: float) -> bool:
        """Bernoulli draw: taken when ``u`` falls below ``p``."""
        return u < self.p

    @property
    def is_always_taken(self) -> bool:
        return self.p >= 1.0

    @property
    def is_never_taken(self) -> bool:
        return self.p <= 0.0


@dataclass
class FormulaBehavior(Behavior):
    """Planted Boolean-formula branch over the hashed global history."""

    length: int
    formula: FormulaTree
    noise: float = 0.0
    hash_bits: int = 8
    kind = "formula"

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("noise must be in [0, 0.5)")
        if self.length < 1:
            raise ValueError("length must be positive")

    def outcome(self, history: int, u: float) -> bool:
        """Direction from the planted formula over hashed history."""
        hashed = fold_history(history, self.length, self.hash_bits)
        value = bool(self.formula.evaluate(hashed))
        if self.noise and u < self.noise:
            return not value
        return value


@dataclass
class BurstyBehavior(Behavior):
    """Heavily biased branch whose rare flips cluster in time.

    Real services' "easy" branches (error checks, feature flags, cache
    hits) are not i.i.d. coin flips: the uncommon direction arrives in
    bursts — a failing backend, a cold cache.  Burstiness matters for the
    history stream: with the same average flip rate, clustered flips
    leave the vast majority of history windows *clean*, which is what
    lets context-based predictors (and Whisper's hashed histories) see
    recurring patterns.

    The excursion length is geometric with mean ``mean_burst``; both the
    entry decision and the length are derived from the single uniform
    draw ``u`` so traces stay a pure function of the seed.
    """

    common: bool  # the common direction
    excursion_rate: float  # per-execution probability of starting a burst
    mean_burst: float = 6.0
    _remaining: int = field(default=0, repr=False)
    kind = "bursty"

    def __post_init__(self) -> None:
        if not 0.0 <= self.excursion_rate < 1.0:
            raise ValueError("excursion_rate must be in [0, 1)")
        if self.mean_burst < 1.0:
            raise ValueError("mean_burst must be at least 1")

    def outcome(self, history: int, u: float) -> bool:
        """Direction from the burst phase (mostly-taken vs mostly-not)."""
        if self._remaining > 0:
            self._remaining -= 1
            return not self.common
        if u < self.excursion_rate:
            # Re-use the draw: conditioned on u < rate, u/rate is uniform.
            frac = min(max(u / self.excursion_rate, 1e-12), 1.0 - 1e-12)
            p_stop = 1.0 / self.mean_burst
            length = 1 + int(math.log(1.0 - frac) / math.log(1.0 - p_stop)) if p_stop < 1.0 else 1
            self._remaining = max(0, length - 1)
            return not self.common
        return self.common

    def reset(self) -> None:
        self._remaining = 0


@dataclass
class SparseHistoryBehavior(Behavior):
    """Outcome depends on a few *specific* prior branch outcomes.

    This is the dominant correlation shape in real code: a branch's
    direction is decided by one to three earlier decisions (a null check,
    an error path, a mode flag) at fixed distances in the global history.
    ``positions`` are history-bit distances (0 = most recent) and
    ``table`` is a ``2**k``-bit truth table over those bits, LSB-first.

    The deepest position determines the history length a predictor needs:
    short-position branches are learnable by TAGE via context
    memorisation (when its capacity retains the contexts), deep-position
    branches defeat online predictors and are Whisper's target.  The
    XOR-fold maps position ``p`` onto hash bit ``p mod 8``, so Whisper
    recovers these correlations *partially* — exactly when the fold
    aliasing and the read-once formula class permit — which is what keeps
    its misprediction coverage realistic rather than total.
    """

    positions: tuple
    table: int
    noise: float = 0.0
    kind = "sparse"

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("positions must be non-empty")
        if len(self.positions) > 8:
            raise ValueError("at most 8 positions supported")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("noise must be in [0, 0.5)")

    @property
    def needed_length(self) -> int:
        """History length required to observe every relevant bit."""
        return max(self.positions) + 1

    def outcome(self, history: int, u: float) -> bool:
        """Truth-table lookup over a few specific distant history bits."""
        key = 0
        for i, pos in enumerate(self.positions):
            key |= ((history >> pos) & 1) << i
        value = bool((self.table >> key) & 1)
        if self.noise and u < self.noise:
            return not value
        return value


@dataclass
class PatternBehavior(Behavior):
    """Fixed repeating direction pattern of ``period`` bits."""

    pattern: int
    period: int
    _pos: int = field(default=0, repr=False)
    kind = "pattern"

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")

    def outcome(self, history: int, u: float) -> bool:
        """Next bit of the fixed repeating direction pattern."""
        bit = (self.pattern >> self._pos) & 1
        self._pos = (self._pos + 1) % self.period
        return bool(bit)

    def reset(self) -> None:
        self._pos = 0


@dataclass
class LoopBehavior(Behavior):
    """Loop back-edge: taken ``trip - 1`` times, then not-taken once."""

    trip: int
    _count: int = field(default=0, repr=False)
    kind = "loop"

    def __post_init__(self) -> None:
        if self.trip < 2:
            raise ValueError("trip count must be at least 2")

    def outcome(self, history: int, u: float) -> bool:
        """Taken until the loop trip count expires, then falls through."""
        self._count += 1
        if self._count >= self.trip:
            self._count = 0
            return False
        return True

    def reset(self) -> None:
        self._count = 0


@dataclass
class LocalBehavior(Behavior):
    """Function of the branch's own last ``k`` outcomes.

    ``table`` is a ``2**k``-bit truth table: bit ``h`` gives the outcome
    after local history ``h``.  ``noise`` optionally corrupts it.
    """

    k: int
    table: int
    noise: float = 0.0
    _local: int = field(default=0, repr=False)
    kind = "local"

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 16:
            raise ValueError("k must be in [1, 16]")

    def outcome(self, history: int, u: float) -> bool:
        """Truth-table lookup over the branch's own last ``k`` outcomes."""
        value = bool((self.table >> self._local) & 1)
        if self.noise and u < self.noise:
            value = not value
        self._local = ((self._local << 1) | int(value)) & ((1 << self.k) - 1)
        return value

    def reset(self) -> None:
        self._local = 0


#: Behaviour-kind names used by generator specs and analyses.
BEHAVIOR_KINDS = ("biased", "formula", "pattern", "loop", "local")


def describe(behavior: Optional[Behavior]) -> str:
    """Short human-readable description (used in example scripts)."""
    if behavior is None:
        return "unconditional"
    if isinstance(behavior, BiasedBehavior):
        if behavior.is_always_taken:
            return "always-taken"
        if behavior.is_never_taken:
            return "never-taken"
        return f"biased(p={behavior.p:.2f})"
    if isinstance(behavior, FormulaBehavior):
        return f"formula(len={behavior.length}, noise={behavior.noise:.2f})"
    if isinstance(behavior, SparseHistoryBehavior):
        return f"sparse(depth={behavior.needed_length}, k={len(behavior.positions)})"
    if isinstance(behavior, BurstyBehavior):
        return (
            f"bursty(common={'T' if behavior.common else 'N'}, "
            f"rate={behavior.excursion_rate:.3f})"
        )
    if isinstance(behavior, PatternBehavior):
        return f"pattern(period={behavior.period})"
    if isinstance(behavior, LoopBehavior):
        return f"loop(trip={behavior.trip})"
    if isinstance(behavior, LocalBehavior):
        return f"local(k={behavior.k})"
    return behavior.kind
