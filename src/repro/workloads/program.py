"""Synthetic program model: functions, basic blocks, code layout.

A :class:`Program` is the static artifact the optimizer rewrites: an
ordered list of functions, each a straight chain of basic blocks laid out
over a configurable code footprint.  Every block ends in exactly one
branch instruction — conditional blocks own a behaviour model, the rest
end in an unconditional jump (the last block of a function "returns").

Within a function, blocks execute in chain order regardless of branch
outcome (short forward skips), so block ``i`` is a guaranteed predecessor
of block ``i + 1`` — the property Whisper's hint-injection correlation
algorithm exploits at link time (§IV).

A program is built in two parts.  :func:`build_program` draws the layout
(blocks per function, block sizes, the conditional mask) and places the
code.  The behaviour model (each conditional block's :class:`Behavior`,
the request skeletons and the follower rewiring) is drawn on the first
read of :attr:`Program.behaviors` or :attr:`Program.requests`, from the
generator state saved right after the layout draws.  Decoding a stored
trace, profile or prediction needs only the layout, so it never pays for
the model.

Trace generation writes none of a program's behaviour objects (it walks
copies of their state); what the generator computes from a program
alone lives in :attr:`Program.derived` and dies with the program.

The draw order is the contract: the two parts make the same
``Generator`` calls, in the same order and with the same arguments, as
one eager pass over ``default_rng(spec.seed)``, so a program (and every
trace and figure derived from it) stays a pure function of its spec.  A
weighted pick is ``bisect_right(cdf, rng.random())`` with
``cdf = p.cumsum(); cdf /= cdf[-1]``, which is how
``Generator.choice(n, p=p)`` draws one index.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.geometric import geometric_lengths
from .behaviors import (
    Behavior,
    BiasedBehavior,
    BurstyBehavior,
    LocalBehavior,
    LoopBehavior,
    PatternBehavior,
    SparseHistoryBehavior,
)
from .spec import AppSpec

#: Bytes per instruction in the synthetic ISA (fixed width, RISC-like).
INSTRUCTION_BYTES = 4

#: Guards the first read of a program's behaviour model, because serve's
#: connection threads share ``get_program``'s cached programs.  The draw
#: is Python code under the GIL, so one lock for all programs loses no
#: parallelism, and it leaves programs picklable.
_MODEL_LOCK = threading.Lock()


@dataclass
class Function:
    """A chain of consecutive basic blocks."""

    index: int
    first_block: int
    n_blocks: int

    @property
    def blocks(self) -> range:
        return range(self.first_block, self.first_block + self.n_blocks)


class Program:
    """The static side of a synthetic application.

    All per-block attributes are NumPy arrays indexed by block id, so the
    trace generator, predictors, and the timing simulator can gather them
    in bulk.

    The layout arrays are set at construction.  :attr:`behaviors` and
    :attr:`requests` are drawn once, on first read, from ``model_state``:
    the bit-generator state :func:`build_program` saved right after
    drawing ``is_conditional``.  The draw continues that generator's
    stream, so the model equals the one an eager build draws.  Only
    :func:`build_program` constructs a program.
    """

    def __init__(
        self,
        spec: AppSpec,
        block_sizes: np.ndarray,
        block_addrs: np.ndarray,
        func_of_block: np.ndarray,
        is_conditional: np.ndarray,
        functions: List[Function],
        model_state: dict,
    ) -> None:
        self.spec = spec
        self.block_sizes = np.asarray(block_sizes, dtype=np.int32)
        self.block_addrs = np.asarray(block_addrs, dtype=np.int64)
        self.func_of_block = np.asarray(func_of_block, dtype=np.int32)
        self.is_conditional = np.asarray(is_conditional, dtype=bool)
        self.functions = functions
        # The terminating branch is the last instruction of the block.
        self.branch_pcs = self.block_addrs + (self.block_sizes - 1) * INSTRUCTION_BYTES
        self._model_state = model_state
        self._model: Optional[Tuple[List[Optional[Behavior]], List[np.ndarray]]] = None
        #: What the trace generator computes from this program alone;
        #: each entry is a pure function of the program.
        self.derived: Dict[str, object] = {}

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    @property
    def n_conditional_branches(self) -> int:
        return int(self.is_conditional.sum())

    @property
    def static_instructions(self) -> int:
        """Total static instruction count (before hint injection)."""
        return int(self.block_sizes.sum())

    @property
    def static_code_bytes(self) -> int:
        return self.static_instructions * INSTRUCTION_BYTES

    @property
    def behaviors(self) -> List[Optional[Behavior]]:
        """Behaviour model per block (``None`` for unconditional blocks)."""
        return self._drawn_model()[0]

    @property
    def requests(self) -> List[np.ndarray]:
        """Request skeletons: one int32 array of function ids per type."""
        return self._drawn_model()[1]

    def _drawn_model(self) -> Tuple[List[Optional[Behavior]], List[np.ndarray]]:
        model = self._model
        if model is None:
            with _MODEL_LOCK:
                if self._model is None:
                    with obs.span("program.model", app=self.spec.name):
                        self._model = _draw_model(self)
                model = self._model
        return model

    def behavior_of_pc(self, pc: int) -> Optional[Behavior]:
        """Look up the behaviour that drives a branch PC (analysis helper)."""
        block = self.block_of_pc(pc)
        return self.behaviors[block] if block is not None else None

    def block_of_pc(self, pc: int) -> Optional[int]:
        """Basic-block id owning a branch PC; None if unmapped."""
        idx = np.searchsorted(self.branch_pcs, pc)
        if idx < self.n_blocks and int(self.branch_pcs[idx]) == pc:
            return int(idx)
        return None

    def predecessors_in_chain(self, block: int, max_back: int = 8) -> List[int]:
        """Blocks that always execute shortly before ``block`` (same chain)."""
        func = self.functions[int(self.func_of_block[block])]
        first = func.first_block
        start = max(first, block - max_back)
        return list(range(start, block))


# ----------------------------------------------------------------------
# Program synthesis
# ----------------------------------------------------------------------
def _cdf(p) -> List[float]:
    """``Generator.choice``'s cumulative distribution for weights ``p``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _pick(cdf: List[float], rng: np.random.Generator) -> int:
    """One index drawn as ``rng.choice(len(cdf), p=p)`` draws it."""
    return bisect_right(cdf, rng.random())


#: Number of planted history bits in a formula branch: 1, 2 or 3.
_K_CDF = _cdf([0.40, 0.40, 0.20])


def _draw_behavior(spec: AppSpec, kind: str, rng: np.random.Generator,
                   lengths: Sequence[int], length_cdf: List[float]) -> Behavior:
    if kind == "always":
        return BiasedBehavior(p=1.0)
    if kind == "never":
        return BiasedBehavior(p=0.0)
    if kind == "easy":
        # Bursty rather than i.i.d.: the rare direction arrives in runs,
        # with the same long-run bias the easy_p range prescribes.
        rare_share = 1.0 - float(rng.uniform(*spec.easy_p))
        mean_burst = float(rng.uniform(3.0, 12.0))
        rate = rare_share / ((1.0 - rare_share) * mean_burst)
        common = bool(rng.random() < 0.8)  # mostly taken, sometimes not-taken
        return BurstyBehavior(common=common, excursion_rate=rate, mean_burst=mean_burst)
    if kind == "noisy":
        return BiasedBehavior(p=float(rng.uniform(*spec.noisy_p)))
    if kind == "formula":
        index = _pick(length_cdf, rng)
        length = lengths[index]
        prev_length = lengths[index - 1] if index > 0 else 1
        k = 1 + _pick(_K_CDF, rng)
        # The deepest relevant bit lands in (prev_length, length] so the
        # planted correlation genuinely *needs* this series entry.
        deep = int(rng.integers(prev_length, length))
        positions = {deep}
        while len(positions) < k:
            positions.add(int(rng.integers(0, length)))
        table = 0
        while table in (0, (1 << (1 << k)) - 1):  # avoid constant tables
            table = int(rng.integers(1, 1 << (1 << k)))
        noise = float(rng.uniform(*spec.formula_noise))
        return SparseHistoryBehavior(
            positions=tuple(sorted(positions)), table=table, noise=noise
        )
    if kind == "pattern":
        period = int(rng.integers(spec.pattern_period[0], spec.pattern_period[1] + 1))
        pattern = int(rng.integers(1, 1 << period))
        return PatternBehavior(pattern=pattern, period=period)
    if kind == "loop":
        trip = int(rng.integers(spec.loop_trip[0], spec.loop_trip[1] + 1))
        return LoopBehavior(trip=trip)
    if kind == "local":
        k = int(rng.integers(spec.local_k[0], spec.local_k[1] + 1))
        # The truth table has 2**k entries; build it from raw random bytes
        # because it can exceed 64 bits for k > 6.
        n_bytes = max(1, (1 << k) // 8)
        table = int.from_bytes(rng.bytes(n_bytes), "little")
        return LocalBehavior(k=k, table=table, noise=0.02)
    raise ValueError(f"unknown behaviour kind {kind!r}")


def _normalised(weights) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    return arr / arr.sum()


_HARD_KINDS = ("formula", "noisy", "pattern", "local")


def _bucket_mix(base_mix: dict, hard_factor: float) -> np.ndarray:
    """Scale the hard-to-predict behaviour shares for one hotness bucket.

    Hard shares are multiplied by ``hard_factor`` (capped so they never
    exceed 60 % of the bucket) and the difference is absorbed by the easy
    biased share; the result is a normalised weight vector aligned with
    ``list(base_mix.keys())``.
    """
    mix = dict(base_mix)
    hard_total = sum(mix[k] for k in _HARD_KINDS if k in mix)
    if hard_total > 0:
        factor = min(hard_factor, 0.60 / hard_total)
        for kind in _HARD_KINDS:
            if kind in mix:
                mix[kind] *= factor
        delta = hard_total - sum(mix[k] for k in _HARD_KINDS if k in mix)
        mix["easy"] = max(0.01, mix.get("easy", 0.0) + delta)
    return _normalised([mix[k] for k in base_mix])


def _rewire_followers(
    rng: np.random.Generator,
    requests: List[np.ndarray],
    functions: List[Function],
    is_conditional: np.ndarray,
    behaviors: List[Optional[Behavior]],
    lengths: Sequence[int],
    length_cdf: List[float],
) -> None:
    """Anchor history-correlated branches to *driver* branches.

    Real data-center correlation has a characteristic shape: an early
    data-dependent branch (a *driver* — request type check, cache hit,
    null test) decides once, and many later branches replicate that
    decision.  The driver injects the entropy; the followers are
    deterministic functions of history bits.  This is what gives
    branch history its predictive power — and what a predictor must
    memorise per (branch, context) pair, creating genuine capacity
    pressure (Fig 3) and the history-depth spectrum of Fig 6.

    Implementation: walk every request skeleton's conditional-branch
    sequence; re-point each sparse-kind branch (planted earlier with
    fallback random positions) at an actual mid-entropy driver branch
    that precedes it in the walk, at a distance drawn to follow the
    spec's history-length distribution.  A branch appearing in several
    requests is wired for the first one encountered — in other requests
    its positions alias other bits, a realistic source of residual
    mispredictions.
    """
    rewired: set = set()

    def is_driver(behavior: Optional[Behavior]) -> bool:
        return isinstance(behavior, BiasedBehavior) and 0.0 < behavior.p < 1.0

    for skeleton in requests:
        cond_walk: List[int] = []  # block ids of conditional branches, in order
        driver_positions: List[int] = []  # indices into cond_walk
        for func_id in skeleton:
            for block in functions[int(func_id)].blocks:
                if not is_conditional[block]:
                    continue
                index = len(cond_walk)
                behavior = behaviors[block]
                if (
                    isinstance(behavior, SparseHistoryBehavior)
                    and block not in rewired
                    and driver_positions
                ):
                    # Desired depth from the Fig-6 length distribution.
                    pick = _pick(length_cdf, rng)
                    low = lengths[pick - 1] if pick > 0 else 1
                    desired = int(rng.integers(low, lengths[pick] + 1))
                    distances = [index - d for d in driver_positions]
                    best = min(distances, key=lambda d: abs(d - desired))
                    positions = [best - 1]  # 0 = the immediately prior branch
                    if rng.random() < 0.25 and len(distances) > 1:
                        second = rng.choice(
                            [d for d in distances if d != best]
                        )
                        positions.append(int(second) - 1)
                    positions = sorted(set(p for p in positions if p >= 0))
                    if positions:
                        k = len(positions)
                        table = 0
                        while table in (0, (1 << (1 << k)) - 1):
                            table = int(rng.integers(1, 1 << (1 << k)))
                        behaviors[block] = SparseHistoryBehavior(
                            positions=tuple(positions),
                            table=table,
                            noise=behavior.noise,
                        )
                        rewired.add(block)
                if is_driver(behaviors[block]):
                    driver_positions.append(index)
                cond_walk.append(block)


def _draw_model(program: Program) -> Tuple[List[Optional[Behavior]], List[np.ndarray]]:
    """Draw the behaviours, the request skeletons and the follower
    rewiring, in that order, from the program's saved generator state."""
    spec = program.spec
    bit_generator = np.random.PCG64()
    bit_generator.state = program._model_state
    rng = np.random.Generator(bit_generator)
    lengths = geometric_lengths()
    length_cdf = _cdf(_normalised(spec.formula_length_weights))

    # Behaviour assignment over conditional blocks, correlated with the
    # function's canonical hotness rank (function index 0 is canonically
    # hottest).  Hot code is dominated by well-behaved branches — an app
    # whose hottest branches were coin flips would be rewritten — while
    # hard-to-predict branches concentrate in the warm middle of the
    # frequency distribution.  This is what produces the paper's flat
    # misprediction CDF (Fig 5b): thousands of moderately-hot hard
    # branches, each contributing a little.
    kinds = list(spec.behavior_mix.keys())
    bucket_cdfs = [  # hot, mid, tail
        _cdf(_bucket_mix(spec.behavior_mix, hard_factor=factor))
        for factor in (0.2, 2.2, 0.7)
    ]
    cuts = [int(0.08 * spec.n_functions), int(0.45 * spec.n_functions)]
    cond_blocks = np.flatnonzero(program.is_conditional)
    buckets = np.searchsorted(cuts, program.func_of_block[cond_blocks], side="right")
    behaviors: List[Optional[Behavior]] = [None] * program.n_blocks
    for block, bucket in zip(cond_blocks.tolist(), buckets.tolist()):
        kind = kinds[_pick(bucket_cdfs[bucket], rng)]
        behaviors[block] = _draw_behavior(spec, kind, rng, lengths, length_cdf)

    # Request skeletons: each request type is a fixed sequence of function
    # calls, skewed toward canonically hot functions.  Recurring skeletons
    # give branches recurring history contexts.
    ranks = np.arange(1, spec.n_functions + 1, dtype=np.float64)
    func_weights = ranks**-spec.zipf_exponent
    func_weights /= func_weights.sum()
    requests = []
    for _ in range(spec.n_requests):
        length = int(rng.integers(spec.request_length[0], spec.request_length[1] + 1))
        requests.append(rng.choice(spec.n_functions, size=length, p=func_weights).astype(np.int32))

    _rewire_followers(
        rng, requests, program.functions, program.is_conditional, behaviors,
        lengths, length_cdf,
    )
    return behaviors, requests


def build_program(spec: AppSpec) -> Program:
    """Synthesise the static program for an :class:`AppSpec`.

    Deterministic in ``spec.seed``: the same spec always yields the same
    functions, block sizes, code layout, and planted behaviours.  Only
    the layout is drawn here; the returned program draws its behaviour
    model on first use, continuing the same generator stream (see the
    module docstring for the draw-order contract).
    """
    rng = np.random.default_rng(spec.seed)

    blocks_per_function = rng.integers(
        spec.min_blocks, spec.max_blocks + 1, size=spec.n_functions
    )
    n_blocks = int(blocks_per_function.sum())

    block_sizes = rng.integers(
        spec.min_block_instrs, spec.max_block_instrs + 1, size=n_blocks
    ).astype(np.int32)

    func_of_block = np.repeat(np.arange(spec.n_functions, dtype=np.int32), blocks_per_function)

    # Conditional mask: the last block of each function always ends in an
    # unconditional return; other blocks are conditional with probability
    # cond_fraction.
    is_conditional = rng.random(n_blocks) < spec.cond_fraction
    last_blocks = np.cumsum(blocks_per_function) - 1
    is_conditional[last_blocks] = False
    # The behaviour model continues the stream from here (_draw_model).
    model_state = rng.bit_generator.state

    # Code layout: functions placed in order, spread over the footprint so
    # instruction-cache pressure matches the configured code size.  A
    # block sits at its function's start plus the bytes of the blocks
    # before it in the chain.
    block_bytes = block_sizes.astype(np.int64) * INSTRUCTION_BYTES
    block_ends = np.cumsum(block_bytes)
    block_offsets = block_ends - block_bytes
    first_blocks = last_blocks + 1 - blocks_per_function
    func_bytes = block_ends[last_blocks] - block_offsets[first_blocks]
    spread = max(1.0, spec.footprint_bytes / max(int(block_bytes.sum()), 1))
    func_addrs = []
    addr = 0x400000  # conventional text-segment base
    for size in func_bytes.tolist():
        func_addrs.append(addr)
        # Inter-function gap stretches the layout to the target footprint.
        addr += size + int(size * (spread - 1.0))
        addr = (addr + 63) & ~63  # align functions to cache lines
    block_addrs = block_offsets + np.repeat(
        np.asarray(func_addrs, dtype=np.int64) - block_offsets[first_blocks],
        blocks_per_function,
    )

    functions = [
        Function(index=index, first_block=first, n_blocks=count)
        for index, (first, count) in enumerate(
            zip(first_blocks.tolist(), blocks_per_function.tolist())
        )
    ]

    return Program(
        spec=spec,
        block_sizes=block_sizes,
        block_addrs=block_addrs,
        func_of_block=func_of_block,
        is_conditional=is_conditional,
        functions=functions,
        model_state=model_state,
    )
