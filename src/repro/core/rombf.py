"""ROMBF baseline: Jimenez et al., "Boolean formula-based branch
prediction for future technologies" (PACT 2001), as evaluated in the
paper (§II-D, Figs 4, 12, 13, 14, 16, 18).

The original scheme annotates a branch with a *read-once monotone*
Boolean formula — AND/OR-only tree, no inversion stage, encoded in
``N - 1`` bits — over the branch's **raw** last-``N`` global history
bits (no hashing, fixed length).  The paper studies the 4-bit and 8-bit
variants.  Tautology/contradiction (always/never-taken) annotations are
part of the original scheme and are included.

Because the formula space is tiny (``2**(N-1)`` trees), training is an
exhaustive, deterministic Algorithm-1 scan (no sampling, so no seed);
its cost still grows exponentially with ``N``, which is the
training-time story of Fig 16.  Each annotation is a
:class:`~repro.core.hint_buffer.TableHintRuntime` entry, which predicts
one history (``__call__``) or its branch's rows of a replay batch
(``predict_rows``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bpu.runner import _get_batch
from ..profiling.profile import BranchProfile
from .formulas import ROMBF_OPS, all_formula_table, formula_from_index
from .hint_buffer import TableHintRuntime
from .search import SearchResult
from .training import select_candidates


def _collect_samples(
    profile: BranchProfile, candidates: List[int], n_bits: int
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Raw last-``n_bits`` history and outcome per execution, per branch.

    Read from each trace's replay batch (the history column the hinted
    replay also uses, zero at trace start) at the candidates' rows, trace
    by trace, so every branch's samples stay in execution order.
    """
    wanted = np.asarray(candidates, dtype=np.int64)
    parts: Dict[int, Tuple[list, list]] = {pc: ([], []) for pc in candidates}
    for trace in profile.traces:
        batch = _get_batch(trace)
        column, _ = batch.raw_history_column(n_bits)
        rows = np.flatnonzero(np.isin(batch.pcs, wanted))
        rows = rows[np.argsort(batch.pcs[rows], kind="stable")]
        pcs, starts = np.unique(batch.pcs[rows], return_index=True)
        for pc, group in zip(pcs.tolist(), np.split(rows, starts[1:])):
            parts[pc][0].append(column[group])
            parts[pc][1].append(batch.taken[group])
    return {
        pc: (
            np.concatenate(h) if h else np.empty(0, dtype=np.int64),
            np.concatenate(o) if o else np.empty(0, dtype=bool),
        )
        for pc, (h, o) in parts.items()
    }


@dataclass
class RombfResult:
    """Trained per-branch ROMBF annotations."""

    n_bits: int
    annotations: Dict[int, SearchResult] = field(default_factory=dict)
    candidates_considered: int = 0
    training_seconds: float = 0.0
    #: Modelled training cost: formula-evaluations performed.  The
    #: original scheme scores every candidate formula against every raw
    #: profile sample, so this is ``n_formulas x n_samples`` summed over
    #: branches — the quantity behind Fig 16's exponential growth in N.
    work_units: int = 0

    @property
    def n_annotations(self) -> int:
        return len(self.annotations)

    @property
    def storage_bits_per_branch(self) -> int:
        """The original encoding: N - 1 op bits (plus the 2 bias codes)."""
        return self.n_bits - 1 + 2


class _RombfEntry:
    """Callable runtime entry: raw last-N history -> prediction."""

    __slots__ = ("formula", "bias_taken", "mask")

    def __init__(self, result: SearchResult, n_bits: int) -> None:
        self.mask = (1 << n_bits) - 1
        if result.bias is not None:
            self.formula = None
            self.bias_taken = result.bias == "taken"
        else:
            self.formula = result.formula
            self.bias_taken = False

    def __call__(self, history: int) -> bool:
        if self.formula is None:
            return self.bias_taken
        return bool(self.formula.evaluate(history & self.mask))

    def predict_rows(self, batch, rows: np.ndarray) -> np.ndarray:
        """:meth:`__call__` at conditional rows ``rows`` of a
        :class:`~repro.bpu.vector.ReplayBatch`, over its raw history
        column."""
        if self.formula is None:
            return np.full(len(rows), self.bias_taken)
        column, _ = batch.raw_history_column(self.mask.bit_length())
        return np.asarray(self.formula.evaluate_batch(column[rows]), dtype=bool)


class RombfOptimizer:
    """Profile-guided trainer for the ROMBF baseline."""

    def __init__(
        self,
        n_bits: int = 8,
        min_mispredictions: int = 2,
        min_executions: int = 8,
        acceptance_margin: float = 0.75,
        max_candidates: Optional[int] = None,
    ) -> None:
        if n_bits not in (4, 8):
            raise ValueError("the paper evaluates 4-bit and 8-bit ROMBF")
        self.n_bits = n_bits
        self.min_mispredictions = min_mispredictions
        self.min_executions = min_executions
        #: Same scaled-profile acceptance margin as Whisper's config, so
        #: the baselines compete under identical deployment rules.
        self.acceptance_margin = acceptance_margin
        self.max_candidates = max_candidates

    def train(self, profile: BranchProfile) -> RombfResult:
        """Exhaustively fit an AND/OR formula per mispredicting branch.

        Training follows the original scheme's cost model: every candidate
        formula is scored against every raw profile sample (there is no
        hashed aggregation — that is Whisper's contribution).  The scoring
        itself is vectorised over samples, and ``work_units`` records the
        modelled ``formulas x samples`` evaluation count.
        """
        start = time.perf_counter()
        candidates = select_candidates(
            profile.per_pc,
            min_mispredictions=self.min_mispredictions,
            min_executions=self.min_executions,
            max_candidates=self.max_candidates,
        )
        samples = _collect_samples(profile, candidates, self.n_bits)
        table = all_formula_table(self.n_bits, ROMBF_OPS)  # (F, 2**n)
        n_formulas = table.shape[0] + 2  # trees plus tautology/contradiction

        result = RombfResult(n_bits=self.n_bits, candidates_considered=len(candidates))
        for pc in candidates:
            histories, outcomes = samples[pc]
            if len(histories) == 0:
                continue
            # Score every formula against every sample.
            predictions = table[:, histories]  # (F, S)
            errors = (predictions != outcomes[np.newaxis, :]).sum(axis=1)
            best_f = int(np.argmin(errors))
            best_errors = int(errors[best_f])
            search_result = SearchResult(
                formula=formula_from_index(best_f, False, self.n_bits, ROMBF_OPS),
                mispredictions=best_errors,
                explored=n_formulas,
            )
            # Tautology / contradiction candidates (part of the original).
            n_taken = int(outcomes.sum())
            n_nottaken = len(outcomes) - n_taken
            if n_nottaken < best_errors:
                search_result = SearchResult(
                    formula=None, mispredictions=n_nottaken, bias="taken",
                    explored=n_formulas,
                )
                best_errors = n_nottaken
            if n_taken < best_errors:
                search_result = SearchResult(
                    formula=None, mispredictions=n_taken, bias="not-taken",
                    explored=n_formulas,
                )
                best_errors = n_taken
            result.work_units += n_formulas * len(outcomes)
            if best_errors < profile.per_pc[pc][1] * self.acceptance_margin:
                result.annotations[pc] = search_result
        result.training_seconds = time.perf_counter() - start
        return result

    def build_runtime(self, trained: RombfResult) -> TableHintRuntime:
        """Always-active annotation table (the original scheme embeds the
        formula in the branch instruction itself — no buffer, no hints)."""
        table = {
            pc: _RombfEntry(result, self.n_bits)
            for pc, result in trained.annotations.items()
        }
        return TableHintRuntime(table)
