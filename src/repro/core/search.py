"""Boolean formula search (paper Algorithm 1 + §III-B randomized testing).

Given the taken/not-taken hashed-history sample tables ``T`` and ``NT`` of
a branch, Algorithm 1 scans a candidate formula list and returns the
formula with the fewest mispredictions over the profile.  Whisper shrinks
the candidate list with *randomized formula testing*: a single
Fisher-Yates permutation of the whole encoding space is drawn once and
shared by every branch, and each branch only tests the first
``fraction`` of it.

There are two implementations:

* :func:`find_best_formula_scalar` — a direct transliteration of the
  paper's Algorithm 1 pseudocode (hash-table loops, ``satisfy`` checks).
  It is the oracle the tests compare against.
* :class:`FormulaSearch` — one exact batched computation over many *rows*,
  a row being one branch's dense T/NT counts ``t``, ``nt`` at one history
  length.  With ``d = nt - t``, every candidate's misprediction count is::

      errors(f, invert=0) = sum(t) + f . d
      errors(f, invert=1) = sum(nt) - f . d

  because a taken sample mispredicts when the formula says 0 and a
  not-taken sample mispredicts when it says 1.
  :meth:`FormulaSearch.search` returns each row's minimum over the
  candidate set, in bounded row chunks; :meth:`FormulaSearch.best_formulas`
  decodes Algorithm 1's winner (the earliest minimum in permutation
  order) only for the rows a caller keeps.  :meth:`FormulaSearch.find_best_formula`
  is a one-row call into the same path.

Large candidate sets use the **root split**: an ``n``-input formula's op
index is ``root·B^(n-2) + a·B^(n/2-1) + b``, where ``a`` and ``b`` index
the ``n/2``-leaf subtree formulas over the low and the high history bits.
Each root op is bilinear in its two inputs ``x`` and ``y`` (AND = xy,
OR = x + y − xy, IMPL = 1 − x + xy, CNIMPL = y − xy; one coefficient row
each in ``_BILINEAR``).  With ``d`` reshaped to ``D[hi, lo]`` and ``S``
the subtree truth table, every dot product then follows from
``S·Dᵀ·Sᵀ``, the two vectors of subtree sums and the row total: for the
paper's 8 inputs about 0.1 M multiply-adds per row instead of 4.2 M,
with no whole-space truth table.

A call takes one of three paths:

* fewer candidates than :data:`ROOT_SPLIT_SHARE` of the op space (the
  paper's 0.1 %, and Fig 15's 1 % and 10 %): products with the
  candidates' own truth tables, in NumPy;
* more: the root split in NumPy (:class:`_RootSplit`), whose op-space
  dot products are reduced over the candidates' columns;
* every encoding a candidate over 8 inputs (``fraction=1.0``: Fig 15/16's
  exhaustive point, Fig 14's hashed-only ROMBF point), when
  :func:`repro.bpu.runner.use_native` holds: the root split compiled
  (:func:`repro.bpu.native.split_search` and
  :func:`~repro.bpu.native.split_winners`), which reduces each root's
  bilinear form straight to the row's extremes and decodes the earliest
  winner without a per-row op-space table.  :meth:`FormulaSearch.search`
  and :meth:`FormulaSearch.best_formulas` each ask ``use_native`` once;
  on the scalar tier, or with no compiled library, they run the NumPy
  root split, which is the compiled pass's definition.

Counts are integers.  The NumPy paths' sums stay far below 2**53, so
their float64 arithmetic is exact; the compiled pass adds in int64.
Ties resolve exactly as in Algorithm 1 on every path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .formulas import (
    AND,
    CNIMPL,
    IMPL,
    OR,
    WHISPER_OPS,
    FormulaTree,
    all_formula_table,
    formula_from_index,
    formula_space_size,
)

#: Paper default: 0.1 % of all formulas reaches 88.3 % of exhaustive quality.
DEFAULT_EXPLORE_FRACTION = 0.001

#: Rows scored per block by :meth:`FormulaSearch.search`, and rows decoded
#: per block by :meth:`FormulaSearch.best_formulas`, on the NumPy paths.
#: They bound the (rows x op-space) float64 matrices held at once.
SEARCH_CHUNK = 64
DECODE_CHUNK = 16

#: Root-split scoring once the candidates number at least this share of
#: the op space (pre-inversion formulas); below it, direct products with
#: the candidates' own truth tables, which are cheaper there.
ROOT_SPLIT_SHARE = 0.25

#: :attr:`SearchResult.bias` for each bias code :meth:`FormulaSearch.search`
#: returns (0: a formula wins).
BIAS_NAMES: Tuple[Optional[str], ...] = (None, "taken", "not-taken")

#: Each root op as a bilinear form in its subtree outputs ``x`` (left, low
#: bits) and ``y`` (right): its coefficients of 1, x, y and x·y.
#: :meth:`_RootSplit.dots`, :meth:`_RootSplit.truth_rows` and the compiled
#: root split (:func:`repro.bpu.native.split_search`) all read these rows.
_BILINEAR = {
    AND: (0, 0, 0, 1),  # xy
    OR: (0, 1, 1, -1),  # x + y - xy
    IMPL: (1, -1, 0, 1),  # 1 - x + xy
    CNIMPL: (0, 0, 1, -1),  # y - xy
}


def _bilinear(op: int, one, x, y, xy):
    """Root op ``op``'s form applied to the terms ``one``, ``x``, ``y``
    and ``xy`` (one linear functional of 1, x, y and x·y).  Every
    coefficient is -1, 0 or 1, so each term is added or subtracted."""
    total = None
    for c, term in zip(_BILINEAR[op], (one, x, y, xy)):
        if not c:
            continue
        if total is None:
            total = term if c > 0 else -term
        elif c > 0:
            total = total + term
        else:
            total = total - term
    return total


def fisher_yates_permutation(n: int, seed: int = 0x5A17) -> np.ndarray:
    """A Fisher-Yates (Durstenfeld) shuffle of ``range(n)``.

    The paper generates the random order *once* and reuses it for every
    branch, so the permutation is a pure function of the seed.  Implemented
    explicitly (rather than ``rng.permutation``) to match the cited
    algorithm: walk from the end, swapping each slot with a uniformly
    random earlier slot.  The swap indices come from one vectorised draw,
    which yields the same stream as one ``rng.integers(0, i + 1)`` call
    per slot.
    """
    rng = np.random.default_rng(seed)
    perm = list(range(n))
    if n > 1:
        swaps = rng.integers(0, np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a formula search for one branch."""

    formula: Optional[FormulaTree]
    mispredictions: int
    bias: Optional[str] = None  # "taken" / "not-taken" when a constant wins
    explored: int = 0
    #: Wall seconds of the search; a batch's time divided by its rows.
    search_seconds: float = 0.0

    @property
    def is_bias(self) -> bool:
        return self.bias is not None

    def predict(self, hashed_history: int) -> bool:
        """Predict a direction from an 8-bit hashed history."""
        if self.bias is not None:
            return self.bias == "taken"
        if self.formula is None:
            raise ValueError("empty search result cannot predict")
        return bool(self.formula.evaluate(hashed_history))


def counts_to_arrays(
    taken: Dict[int, int], nottaken: Dict[int, int], n_inputs: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert T/NT hash tables into dense per-hashed-history count vectors."""
    size = 1 << n_inputs
    t = np.zeros(size, dtype=np.int64)
    nt = np.zeros(size, dtype=np.int64)
    for key, count in taken.items():
        t[key] += count
    for key, count in nottaken.items():
        nt[key] += count
    return t, nt


class _RootSplit:
    """The formula space split at its root op (see the module docstring)."""

    def __init__(self, n_inputs: int, ops_allowed: Tuple[int, ...]) -> None:
        half = n_inputs // 2
        # Row a: subtree formula a on every half-width input (one leaf: b0).
        sub = all_formula_table(half, ops_allowed) if half > 1 else np.array([[False, True]])
        self.sub = sub.astype(np.float64)
        self.ops = ops_allowed
        self.width = 1 << half
        self.n_sub = sub.shape[0]
        self.n_ops = len(ops_allowed) * self.n_sub**2

    def dots(self, d: np.ndarray) -> np.ndarray:
        """``f . d`` for every op index ``f`` (columns), per row of ``d``."""
        rows, width, sub = d.shape[0], self.width, self.sub
        grid = d.reshape(rows, width, width)  # [row, hi, lo]
        # q[row, hi, a] = sum_lo S[a, lo] D[hi, lo]; xy[row, a, b] = sum_hi q S[b, hi]
        q = (grid.reshape(rows * width, width) @ sub.T).reshape(rows, width, self.n_sub)
        xy = np.matmul(q.transpose(0, 2, 1), sub.T)
        x = (grid.sum(axis=1) @ sub.T)[:, :, None]
        y = (grid.sum(axis=2) @ sub.T)[:, None, :]
        one = grid.sum(axis=(1, 2))[:, None, None]
        out = np.empty((rows, len(self.ops), self.n_sub, self.n_sub))
        for root, op in enumerate(self.ops):
            out[:, root] = _bilinear(op, one, x, y, xy)
        return out.reshape(rows, self.n_ops)

    def truth_rows(self, op_index: np.ndarray) -> np.ndarray:
        """Truth tables (rows x 2**n_inputs, 0/1) of the given op indices."""
        root, rest = np.divmod(op_index, self.n_sub**2)
        a, b = np.divmod(rest, self.n_sub)
        history = np.arange(self.width**2)
        x = self.sub[a][:, history % self.width]
        y = self.sub[b][:, history // self.width]
        out = np.empty_like(x)
        for digit, op in enumerate(self.ops):
            pick = root == digit
            out[pick] = _bilinear(op, 1.0, x[pick], y[pick], x[pick] * y[pick])
        return out


def _selector(op_index: np.ndarray, n_ops: int):
    """Columns of the op-space dots to reduce over: every column, a
    subset, or ``None`` when no candidate carries this invert value."""
    if op_index.size == 0:
        return None
    unique = np.unique(op_index)
    return slice(None) if unique.size == n_ops else unique


class FormulaSearch:
    """Randomized formula search shared across all branches of a binary.

    Parameters
    ----------
    n_inputs:
        Width of the hashed history the formulas consume (paper: 8).
    ops_allowed:
        Single-unit op set; Whisper uses all four, the ROMBF baseline two.
    with_invert:
        Whether the encoding carries the final inversion mux.
    fraction:
        Share of the full encoding space each branch tests (paper: 0.001).
    include_bias:
        Also consider the constant always/never-taken predictions, which
        the brhint carries in its dedicated Bias field.
    seed:
        Seed of the one-time Fisher-Yates permutation.
    """

    def __init__(
        self,
        n_inputs: int = 8,
        ops_allowed: Tuple[int, ...] = WHISPER_OPS,
        with_invert: bool = True,
        fraction: float = DEFAULT_EXPLORE_FRACTION,
        include_bias: bool = True,
        seed: int = 0x5A17,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.n_inputs = n_inputs
        self.ops_allowed = ops_allowed
        self.with_invert = with_invert
        self.fraction = fraction
        self.include_bias = include_bias
        self.space_size = formula_space_size(n_inputs, len(ops_allowed), with_invert)
        n_candidates = max(1, int(round(fraction * self.space_size)))
        self._candidates = fisher_yates_permutation(self.space_size, seed)[:n_candidates]
        if with_invert:
            self._op_index = self._candidates >> 1
            self._invert = (self._candidates & 1).astype(bool)
        else:
            self._op_index = self._candidates
            self._invert = np.zeros(n_candidates, dtype=bool)
        self._split = _RootSplit(n_inputs, ops_allowed)
        self._truth: Optional[np.ndarray] = None
        if n_candidates < ROOT_SPLIT_SHARE * self._split.n_ops:
            self._truth = self._split.truth_rows(self._op_index)
        else:
            self._selectors = [
                _selector(self._op_index[self._invert == invert], self._split.n_ops)
                for invert in (False, True)
            ]
        #: Whether the compiled root split serves this search: 8 inputs,
        #: and every encoding a candidate.
        self._compiled = n_inputs == 8 and n_candidates == self.space_size
        self._kernel: Optional[Tuple] = None

    @property
    def candidates(self) -> np.ndarray:
        """Encoded candidate formulas, in permutation order."""
        return self._candidates

    def _dots(self, d: np.ndarray) -> np.ndarray:
        """Rows x candidates (permutation order) dot products."""
        if self._truth is not None:
            return d @ self._truth.T
        return self._split.dots(d)[:, self._op_index]

    def _errors(self, t: np.ndarray, nt: np.ndarray) -> np.ndarray:
        """Rows x candidates misprediction counts, in permutation order."""
        dots = self._dots((nt - t).astype(np.float64))
        total_taken = t.sum(axis=1)[:, None]
        total_nottaken = nt.sum(axis=1)[:, None]
        return np.where(self._invert, total_nottaken - dots, total_taken + dots)

    def _kernel_tables(self) -> Tuple:
        """``(n_sub, mask, coef, positions)`` for the compiled root split
        (:func:`repro.bpu.native.split_search`), built on its first call:
        the subtree truth tables as a mask whose columns past ``n_sub``
        copy subformula 0, the root ops' coefficient rows, and each op
        cell's permutation position per invert value, padded with
        :data:`~repro.bpu.native.SPLIT_NONE`."""
        if self._kernel is None:
            from ..bpu import native

            pad, n_sub = native.SPLIT_SUB, self._split.n_sub
            n_roots, n_invert = len(self.ops_allowed), 1 + self.with_invert
            columns = np.r_[np.arange(n_sub), np.zeros(pad - n_sub, dtype=np.int64)]
            mask = -self._split.sub[columns].T.astype(np.int64)
            coef = np.array([_BILINEAR[op] for op in self.ops_allowed], dtype=np.int64)
            order = np.empty(self.space_size, dtype=np.int64)
            order[self._candidates] = np.arange(self.space_size)
            positions = np.full((2, n_roots, pad, pad), native.SPLIT_NONE, dtype=np.int64)
            positions[:n_invert, :, :n_sub, :n_sub] = np.moveaxis(
                order.reshape(n_roots, n_sub, n_sub, n_invert), -1, 0
            )
            self._kernel = (n_sub, mask, coef, positions)
        return self._kernel

    def _compiled_minima(self, t: np.ndarray, nt: np.ndarray) -> np.ndarray:
        """:meth:`_minima` over the whole encoding space, from the
        compiled root split's extreme dot products."""
        from ..bpu import native

        n_sub, mask, coef, _ = self._kernel_tables()
        least, most = native.split_search(nt - t, n_sub, mask, coef).T
        best = t.sum(axis=1) + least
        if self.with_invert:
            best = np.minimum(best, nt.sum(axis=1) - most)
        return best

    def _minima(self, t: np.ndarray, nt: np.ndarray) -> np.ndarray:
        """Each row's minimum misprediction count over the candidates."""
        if self._truth is not None:
            return self._errors(t, nt).min(axis=1)
        dots = self._split.dots((nt - t).astype(np.float64))
        best = np.full(len(t), np.inf)
        plain, inverted = self._selectors
        if plain is not None:
            best = t.sum(axis=1) + dots[:, plain].min(axis=1)
        if inverted is not None:
            best = np.minimum(best, nt.sum(axis=1) - dots[:, inverted].max(axis=1))
        return best

    def search(self, taken: np.ndarray, nottaken: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 1 plus the Bias rule over every row at once.

        ``taken`` / ``nottaken`` are (rows x 2**n_inputs) sample counts.
        Returns each row's misprediction count (int64) and its bias code,
        an index into :data:`BIAS_NAMES`.  A constant prediction
        mispredicts every sample of the other direction; it wins only on
        a strict improvement, matching Algorithm 1's strict ``<`` update
        rule applied after the scan.
        """
        from ..bpu.runner import use_native

        t = np.asarray(taken)
        nt = np.asarray(nottaken)
        rows = len(t)
        if self._compiled and use_native(None):
            mispredictions = self._compiled_minima(t, nt)
        else:
            mispredictions = np.empty(rows, dtype=np.int64)
            for lo in range(0, rows, SEARCH_CHUNK):
                hi = lo + SEARCH_CHUNK
                mispredictions[lo:hi] = self._minima(t[lo:hi], nt[lo:hi])
        bias = np.zeros(rows, dtype=np.int8)
        if self.include_bias:
            for code, other_total in ((1, nt.sum(axis=1)), (2, t.sum(axis=1))):
                wins = other_total < mispredictions
                mispredictions = np.where(wins, other_total, mispredictions)
                bias[wins] = code
        if rows:
            obs.add("search.branches", rows)
            obs.add("search.formulas_tested", rows * len(self._candidates))
            bias_wins = int(np.count_nonzero(bias))
            if bias_wins:
                obs.add("search.bias_wins", bias_wins)
        return mispredictions, bias

    def best_formulas(self, taken: np.ndarray, nottaken: np.ndarray) -> List[FormulaTree]:
        """Algorithm 1's winning formula for each row: the earliest
        candidate, in permutation order, with the row's minimum error."""
        from ..bpu.runner import use_native

        t = np.asarray(taken)
        nt = np.asarray(nottaken)
        if self._compiled and use_native(None):
            from ..bpu import native

            n_sub, mask, coef, table = self._kernel_tables()
            totals = np.stack([t.sum(axis=1), nt.sum(axis=1)], axis=1)
            positions = native.split_winners(
                nt - t, totals, self.with_invert, n_sub, mask, coef, table
            ).tolist()
        else:
            positions = []
            for lo in range(0, len(t), DECODE_CHUNK):
                hi = lo + DECODE_CHUNK
                positions += np.argmin(self._errors(t[lo:hi], nt[lo:hi]), axis=1).tolist()
        return [
            formula_from_index(
                int(self._op_index[p]), bool(self._invert[p]), self.n_inputs, self.ops_allowed
            )
            for p in positions
        ]

    def find_best_formula(
        self,
        taken: Dict[int, int] | np.ndarray,
        nottaken: Dict[int, int] | np.ndarray,
    ) -> SearchResult:
        """Algorithm 1 over the randomized candidate subset, for one row."""
        start = time.perf_counter()
        if isinstance(taken, dict) or isinstance(nottaken, dict):
            t, nt = counts_to_arrays(dict(taken), dict(nottaken), self.n_inputs)
        else:
            t = np.asarray(taken, dtype=np.int64)
            nt = np.asarray(nottaken, dtype=np.int64)
        t, nt = t[None], nt[None]
        mispredictions, bias = self.search(t, nt)
        formula = self.best_formulas(t, nt)[0] if bias[0] == 0 else None
        return SearchResult(
            formula=formula,
            mispredictions=int(mispredictions[0]),
            bias=BIAS_NAMES[bias[0]],
            explored=len(self._candidates),
            search_seconds=time.perf_counter() - start,
        )


def satisfy(hashed_history: int, formula: FormulaTree) -> int:
    """Paper's ``satisfy(k, f)``: 1 if the formula predicts taken for ``k``."""
    return formula.evaluate(hashed_history)


def find_best_formula_scalar(
    taken: Dict[int, int],
    nottaken: Dict[int, int],
    formulas: Iterable[FormulaTree],
) -> Tuple[Optional[FormulaTree], int]:
    """Direct transliteration of Algorithm 1 (reference implementation).

    Returns ``(f, m')``: the candidate with the minimum misprediction count
    over the profile samples, keeping the earliest candidate on ties.
    """
    best_mispredictions = float("inf")
    best_formula: Optional[FormulaTree] = None
    for candidate in formulas:
        total = 0
        for key, count in taken.items():
            if satisfy(key, candidate) != 1:
                total += count
        for key, count in nottaken.items():
            if satisfy(key, candidate) == 1:
                total += count
        if total < best_mispredictions:
            best_formula = candidate
            best_mispredictions = total
    if best_formula is None:
        return None, 0
    return best_formula, int(best_mispredictions)


def decode_candidates(
    encodings: Sequence[int],
    n_inputs: int = 8,
    ops_allowed: Tuple[int, ...] = WHISPER_OPS,
    with_invert: bool = True,
) -> List[FormulaTree]:
    """Materialise :class:`FormulaTree` objects for encoded candidates."""
    return [
        FormulaTree.decode(int(e), n_inputs, ops_allowed, with_invert) for e in encodings
    ]
