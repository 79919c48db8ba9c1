"""Runtime hint buffer and the Whisper hint runtime (paper §IV).

When a brhint instruction executes, its four fields are parked in a small
hint buffer (32 entries in the paper's sensitivity study).  While
predicting a branch, the buffer is probed in parallel with the branch
predictor; on a hit the hint's formula (or bias) supplies the prediction
and the online predictor is told not to allocate for the branch.

:class:`WhisperRuntime` plugs this machinery into the trace-replay runner
(:mod:`repro.bpu.runner`): ``on_block`` models brhint execution (the
hints injected into that block are loaded), ``predict`` models the
parallel probe.  An entry's ``predict_rows`` is the batched form of
its prediction; this runtime and the bufferless
:class:`TableHintRuntime` call it in their batched pre-passes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bpu.runner import HintRuntime, RunContext
from ..core.formulas import FormulaTree
from ..core.hashing import fold_history
from .hints import BIAS_NONE, BIAS_NOT_TAKEN, BIAS_TAKEN, BrHint

#: Paper default (Table III).
DEFAULT_BUFFER_ENTRIES = 32


class _BufferEntry:
    __slots__ = ("hint", "formula", "length", "hash_op")

    def __init__(self, hint: BrHint, hash_op: str = "xor") -> None:
        self.hint = hint
        self.formula: Optional[FormulaTree] = hint.formula()
        self.length = hint.history_length
        self.hash_op = hash_op

    def predict(self, history: int) -> bool:
        bias = self.hint.bias
        if bias == BIAS_TAKEN:
            return True
        if bias == BIAS_NOT_TAKEN:
            return False
        hashed = fold_history(history, self.length, op=self.hash_op)
        return bool(self.formula.evaluate(hashed))

    def predict_rows(self, batch, rows: np.ndarray) -> np.ndarray:
        """:meth:`predict` at conditional rows ``rows`` of a
        :class:`~repro.bpu.vector.ReplayBatch`, over its hashed-history
        column."""
        if self.hint.bias != BIAS_NONE:
            return np.full(len(rows), self.hint.bias == BIAS_TAKEN)
        hashed = batch.hashed_column(self.length, self.hash_op)[rows]
        return np.asarray(self.formula.evaluate_batch(hashed), dtype=bool)

    def __call__(self, history: int) -> bool:
        # TableHintRuntime's scalar path calls entries as ``entry(history)``;
        # delegating keeps buffer entries usable as table entries too.
        return self.predict(history)


class HintBuffer:
    """A small LRU buffer of in-flight hints, keyed by branch PC."""

    def __init__(self, capacity: Optional[int] = DEFAULT_BUFFER_ENTRIES) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unlimited)")
        self.capacity = capacity
        self._entries: "OrderedDict[int, _BufferEntry]" = OrderedDict()
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Empty the buffer and zero the load/hit/eviction counters."""
        self._entries.clear()
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    def load(self, branch_pc: int, entry: "_BufferEntry | BrHint") -> None:
        """Model executing a brhint: park the hint, evicting LRU if full."""
        self.loads += 1
        if branch_pc in self._entries:
            self._entries.move_to_end(branch_pc)
            return
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if isinstance(entry, BrHint):
            entry = _BufferEntry(entry)
        self._entries[branch_pc] = entry

    def lookup(self, branch_pc: int) -> Optional[_BufferEntry]:
        """LRU lookup; counts a hit and refreshes recency when present."""
        entry = self._entries.get(branch_pc)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(branch_pc)
        return entry


class WhisperRuntime(HintRuntime):
    """Hint runtime driven by a link-time hint placement.

    ``placements`` maps a basic-block id to the hints whose brhint
    instructions were injected into that block, each paired with the PC
    of the branch it covers.
    """

    def __init__(
        self,
        placements: Dict[int, List[Tuple[int, BrHint]]],
        buffer_entries: Optional[int] = DEFAULT_BUFFER_ENTRIES,
        hash_op: str = "xor",
    ) -> None:
        self.placements = placements
        self.buffer = HintBuffer(buffer_entries)
        # Decode each hint's formula once; buffer loads then share entries.
        self._decoded: Dict[int, List[Tuple[int, _BufferEntry]]] = {
            block: [(pc, _BufferEntry(hint, hash_op)) for pc, hint in hints]
            for block, hints in placements.items()
        }

    def reset(self) -> None:
        self.buffer.clear()

    def on_block(self, block_id: int) -> None:
        hints = self._decoded.get(block_id)
        if hints:
            for branch_pc, entry in hints:
                self.buffer.load(branch_pc, entry)

    def predict(self, pc: int, ctx: RunContext) -> Optional[bool]:
        """Evaluate the hinted formula for a PC; None defers to the BPU."""
        entry = self.buffer.lookup(pc)
        if entry is None:
            return None
        return entry.predict(ctx.history)

    def predict_batch(self, batch):
        """Batched hint pre-pass over a :class:`~repro.bpu.vector.ReplayBatch`.

        The buffer's LRU state is inherently sequential: one compiled
        walk (:func:`repro.bpu.native.hint_walk`) drives it over the
        trace, as ``on_block`` and ``predict`` do, and names the load
        whose entry each probe hit.  Formula evaluation is then batched
        per shared decoded entry over precomputed hashed-history
        columns.  Buffer statistics (loads/hits/evictions) and the
        buffer's final contents match the scalar replay.

        The runner calls it on the compiled path only, right after
        ``reset`` has emptied the buffer the walk starts from.  Returns
        ``(hinted, predictions)`` bool columns over conditional
        branches, or None — the scalar replay loop then runs — when a
        placement names a block outside the trace's program.
        """
        from ..bpu import native

        hinted = np.zeros(batch.n, dtype=bool)
        predictions = np.zeros(batch.n, dtype=bool)
        if not self._decoded:
            return hinted, predictions
        program = batch.trace.program
        n_blocks = len(program.block_sizes)
        blocks = sorted(self._decoded)
        if blocks[0] < 0 or blocks[-1] >= n_blocks:
            return None  # foreign placement; the scalar loop runs

        loads = [load for block in blocks for load in self._decoded[block]]
        per_block = np.zeros(n_blocks + 1, dtype=np.int64)
        per_block[np.asarray(blocks) + 1] = [len(self._decoded[b]) for b in blocks]
        hit, counts, final_pcs, final_loads = native.hint_walk(
            batch.trace.block_ids,
            program.branch_pcs,
            program.is_conditional,
            np.cumsum(per_block),
            [pc for pc, _ in loads],
            self.buffer.capacity,
        )
        buffer = self.buffer
        buffer.loads += counts[0]
        buffer.hits += counts[1]
        buffer.evictions += counts[2]
        buffer._entries = OrderedDict(
            (pc, loads[load][1])
            for pc, load in zip(final_pcs.tolist(), final_loads.tolist())
        )

        # Group probe hits by the load that parked their entry; each
        # entry evaluates once over its gathered rows.
        probes = np.flatnonzero(hit >= 0)
        probes = probes[np.argsort(hit[probes], kind="stable")]
        parked = hit[probes]
        starts = np.flatnonzero(np.diff(parked, prepend=-1))
        for load, pos in zip(parked[starts].tolist(), np.split(probes, starts[1:])):
            predictions[pos] = loads[load][1].predict_rows(batch, pos)
        hinted[probes] = True
        return hinted, predictions


class TableHintRuntime(HintRuntime):
    """Always-active hint table (no buffer, no injection).

    Models schemes that annotate branch instructions directly — the ROMBF
    baseline, and Whisper's infinite-buffer ablation.  ``table`` maps a
    branch PC to a predictor callable ``(history:int) -> bool``; an
    entry that also has ``predict_rows(batch, rows)`` (a Whisper buffer
    entry, a ROMBF entry) evaluates in the batched pre-pass.
    """

    def __init__(self, table: Dict[int, object]) -> None:
        self.table = table

    def predict(self, pc: int, ctx: RunContext) -> Optional[bool]:
        """Look up the precomputed hint table; None defers to the BPU."""
        entry = self.table.get(pc)
        if entry is None:
            return None
        return entry(ctx.history)

    def predict_batch(self, batch):
        """Vectorised hint pre-pass: the table is stateless, so covered
        branches are grouped by PC and each entry's ``predict_rows``
        evaluates them in one shot.  Returns ``None`` when an entry has
        no ``predict_rows`` (a plain callable): the scalar replay loop
        then runs."""
        hinted = np.zeros(batch.n, dtype=bool)
        predictions = np.zeros(batch.n, dtype=bool)
        if not self.table or batch.n == 0:
            return hinted, predictions

        table = self.table
        pcs_arr = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
        selected = np.flatnonzero(np.isin(batch.pcs, pcs_arr))
        if selected.size == 0:
            return hinted, predictions
        order = np.argsort(batch.pcs[selected], kind="stable")
        sorted_sel = selected[order]
        sorted_pcs = batch.pcs[sorted_sel]
        boundaries = np.flatnonzero(np.diff(sorted_pcs)) + 1
        for group in np.split(sorted_sel, boundaries):
            predict_rows = getattr(table[int(batch.pcs[group[0]])], "predict_rows", None)
            if predict_rows is None:
                return None
            predictions[group] = predict_rows(batch, group)
            hinted[group] = True
        return hinted, predictions
