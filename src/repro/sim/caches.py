"""Set-associative cache models for the instruction-side hierarchy.

These objects are the timing model's scalar oracle: the scalar kernel
walks every access through them.  There is one LRU body: the BTB is the
cache keyed on ``pc >> 2``.  The default tier walks the same streams
through the compiled :func:`repro.bpu.native.lru_walk`, with the set
counts of :func:`cache_sets` and :func:`set_count`.
"""

from __future__ import annotations

from typing import List


def set_count(entries: int, assoc: int) -> int:
    """Sets of an ``entries``-entry, ``assoc``-way array (at least one)."""
    return max(1, entries // assoc)


def cache_sets(size_kb: int, assoc: int, line_bytes: int = 64) -> int:
    """Sets of a ``size_kb`` cache of ``line_bytes`` lines."""
    return set_count((size_kb * 1024) // line_bytes, assoc)


class SetAssociativeCache:
    """A plain LRU set-associative cache keyed by line address."""

    def __init__(self, size_kb: int, assoc: int, line_bytes: int = 64) -> None:
        self.n_sets = cache_sets(size_kb, assoc, line_bytes)
        self.assoc = assoc
        self.line_bytes = line_bytes
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        """Drop all cached lines and zero the hit/miss counters."""
        self._sets = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Touch a line; returns True on hit.  Misses allocate (LRU)."""
        ways = self._sets[line_addr % self.n_sets]
        if line_addr in ways:
            ways.remove(line_addr)
            ways.append(line_addr)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.assoc:
            ways.pop(0)
        ways.append(line_addr)
        return False

    def probe(self, line_addr: int) -> bool:
        """Check residency without updating LRU or allocating."""
        return line_addr in self._sets[line_addr % self.n_sets]


class BranchTargetBuffer(SetAssociativeCache):
    """BTB model: taken branches must have an entry or pay a bubble.

    The LRU cache keyed on ``pc >> 2``, with ``entries`` keys in
    ``assoc``-way sets (an ``entries`` KB cache of 1 KB lines).
    :meth:`access` takes the PC; the inherited :meth:`probe` takes the
    key.
    """

    def __init__(self, entries: int = 8192, assoc: int = 4) -> None:
        super().__init__(entries, assoc, line_bytes=1024)

    def access(self, pc: int) -> bool:
        """Look up a branch PC; misses allocate (LRU) and cost a bubble."""
        return super().access(pc >> 2)
