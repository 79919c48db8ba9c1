"""Rolling per-app branch profiles and the windowed drift detector.

Each application the service watches accumulates its clients' shards
into (a) a bounded event buffer — the service's working profile, used
for re-search and staleness replay — and (b) per-branch windowed
taken/not-taken statistics.  A *reference* snapshot of the per-branch
taken rates is pinned whenever a hint version publishes; the drift
detector compares the current window against that snapshot and flags
every branch whose direction distribution moved beyond a threshold
(the paper's deployment loop: production behaviour drifts, the profile
notices, only the moved branches are re-analysed).

Everything here is pure bookkeeping over ingested arrays — no RNG, no
wall-clock — so service state is a deterministic function of the shard
schedule, which is what makes two scripted runs publish byte-identical
hint tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..profiling.trace import Trace
from ..workloads.program import Program

#: Default cap on buffered events per app (the service's working set).
DEFAULT_BUFFER_EVENTS = 400_000

#: Default window for current-vs-reference rate comparison.
DEFAULT_WINDOW_EVENTS = 50_000

#: A branch must move its taken rate by more than this to count as drifted.
DEFAULT_DRIFT_THRESHOLD = 0.20

#: Branches below this many executions (in either window) are too noisy
#: to call drifted.
DEFAULT_MIN_EXECUTIONS = 32


@dataclass
class AppProfile:
    """The rolling profile state for one application."""

    app: str
    program: Program
    buffer_events: int = DEFAULT_BUFFER_EVENTS
    #: Buffered (block_ids, taken) chunks, oldest first; trimmed to cap.
    chunks: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    buffered: int = 0
    events_total: int = 0
    shards_total: int = 0
    #: Reference per-branch (execs, taken) pinned at the last publish.
    reference: Optional[Dict[int, Tuple[int, int]]] = None
    #: Ingested-event count when the reference was pinned.
    events_at_reference: int = 0

    def ingest(self, block_ids: np.ndarray, taken: np.ndarray) -> None:
        """Append one validated shard's events to the rolling buffer."""
        self.chunks.append((block_ids, taken))
        self.buffered += len(block_ids)
        self.events_total += len(block_ids)
        self.shards_total += 1
        while self.chunks and self.buffered - len(self.chunks[0][0]) >= self.buffer_events:
            self.buffered -= len(self.chunks[0][0])
            self.chunks.pop(0)

    def recent_arrays(self, max_events: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """The newest ``max_events`` buffered events as flat arrays."""
        if not self.chunks:
            return (np.empty(0, dtype=np.int32), np.empty(0, dtype=bool))
        block_ids = np.concatenate([c[0] for c in self.chunks])
        taken = np.concatenate([c[1] for c in self.chunks])
        if max_events is not None and len(block_ids) > max_events:
            block_ids = block_ids[-max_events:]
            taken = taken[-max_events:]
        return block_ids, taken

    def recent_trace(self, max_events: Optional[int] = None) -> Trace:
        """The rolling buffer as a replayable :class:`Trace`."""
        block_ids, taken = self.recent_arrays(max_events)
        return Trace(
            program=self.program,
            block_ids=block_ids,
            taken=taken,
            app=self.app,
            input_id=-1,  # synthesised from live shards, not a canned input
        )

    def window_stats(self, window_events: int) -> Dict[int, Tuple[int, int]]:
        """Per-branch (execs, taken) over the newest ``window_events``."""
        return self.recent_trace(window_events).per_branch_stats()

    def pin_reference(self, window_events: int) -> None:
        """Snapshot the current window as the drift baseline."""
        self.reference = self.window_stats(window_events)
        self.events_at_reference = self.events_total

    @property
    def freshness_events(self) -> int:
        """Events ingested since the live reference was pinned — the
        service's hint-freshness measure (0 = hints trained on now)."""
        if self.reference is None:
            return self.events_total
        return self.events_total - self.events_at_reference


class RollingProfileStore:
    """Per-app rolling profiles plus the windowed drift detector."""

    def __init__(
        self,
        buffer_events: int = DEFAULT_BUFFER_EVENTS,
        window_events: int = DEFAULT_WINDOW_EVENTS,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        min_executions: int = DEFAULT_MIN_EXECUTIONS,
    ) -> None:
        self.buffer_events = buffer_events
        self.window_events = window_events
        self.drift_threshold = drift_threshold
        self.min_executions = min_executions
        self._apps: Dict[str, AppProfile] = {}

    def ensure_app(self, app: str, program: Program) -> AppProfile:
        """The profile for an app, created on first sight."""
        profile = self._apps.get(app)
        if profile is None:
            profile = AppProfile(
                app=app, program=program, buffer_events=self.buffer_events
            )
            self._apps[app] = profile
        return profile

    def get(self, app: str) -> Optional[AppProfile]:
        return self._apps.get(app)

    def apps(self) -> List[str]:
        return sorted(self._apps)

    def drifted_branches(self, app: str) -> List[int]:
        """PCs whose windowed taken rate moved beyond the threshold.

        Compares the newest window against the pinned reference; with no
        reference yet (nothing published) every branch is implicitly
        fresh territory and nothing is *drifted* — the first publish is
        a full train, not a drift response.
        """
        profile = self._apps.get(app)
        if profile is None or profile.reference is None:
            return []
        current = profile.window_stats(self.window_events)
        drifted: List[int] = []
        for pc, (cur_execs, cur_taken) in current.items():
            ref = profile.reference.get(pc)
            if ref is None:
                continue  # brand-new branch: no baseline to drift from
            ref_execs, ref_taken = ref
            if cur_execs < self.min_executions or ref_execs < self.min_executions:
                continue
            moved = abs(cur_taken / cur_execs - ref_taken / ref_execs)
            if moved > self.drift_threshold:
                drifted.append(pc)
        return sorted(drifted)

    def status(self) -> Dict[str, dict]:
        """JSON-safe per-app counters for ``repro serve status``."""
        report: Dict[str, dict] = {}
        for app in self.apps():
            profile = self._apps[app]
            report[app] = {
                "events_total": profile.events_total,
                "shards_total": profile.shards_total,
                "buffered_events": profile.buffered,
                "freshness_events": profile.freshness_events,
                "drifted_branches": len(self.drifted_branches(app)),
            }
        return report
