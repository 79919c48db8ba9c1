"""Versioned hint-table publishing and staleness measurement.

A published hint table is an immutable, content-addressed artifact:
its version id is the :func:`repro.orchestrator.keys.fingerprint` of
the canonical entry list (sorted ``[pc, encoded-brhint]`` pairs plus
the parent version), so two service runs that train identical hints
publish *identical version ids* — the byte-level determinism the demo
asserts.  Tables are sealed into the content-addressed orchestrator
store (kind ``"hints"``) when one is attached, and always kept in the
in-memory registry that backs ``get_hints(app, version)``.

Staleness is measured the only honest way: replay.  The rolling
profile's post-drift events run through the baseline predictor twice —
once with the stale table, once with the fresh one, both as
always-active :class:`repro.core.hint_buffer.TableHintRuntime` tables —
and the MPKI delta is the *staleness-MPKI* the service reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..core.hint_buffer import TableHintRuntime, _BufferEntry
from ..core.hints import BrHint
from ..core.whisper import TrainedBranch
from ..orchestrator.keys import artifact_key, fingerprint
from ..orchestrator.store import ArtifactStore
from ..profiling.trace import Trace
from .contracts import UnknownApp, UnknownVersion

#: Bumped when the published table payload changes shape.
HINTS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class HintVersion:
    """One immutable published hint-table version."""

    app: str
    version: str
    parent: str
    n_hints: int
    #: Ingested-event count at publish time (the freshness anchor).
    at_events: int
    #: Why it was published: "bootstrap" or "drift-refresh".
    reason: str

    def as_dict(self) -> dict:
        """JSON-safe view for status replies and summaries."""
        return {
            "app": self.app,
            "version": self.version,
            "parent": self.parent,
            "n_hints": self.n_hints,
            "at_events": self.at_events,
            "reason": self.reason,
        }


def encode_entries(hints: Dict[int, TrainedBranch]) -> Dict[int, int]:
    """Hint set -> ``{pc: encoded 33-bit brhint}`` wire/storage form."""
    return {int(pc): trained.to_brhint().encode() for pc, trained in hints.items()}


def runtime_table(
    entries: Dict[int, int], hash_op: str = "xor"
) -> Dict[int, _BufferEntry]:
    """Decoded always-active hint table for replay or client use."""
    return {
        int(pc): _BufferEntry(BrHint.decode(int(encoded)), hash_op)
        for pc, encoded in entries.items()
    }


class HintPublisher:
    """The registry of published hint-table versions, one per app lineage."""

    def __init__(
        self, store: Optional[ArtifactStore] = None, hash_op: str = "xor"
    ) -> None:
        self.store = store
        self.hash_op = hash_op
        self._versions: Dict[str, List[HintVersion]] = {}
        self._entries: Dict[Tuple[str, str], Dict[int, int]] = {}
        self._current: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def payload(self, app: str, entries: Dict[int, int], parent: str) -> dict:
        """The canonical JSON-safe table payload (fingerprint input)."""
        return {
            "schema": HINTS_SCHEMA_VERSION,
            "app": app,
            "hash_op": self.hash_op,
            "parent": parent,
            "entries": [[pc, entries[pc]] for pc in sorted(entries)],
        }

    def publish(
        self,
        app: str,
        hints: Dict[int, TrainedBranch],
        at_events: int,
        reason: str,
    ) -> HintVersion:
        """Seal one freshly trained hint set as a new version."""
        return self.publish_entries(app, encode_entries(hints), at_events, reason)

    def merged_entries(
        self,
        app: str,
        outcome_trained: Dict[int, Optional[TrainedBranch]],
        drifted_pcs: List[int],
    ) -> Dict[int, int]:
        """Current entries with the drifted branches' fresh verdicts applied.

        Undrifted entries pass through verbatim; a drifted branch with
        an accepted fresh hint is replaced (or added), and a drifted
        branch the fresh search rejected is dropped — serving its stale
        hint would mispredict its new behaviour.
        """
        current = self._current.get(app)
        entries = (
            dict(self._entries[(app, current)]) if current is not None else {}
        )
        for pc in drifted_pcs:
            trained = outcome_trained.get(pc)
            if trained is not None:
                entries[int(pc)] = trained.to_brhint().encode()
            else:
                entries.pop(int(pc), None)
        return entries

    def publish_entries(
        self,
        app: str,
        entries: Dict[int, int],
        at_events: int,
        reason: str,
    ) -> HintVersion:
        """Seal one encoded entry set as a new immutable version.

        The version id is the fingerprint of the canonical payload, so
        identical hints always yield the identical id; when a store is
        attached the payload is also committed as a ``"hints"`` artifact
        (crash-safe temp+rename, checksummed like everything else).
        """
        parent = self._current.get(app, "")
        payload = self.payload(app, entries, parent)
        version = fingerprint(payload)
        record = HintVersion(
            app=app,
            version=version,
            parent=parent,
            n_hints=len(entries),
            at_events=at_events,
            reason=reason,
        )
        self._versions.setdefault(app, []).append(record)
        self._entries[(app, version)] = entries
        self._current[app] = version
        if self.store is not None:
            key = artifact_key("hints", app=app, version=version)
            self.store.put("hints", key, payload)
        obs.add("serve.publish.versions")
        obs.event("serve.publish", app=app, version=version, reason=reason,
                  n_hints=len(entries))
        return record

    # ------------------------------------------------------------------
    def current_version(self, app: str) -> Optional[str]:
        return self._current.get(app)

    def versions(self, app: str) -> List[HintVersion]:
        return list(self._versions.get(app, []))

    def get_hints(
        self, app: str, version: Optional[str] = None
    ) -> Tuple[HintVersion, Dict[int, int]]:
        """Serve one published table (the current one by default).

        Raises :class:`UnknownApp` for an app with no lineage and
        :class:`UnknownVersion` for a version never published.
        """
        lineage = self._versions.get(app)
        if not lineage:
            raise UnknownApp(f"no hints published for app {app!r}")
        if version is None:
            version = self._current[app]
        for record in lineage:
            if record.version == version:
                return record, dict(self._entries[(app, version)])
        raise UnknownVersion(f"app {app!r} has no version {version!r}")


def staleness_mpki(
    trace: Trace,
    stale_entries: Dict[int, int],
    fresh_entries: Dict[int, int],
    predictor_factory: Callable[[], object],
    hash_op: str = "xor",
) -> Dict[str, float]:
    """MPKI cost of serving stale hints on post-drift traffic.

    Replays the same trace through a fresh baseline predictor with the
    stale table and again with the fresh table; the positive difference
    is the staleness-MPKI the service's refresh loop exists to reclaim.
    """
    from ..bpu.runner import simulate  # deferred: breaks an import cycle

    with obs.span("serve.staleness_replay", app=trace.app,
                  events=int(len(trace.block_ids))):
        stale = simulate(
            trace,
            predictor_factory(),
            runtime=TableHintRuntime(runtime_table(stale_entries, hash_op)),
        )
        fresh = simulate(
            trace,
            predictor_factory(),
            runtime=TableHintRuntime(runtime_table(fresh_entries, hash_op)),
        )
    delta = stale.mpki - fresh.mpki
    obs.gauge("serve.staleness_mpki", delta)
    return {
        "stale_mpki": stale.mpki,
        "fresh_mpki": fresh.mpki,
        "staleness_mpki": delta,
    }
