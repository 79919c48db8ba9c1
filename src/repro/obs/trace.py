"""Trace files: JSONL persistence, cross-process merge, span trees.

One orchestrated run produces one trace file (default
``benchmarks/results/trace.jsonl``): every line is one event dict from a
:class:`~repro.obs.recorder.Recorder` — span, counter, gauge, or
free-form (``cache``, ``task``).  Worker processes never touch the file;
they drain their recorder and return the events through task results,
and the parent calls :func:`merge_events` + :func:`write_events` once.
That keeps the write single-threaded and the file well-formed without
any cross-process locking; the write itself is atomic.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Union

PathLike = Union[str, pathlib.Path]

#: Default trace file name, written next to the run manifest.
TRACE_NAME = "trace.jsonl"


def write_events(path: PathLike, events: Sequence[dict]) -> pathlib.Path:
    """Commit events as JSON Lines (one compact document per line).

    The whole file is encoded first and then committed through the
    store's ``atomic_write``, so a failed write leaves the previous
    trace as it was.
    """
    # Imported here: obs is the bottom layer and imports nothing of the
    # orchestrator at module level.
    from ..orchestrator.store import atomic_write

    data = "".join(json.dumps(event, separators=(",", ":")) + "\n" for event in events)
    atomic_write(path, data.encode())
    return pathlib.Path(path)


def read_events(path: PathLike) -> List[dict]:
    """Load a JSONL trace file back into event dicts.

    Blank lines are tolerated; a malformed line raises ``ValueError``
    with its line number, since a broken trace should be loud.
    """
    events: List[dict] = []
    with pathlib.Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: malformed trace line") from error
    return events


def merge_events(*event_lists: Iterable[dict]) -> List[dict]:
    """Merge per-process event lists into one run-ordered stream.

    Span events sort by their epoch ``start`` (``time.time`` is shared
    across processes on one machine, so the interleaving is physically
    meaningful); counter/gauge/other events keep their relative order
    after the spans they were drained with.
    """
    merged: List[dict] = []
    for events in event_lists:
        merged.extend(events)
    return sorted(merged, key=lambda e: e.get("start", float("inf")))


def aggregate_counters(events: Iterable[dict]) -> Dict[str, float]:
    """Sum ``counter`` events by name across all processes."""
    totals: Dict[str, float] = {}
    for event in events:
        if event.get("type") == "counter":
            name = event["name"]
            totals[name] = totals.get(name, 0) + event.get("value", 0)
    return totals


def spans(events: Iterable[dict]) -> List[dict]:
    """Just the span events, in stream order."""
    return [e for e in events if e.get("type") == "span"]


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
class SpanNode:
    """One span plus its children, reconstructed from flat events."""

    __slots__ = ("event", "children")

    def __init__(self, event: dict) -> None:
        self.event = event
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.event.get("name", "?")

    @property
    def wall(self) -> float:
        return float(self.event.get("wall", 0.0))


def build_tree(events: Iterable[dict]) -> List[SpanNode]:
    """Reconstruct span nesting; returns root nodes in start order.

    Parent links only hold within one process (span ids embed the pid),
    so a merged multi-process trace yields one forest with each
    process's roots interleaved by start time.  A span whose parent was
    drained separately (or dropped on overflow) degrades to a root.
    """
    nodes: Dict[str, SpanNode] = {}
    ordered: List[SpanNode] = []
    for event in events:
        if event.get("type") != "span":
            continue
        node = SpanNode(event)
        nodes[event.get("span_id", "")] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    for node in ordered:
        parent = nodes.get(node.event.get("parent_id", ""))
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in ordered:
        node.children.sort(key=lambda n: n.event.get("start", 0.0))
    return sorted(roots, key=lambda n: n.event.get("start", 0.0))


def format_tree(
    events: Iterable[dict],
    max_depth: Optional[int] = None,
    min_wall: float = 0.0,
) -> str:
    """Indented text rendering of the span forest.

    ``min_wall`` hides spans shorter than the threshold (per-epoch spans
    make full trees long); hidden children are summarised as a count so
    the tree never silently understates the work done.
    """
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        attrs = node.event.get("attrs", {})
        attr_text = " ".join(f"{k}={v}" for k, v in attrs.items())
        lines.append(
            f"{'  ' * depth}{node.name:<{max(1, 28 - 2 * depth)}s} "
            f"{node.wall * 1000:9.1f} ms"
            + (f"  [{attr_text}]" if attr_text else "")
        )
        if max_depth is not None and depth + 1 >= max_depth:
            if node.children:
                lines.append(f"{'  ' * (depth + 1)}... {len(node.children)} child spans")
            return
        hidden = 0
        for child in node.children:
            if child.wall < min_wall:
                hidden += 1
                continue
            visit(child, depth + 1)
        if hidden:
            lines.append(f"{'  ' * (depth + 1)}... {hidden} spans < {min_wall * 1000:.0f} ms")

    hidden_roots = 0
    for root in build_tree(events):
        if root.wall < min_wall:
            hidden_roots += 1
            continue
        visit(root, 0)
    if hidden_roots:
        lines.append(f"... {hidden_roots} spans < {min_wall * 1000:.0f} ms")
    return "\n".join(lines) if lines else "(no spans)"
