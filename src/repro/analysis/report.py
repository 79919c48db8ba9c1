"""EXPERIMENTS.md generation from regenerated figure results.

``repro run-all`` saves each regenerated table/figure as a text block
under ``benchmarks/results``; :func:`build_experiments_md` assembles them
— together with the paper's reference values, the run's scale and its
manifest — into the repository's ``EXPERIMENTS.md``.  Keeping this
generated (rather than hand-edited) means the recorded numbers always
match an actual run.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..experiments import FIGURES, figure_slug

#: Paper reference summary per experiment, used in the comparison table.
PAPER_REFERENCE: Dict[str, str] = {
    "table1": "12 data-center applications (Table I)",
    "table2": "6-wide OOO @ 3.2 GHz, 64KB TAGE-SC-L, 32KB L1i (Table II)",
    "table3": "a=8, N=1024, m=16, 8-bit hash, 4 ops, 32-entry buffer (Table III)",
    "fig01_limit_study": "ideal: +12.4% = 7.9% squash + 4.5% frontend",
    "fig02_mpki": "branch-MPKI avg 3.0 (0.5-7.2)",
    "fig03_classification": "capacity 76.4% of mispredictions",
    "fig04_prior_work": "ROMBF 8.4/8.9%; BranchNet 3.4/6.6%; Unl-BN 11.9%",
    "fig05_cdf": "SPEC top-50 >60%; data-center flat",
    "fig06_history_lengths": "most mispredictions need 32-1024 history",
    "fig07_op_distribution": "and 28.9, always 23.3, cnimpl 9.2, impl 8.8 (%)",
    "fig08_gate_delay": "19-gate delay, 15-bit encoding at n=8",
    "fig10_usage_model": "profile -> analyse -> inject -> hint buffer (usage model)",
    "fig11_encoding": "brhint = 4+15+2+12 = 33 bits",
    "fig12_speedup": "Whisper +2.8% (0.4-4.6); MTAGE-SC +6.3%; ideal +12.4%",
    "fig13_reduction": "Whisper 16.8% (1.7-32.4); +7.9 over best prior",
    "fig14_breakdown": "+6.4 hashed-history, +1.5 impl/cnimpl over 8b-ROMBF",
    "fig15_randomized": "0.1% exploration = 88.3% of exhaustive, ~10x faster",
    "fig16_training_time": "BranchNet >> 8b-ROMBF > Whisper > 4b-ROMBF",
    "fig17_inputs": "same-input profiles +6.6 points",
    "fig18_merging": "merging 1->5 inputs improves Whisper; leads throughout",
    "fig19_overhead": "static +11.4%, dynamic +9.8%",
    "fig20_128kb": "13.4% reduction over 128KB baseline",
    "fig21_predictor_size": ">10% reduction at every size; 11.2% at 1MB",
    "fig22_warmup": "17.5% at 0% warm-up, 16.8% at 50%",
    "fig23_trace_length": "~14.7% at 1B instructions",
    "ablation_allocation": "(extra) allocation suppression, paper §IV",
    "ablation_hint_buffer": "(extra) 32 entries ~ unlimited, Table III",
    "ablation_hash_op": "(extra) XOR fold chosen empirically, §III-A",
}

#: Presentation order: the figure registry's, as results-file slugs.
ORDER: Sequence[str] = tuple(figure_slug(name) for name in FIGURES)

_HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper, plus three ablations of Whisper's
design choices, regenerated by `repro run-all`.  Each section shows the
paper's reference values and the measured output verbatim;
`benchmarks/results/` holds the same blocks individually.

**Reading the numbers.**  Absolute magnitudes shift with trace scale
(the paper simulates 100 M instructions per application; this run used
the scale recorded in each block).  The claims this reproduction holds
itself to are the *shapes*: who wins, rough factors, where crossovers
fall.  Known deviations are listed in DESIGN.md ("Scale substitutions
and calibration decisions") — chiefly the smaller MTAGE-SC headroom and
the lower absolute hint overheads, both direct consequences of profile
scale.

**Training seconds.**  Fig 15's and Fig 16's seconds columns time this
implementation, not the paper's, and move with the host's load from run
to run.  The exhaustive search runs compiled, so a cold `small` run on
a 2-core host reads about 0.03 s per app at 0.1 % exploration and
0.065 s at 100 % in Fig 15: a ~2× gap, not the paper's ~10×, because
each app's training tables now cost about as much as its exhaustive
search.  The 10 % row, which scores 3,277 candidates' truth tables in
NumPy, costs more than the 100 % row.  Fig 16's modelled work units
(explored formulas × distinct hash keys) carry the cost comparison.

**Regenerating.**  `REPRO_SCALE` (`small`/`medium`/`full`) selects the
trace length per application.  `python -m repro.cli run-all --jobs N`
rebuilds the suite through the orchestrator: independent per-app
pipelines run across N processes, intermediates persist in the
content-addressed artifact cache (`.repro-cache/`, see README), and the
run's execution record lands in `benchmarks/results/manifest.json` —
summarised below when present.

**Sweeping the design space.**  Beyond the canonical figure set,
`repro sweep run` expands a declarative TOML spec over the same local
or cluster backends and appends one content-addressed row per
configuration to the experiment registry
(`benchmarks/results/registry/`).
`examples/sweeps/fig21_predictor_size.toml` covers Fig 21's
predictor-size axis across all twelve applications — 96 whisper
configurations plus 12 baseline denominators; `repro runs query`
slices whatever has accumulated, and a registry summary section
appears below when rows are present.
"""


@dataclass
class ExperimentEntry:
    """One saved figure/table result as discovered on disk."""
    slug: str
    measured_text: str

    @property
    def reference(self) -> str:
        return PAPER_REFERENCE.get(self.slug, "")


def load_results(results_dir: pathlib.Path) -> List[ExperimentEntry]:
    """Read every saved figure block, in presentation order."""
    entries: List[ExperimentEntry] = []
    for slug in ORDER:
        path = results_dir / f"{slug}.txt"
        if path.exists():
            entries.append(ExperimentEntry(slug=slug, measured_text=path.read_text()))
    return entries


def summary_table(entries: Sequence[ExperimentEntry]) -> str:
    """A compact paper-vs-measured overview table."""
    lines = [
        "| experiment | paper | measured |",
        "|---|---|---|",
    ]
    for entry in entries:
        measured = ""
        for line in entry.measured_text.splitlines():
            if line.startswith("measured: "):
                measured = line[len("measured: "):]
                break
        lines.append(f"| {entry.slug} | {entry.reference} | {measured} |")
    return "\n".join(lines)


def manifest_section(results_dir: pathlib.Path) -> Optional[str]:
    """A run-observability section from the orchestrator's manifest.

    ``repro run-all`` drops ``manifest.json`` next to the figure texts;
    when present, the generated document records how the run was
    executed — parallelism, wall time, cache behaviour — so recorded
    numbers stay traceable to their runs.
    """
    from ..orchestrator.manifest import MANIFEST_NAME, load_manifest

    manifest = load_manifest(results_dir / MANIFEST_NAME)
    if manifest is None:
        return None
    return (
        "## Run manifest\n\n"
        "Execution record of the `repro run-all` invocation that produced\n"
        "these results (see `benchmarks/results/manifest.json`):\n\n"
        "```\n" + "\n".join(manifest.summary_lines()) + "\n```\n"
    )


def trace_section(results_dir: pathlib.Path) -> Optional[str]:
    """A per-stage runtime/cache section from the run's obs trace.

    ``repro run-all`` leaves ``trace.jsonl`` next to the figure texts
    unless tracing was disabled (``REPRO_OBS=off``).  The section embeds
    the same Markdown tables ``repro trace summarize --markdown``
    prints: wall/CPU seconds per pipeline stage and per-figure runtimes,
    so the cost of regenerating each experiment is part of the record.
    """
    from ..obs.report import summarize, summary_lines
    from ..obs.trace import TRACE_NAME, read_events

    path = results_dir / TRACE_NAME
    if not path.exists():
        return None
    try:
        events = read_events(path)
    except (ValueError, OSError):
        return None
    if not events:
        return None
    body = "\n".join(summary_lines(summarize(events), markdown=True))
    return (
        "## Run timing (observability trace)\n\n"
        "Per-stage cost of the run that produced these results, from the\n"
        "structured trace (`benchmarks/results/trace.jsonl`); regenerate\n"
        "this view any time with `repro trace summarize --markdown`:\n\n"
        + body + "\n"
    )


#: Where ``repro serve demo --out`` drops its canonical summary for the
#: generated serving section.
SERVE_DEMO_NAME = "serve_demo.json"


def serve_section(results_dir: pathlib.Path) -> Optional[str]:
    """A staleness-MPKI section from the hint-service demo summary.

    ``repro serve demo --out benchmarks/results/serve_demo.json``
    leaves the scripted serving scenario's canonical summary behind;
    when present, the generated document records the deployment-loop
    result: drift detected, re-search scoped to the drifted branches,
    and the replay-measured MPKI cost stale hints would have had on
    post-drift traffic.
    """
    import json

    path = results_dir / SERVE_DEMO_NAME
    if not path.exists():
        return None
    try:
        summary = json.loads(path.read_text())
    except (ValueError, OSError):
        return None
    body = "\n".join(
        [
            f"app                    {summary.get('app')}",
            f"clients                {summary.get('clients')}",
            f"events per phase       {summary.get('events_per_phase')}",
            f"branches rotated       {len(summary.get('rotated_branches', []))}",
            f"drift detected         {len(summary.get('drifted', []))} branches",
            f"re-searched (scoped)   {len(summary.get('searched', []))} branches",
            f"bootstrap version      {summary.get('bootstrap_version')} "
            f"({summary.get('bootstrap_hints')} hints)",
            f"refreshed version      {summary.get('refreshed_version')} "
            f"({summary.get('refreshed_hints')} hints)",
            f"stale-table MPKI       {summary.get('stale_mpki')}",
            f"fresh-table MPKI       {summary.get('fresh_mpki')}",
            f"staleness-MPKI         {summary.get('staleness_mpki')}",
        ]
    )
    return (
        "## Continuous serving (staleness-MPKI)\n\n"
        "Whisper's deployment loop (paper §VI) measured end to end by\n"
        "`repro serve demo`: simulated hosts stream two phases of traffic\n"
        "with branch behaviour rotating at the phase boundary; the service\n"
        "bootstraps a hint table on phase-0 traffic, detects the drift,\n"
        "re-searches only the drifted branches, and publishes a fresh\n"
        "version.  Staleness-MPKI is measured by replaying the post-drift\n"
        "window under the stale and fresh tables "
        "(`benchmarks/results/serve_demo.json`):\n\n"
        "```\n" + body + "\n```\n"
    )


#: Rows shown verbatim in the generated registry section; a fleet-scale
#: sweep can hold thousands, so the document keeps a deterministic
#: prefix (query order is sorted) and states how many it elided.
SWEEP_SECTION_MAX_ROWS = 32


def sweep_section(results_dir: pathlib.Path) -> Optional[str]:
    """A design-space section from the experiment registry, if any.

    ``repro sweep run`` accumulates one content-addressed row per
    configuration under ``<results>/registry/``; when rows exist, the
    generated document embeds the same table ``repro runs query``
    prints (sorted by sweep then config id, so the section is stable
    across regenerations).
    """
    from .. import registry

    rows = registry.query(results_dir)
    if not rows:
        return None
    shown = rows[:SWEEP_SECTION_MAX_ROWS]
    body = "\n".join(registry.table_lines(shown))
    if len(rows) > len(shown):
        body += f"\n... ({len(rows) - len(shown)} more rows)"
    return (
        "## Design-space sweeps (experiment registry)\n\n"
        f"{len(rows)} configuration row(s) accumulated under\n"
        "`benchmarks/results/registry/` by `repro sweep run`; slice any\n"
        "subset with `repro runs query`:\n\n"
        "```\n" + body + "\n```\n"
    )


def build_experiments_md(
    results_dir: pathlib.Path, output_path: Optional[pathlib.Path] = None
) -> str:
    """Assemble EXPERIMENTS.md; returns the document text."""
    entries = load_results(results_dir)
    parts = [_HEADER]
    manifest_part = manifest_section(results_dir)
    if manifest_part:
        parts.append(manifest_part)
    trace_part = trace_section(results_dir)
    if trace_part:
        parts.append(trace_part)
    serve_part = serve_section(results_dir)
    if serve_part:
        parts.append(serve_part)
    sweep_part = sweep_section(results_dir)
    if sweep_part:
        parts.append(sweep_part)
    if entries:
        parts.append("## Overview\n")
        parts.append(summary_table(entries))
        parts.append("\n## Per-experiment detail\n")
        for entry in entries:
            parts.append(f"### {entry.slug}\n")
            if entry.reference:
                parts.append(f"*paper:* {entry.reference}\n")
            parts.append("```\n" + entry.measured_text.rstrip() + "\n```\n")
    else:
        parts.append(
            "\n*(No benchmark results found — run "
            "`repro run-all` first.)*\n"
        )
    text = "\n".join(parts)
    if output_path is not None:
        output_path.write_text(text)
    return text
