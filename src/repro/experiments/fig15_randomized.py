"""Fig 15 — randomized formula testing: quality and training time vs. the
fraction of formulas explored.

Paper: exploring 0.1 % of all formulas yields 88.3 % of the exhaustive
search's misprediction reduction while cutting training time by an order
of magnitude.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..analysis.metrics import mean
from ..core.whisper import WhisperConfig
from .runner import ExperimentContext, FigureResult

FRACTIONS = (0.001, 0.01, 0.1, 1.0)
#: Representative subset of the twelve applications.
APPS: Sequence[str] = ("mysql", "clang", "cassandra", "finagle-http")
#: Candidate branches per app; the cap keeps the figure's numbers
#: comparable with earlier runs.
MAX_CANDIDATES = 250


def run(ctx: ExperimentContext) -> FigureResult:
    """Reproduce Fig 15: Randomized formula testing: reduction and training time vs. % explored."""
    rows = []
    full_reduction = None
    for fraction in FRACTIONS:
        config = replace(
            WhisperConfig(), explore_fraction=fraction, max_candidates=MAX_CANDIDATES
        )
        reductions, times = [], []
        for app in APPS:
            base = ctx.baseline(app, 64, input_id=1)
            run_result = ctx.whisper_run(app, config=config)
            trained, _ = ctx.whisper(app, config=config)
            reductions.append(run_result.misprediction_reduction(base))
            times.append(trained.training_seconds)
        row_red = mean(reductions)
        rows.append([f"{100*fraction:g}%", round(row_red, 1), round(mean(times), 3)])
        if fraction == 1.0:
            full_reduction = row_red
    quality = (
        100.0 * float(rows[0][1]) / full_reduction if full_reduction else 0.0
    )
    return FigureResult(
        figure="Fig 15",
        title="Randomized formula testing: reduction and training time vs. % explored",
        headers=["formulas explored", "misprediction reduction %", "train seconds/app"],
        rows=rows,
        paper_note="0.1% exploration = 88.3% of exhaustive quality, ~10x faster",
        summary=f"0.1% exploration reaches {quality:.1f}% of exhaustive reduction",
        claims={"100% exploration trains longer than 0.1%": rows[-1][2] > rows[0][2]},
    )
