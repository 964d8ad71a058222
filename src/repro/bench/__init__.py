"""Benchmark harness regenerating every figure of the evaluation section.

One runner per paper figure (see DESIGN.md §3 for the experiment index):

=========  ==========================================================
Figure 8   runtime vs dimensionality, NBA-like data, Skyey vs Stellar
Figure 9   skyline groups vs subspace skyline objects, NBA-like data
Figure 10  the same two counts on the three synthetic distributions
Figure 11  runtime vs dimensionality on the three distributions
Figure 12  runtime vs database size on the three distributions
=========  ==========================================================

Runners accept a *scale* preset (``smoke`` / ``default`` / ``paper``):
``paper`` uses the publication's dataset sizes, ``default`` shrinks them so
a full sweep finishes in minutes on a laptop-class machine (the paper's
substrate was compiled C++; see DESIGN.md §4), and ``smoke`` is for tests.
Per-point *time budgets* skip an algorithm once a smaller configuration of
the same sweep exceeded the budget -- exactly the configurations where the
paper's log-scale plots show it losing by orders of magnitude.

Every CLI benchmark run also appends a normalized record to the
``BENCH_<figure>.json`` trajectory ledger (:mod:`repro.bench.ledger`);
``repro bench diff`` compares two entries and gates on regressions.
"""

from .figures import (
    FIGURES,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    run_figure,
)
from .harness import BenchPoint, SCALES, Scale, emit_trace, time_call
from .ledger import (
    LEDGER_FORMAT,
    LedgerEntry,
    Regression,
    append_entry,
    diff_entries,
    entry_from_result,
    ledger_path,
    load_entries,
    render_diff,
)
from .reporting import FigureResult, render_table

__all__ = [
    "FIGURES",
    "run_figure",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "FigureResult",
    "render_table",
    "Scale",
    "SCALES",
    "BenchPoint",
    "time_call",
    "emit_trace",
    # trajectory ledger
    "LEDGER_FORMAT",
    "LedgerEntry",
    "Regression",
    "ledger_path",
    "append_entry",
    "load_entries",
    "entry_from_result",
    "diff_entries",
    "render_diff",
]
