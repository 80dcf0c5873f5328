"""Evaluation harness: Table-1 runner, ablations, text rendering."""

from .table1 import Table1Result, run_row, run_table, table1_jobs
from .render import render_table1
from .ablations import (
    ablation_fundep,
    ablation_opt_level,
    ablation_reach_bound,
    ablation_retiming,
    ablation_simulation,
)

__all__ = [
    "Table1Result",
    "ablation_fundep",
    "ablation_opt_level",
    "ablation_reach_bound",
    "ablation_retiming",
    "ablation_simulation",
    "render_table1",
    "run_row",
    "run_table",
    "table1_jobs",
]
