"""Experiment harnesses reproducing every figure and table of the paper.

Each module exposes a ``run_*`` function that returns a structured result
(rows / series matching the paper's artifact) plus a ``format_*`` helper that
renders it as text.  Each harness takes only the grid fields it reads, with
the paper's values as defaults, so the same code runs the paper-scale grids
or scaled-down ones.

==================  ===========================================  =======================
Paper artifact      Harness                                      What it reports
==================  ===========================================  =======================
Figure 1            :func:`repro.experiments.figure1.run_figure1`  optimal ``g`` vs ``eps_inf`` per ``alpha``
Figure 2            :func:`repro.experiments.figure2.run_figure2`  approximate variance V* per protocol
Figure 3 (a-d)      ``empirical.render_figure(FIGURE3, ...)``      empirical ``MSE_avg`` per protocol/dataset
Figure 4 (a-d)      ``empirical.render_figure(FIGURE4, ...)``      empirical ``eps_avg`` per protocol/dataset
Table 1             :func:`repro.experiments.table1.run_table1`    communication / complexity / budget
Table 2             :func:`repro.experiments.table2.run_table2`    dBitFlipPM change-detection percentage
==================  ===========================================  =======================

Figures 3 and 4 are two renderings of one simulated grid,
:func:`~repro.experiments.empirical.paper_sweep_spec`: run it once with
:func:`~repro.simulation.run_sweep_spec` (or ``repro-ldp sweep --spec``) and
render both figures from its sweep rows.
"""

from .empirical import (
    FIGURE3,
    FIGURE4,
    format_figure,
    paper_protocol_specs,
    paper_sweep_spec,
    render_figure,
)
from .figure1 import run_figure1, format_figure1
from .figure2 import run_figure2, format_figure2
from .table1 import run_table1, format_table1
from .table2 import run_table2, format_table2
from .report import ascii_curve, format_table

__all__ = [
    "paper_protocol_specs",
    "paper_sweep_spec",
    "FIGURE3",
    "FIGURE4",
    "render_figure",
    "format_figure",
    "run_figure1",
    "format_figure1",
    "run_figure2",
    "format_figure2",
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "ascii_curve",
    "format_table",
]
