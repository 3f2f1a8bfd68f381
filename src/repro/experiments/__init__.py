"""The paper's tables and figures: layouts, geometries and table kernels.

Each module owns one table or figure of the paper.  It holds the
``format_*`` function that prints rows in the paper's layout and
whatever is specific to that table: the Figure-2/5 geometry
(:class:`Fig2Config`), the point kernels of Sections 3–5, or the
``*_scenario`` decompositions of Tables 1–2, Section 7 and the LU
trade-off.  The numbers themselves come from the ``repro.lab`` presets
(``repro-lab run fig2``).
"""

from repro.experiments.fig2 import Fig2Config, format_fig2
from repro.experiments.fig5 import format_fig5
from repro.experiments.table1 import format_table1
from repro.experiments.table2 import format_table2
from repro.experiments.sec3_negative import format_sec3
from repro.experiments.sec4_counts import format_sec4
from repro.experiments.sec5_co import format_sec5
from repro.experiments.sec6_lru import format_sec6
from repro.experiments.sec7_model1 import format_sec7_model1
from repro.experiments.sec8_ksm import format_sec8
from repro.experiments.lu_tradeoff import format_lu

__all__ = [
    "Fig2Config",
    "format_fig2",
    "format_fig5",
    "format_table1",
    "format_table2",
    "format_sec3",
    "format_sec4",
    "format_sec5",
    "format_sec6",
    "format_sec7_model1",
    "format_sec8",
    "format_lu",
]
