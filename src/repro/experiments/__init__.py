"""The paper's tables and figures: layouts and geometries.

Each module owns one table or figure of the paper.  It holds the
``format_*`` function that prints rows in the paper's layout and
whatever is specific to that table: the Figure-2/5 geometry
(:class:`Fig2Config`) or the ``*_scenario`` decompositions of Tables
1–2, Section 7 and the LU trade-off.  The numbers themselves come from
the ``repro.lab`` presets (``repro-lab run fig2``), whose scenarios
import a module here only when that preset is built or rendered.
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "fig2": ("Fig2Config", "format_fig2"),
    "fig5": ("format_fig5",),
    "table1": ("format_table1",),
    "table2": ("format_table2",),
    "sec3_negative": ("format_sec3",),
    "sec4_counts": ("format_sec4",),
    "sec5_co": ("format_sec5",),
    "sec6_lru": ("format_sec6",),
    "sec7_model1": ("format_sec7_model1",),
    "sec8_ksm": ("format_sec8",),
    "lu_tradeoff": ("format_lu",),
})
