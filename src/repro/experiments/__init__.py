"""The paper's tables and figures, one module per artifact.

Each module holds everything about one table, figure or section of the
paper: the ``repro-lab`` preset that computes it (a ``*_scenario``
builder and the paper's claims its records show), the assembly of point
records into rows, and the ``format_*`` function that prints those rows
in the paper's layout.  Presets that extend a section without a paper
layout of their own live in that section's module (``krylov`` in
:mod:`~repro.experiments.sec8_ksm`, ``distributed`` and ``nvm-matmul``
in :mod:`~repro.experiments.sec7_model1`, ``cost-map`` in
:mod:`~repro.experiments.table2`).  :data:`repro.lab.scenarios.SCENARIOS`
names each preset's module and builder and imports the module only when
that preset is built, so a request compiles only its own preset's code.
"""

from typing import Any, Dict, List

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
__all__.append("point_rows")


def point_rows(results: List[Any]) -> List[Dict[str, Any]]:
    """Each point's params and record as one row."""
    return [{**res.point.params, **res.record} for res in results]
