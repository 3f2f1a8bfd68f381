"""Lower-bound catalogue (paper Sections 2, 5, 7)."""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "lower_bounds": ("F_CATALOGUE", "co_write_lower_bound",
                     "corollary1_write_lb", "matmul_traffic_lb",
                     "nbody_traffic_lb", "parallel_mm_bounds",
                     "theorem1_holds", "theorem1_write_to_fast_lb",
                     "theorem3_write_lb", "theorem4_l3_write_lb",
                     "wa_write_targets"),
})
