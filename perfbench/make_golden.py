"""Regenerate ``sec6_golden.json``: the seed-independent counters of every
point of the benchmark's ``sec6`` sweep, computed through the engine's
unbatched per-point replay (the benchmark's own runs take the batched
paths).

Run from the repository root (about 10 s)::

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

import json
from pathlib import Path

from repro.lab.executor import execute
from repro.lab.scenarios import get_scenario
from run import SEC6_SETS

#: record fields that do not depend on the machine's read/write costs.
FIELDS = ("accesses", "hits", "misses", "fills", "victims_m", "victims_e",
          "flush_writebacks", "writebacks", "write_lb")


def main():
    scenario = get_scenario("sec6").with_overrides(SEC6_SETS, hw={})
    report = execute(scenario.points(), cache=None, multi_capacity=False,
                     batch=False)
    points = {}
    for res in report.results:
        key = (f"{res.point.params['scheme']}/"
               f"{res.point.params['cache_blocks']}/"
               f"{res.point.machine.policy}")
        points[key] = {f: res.record[f] for f in FIELDS}
    doc = {"line_size": scenario.machine.line_size, "points": points}
    out = Path(__file__).resolve().parent / "sec6_golden.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(points)} points to {out}")


if __name__ == "__main__":
    main()
