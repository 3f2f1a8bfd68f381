"""``python -m repro.experiments NAME`` — the paper's tables under their
legacy names, as an alias of ``repro-lab run``.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig2 [--quick]
    python -m repro.experiments all --quick --jobs 4 [--no-cache]

Each name runs the ``repro-lab`` preset of the same name (``sec7`` and
``lu`` run ``sec7-nvm`` and ``lu-tradeoff``), with the same cache and
output, under a ``==== NAME`` header.
"""

from __future__ import annotations

import argparse
import sys

from repro.lab.cli import main as lab_main

#: legacy name -> the ``repro-lab`` preset it runs.
PRESETS = {"fig2": "fig2", "fig5": "fig5", "lu": "lu-tradeoff",
           "sec3": "sec3", "sec4": "sec4", "sec5": "sec5", "sec6": "sec6",
           "sec7": "sec7-nvm", "sec8": "sec8", "table1": "table1",
           "table2": "table2"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures of 'Write-Avoiding "
                    "Algorithms' (Carson et al., IPDPS 2016).")
    parser.add_argument("name", choices=[*PRESETS, "all", "list"])
    parser.add_argument("--quick", action="store_true",
                        help="smaller geometry, seconds instead of minutes")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for uncached points")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    args = parser.parse_args(argv)
    if args.name == "list":
        print("\n".join(PRESETS))
        return 0
    flags = ["--jobs", str(args.jobs)] + ["--quick"] * args.quick \
        + ["--no-cache"] * args.no_cache
    for name in PRESETS if args.name == "all" else [args.name]:
        print(f"==== {name} " + "=" * max(0, 64 - len(name)))
        rc = lab_main(["run", PRESETS[name], *flags])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
