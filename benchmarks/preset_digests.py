"""Pin every preset's records and check the paper's claims on them.

Runs all presets, quick and full size, in one process with no result
cache, and rewrites ``tests/golden/preset-digests.json``: per preset
and size, the sha256 of its JSON export (``repro-lab run PRESET
[--quick] --no-cache --json FILE``) and of its points' result-cache
payloads (:func:`payloads`); and ``combined_payloads``, the same hash
over all presets (sorted by name, quick then full per preset).
Then it checks every preset's claims (``Scenario.claims``; the
``full_only`` ones not on quick records) and exits 1 naming each that
fails.  Run from the repository root (about 10 s); a clean diff
afterwards means records and cache keys are unchanged::

    PYTHONPATH=src python benchmarks/preset_digests.py
    git diff --exit-code tests/golden/preset-digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.lab.executor import execute
from repro.lab.results import ResultSet
from repro.lab.scenarios import SCENARIOS, get_scenario

OUT = (Path(__file__).resolve().parent.parent
       / "tests" / "golden" / "preset-digests.json")

#: (key in the digest file, the ``quick`` flag), in hashing order.
SIZES = (("quick", True), ("full", False))


def payloads(points):
    """``json.dumps(point.cache_payload(), sort_keys=True)`` of each
    point, concatenated in order."""
    return b"".join(json.dumps(point.cache_payload(), sort_keys=True)
                    .encode() for point in points)


def payload_digests():
    """``({name: {size: sha256}}, combined sha256)`` of every preset's
    payloads, without running a point."""
    combined = hashlib.sha256()
    presets = {name: {} for name in sorted(SCENARIOS)}
    for name, sizes in presets.items():
        for size, quick in SIZES:
            data = payloads(get_scenario(name, quick).points())
            combined.update(data)
            sizes[size] = hashlib.sha256(data).hexdigest()
    return presets, combined.hexdigest()


def run_preset(name, quick):
    """``(scenario, results, digest, payloads)`` of one uncached run."""
    scenario = get_scenario(name, quick)
    points = scenario.points()
    report = execute(points, cache=None)
    export = ResultSet.from_report(report).to_json().encode()
    data = payloads(points)
    return scenario, report.results, {
        "export": hashlib.sha256(export).hexdigest(),
        "payloads": hashlib.sha256(data).hexdigest(),
    }, data


def main():
    presets = {name: {} for name in sorted(SCENARIOS)}
    failed = []
    claims = 0
    combined = hashlib.sha256()
    for name, sizes in presets.items():
        for size, quick in SIZES:
            scenario, results, sizes[size], data = run_preset(name, quick)
            combined.update(data)
            claims += 0 if quick else len(scenario.claims)
            failed += [f"{name} ({size}): {claim}" for claim in
                       scenario.failed_claims(results, quick=quick)]
    combined = combined.hexdigest()
    rows = ",\n".join(f'  "{name}": {json.dumps(sizes, sort_keys=True)}'
                      for name, sizes in presets.items())
    OUT.write_text(f'{{\n "combined_payloads": "{combined}",\n'
                   f' "presets": {{\n{rows}\n }}\n}}\n')
    print(f"wrote {len(presets)} presets x {len(SIZES)} sizes to {OUT}")
    print(f"combined payload sha256 {combined}")
    for line in failed:
        print(f"claim failed: {line}")
    print(f"{claims} claims, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
