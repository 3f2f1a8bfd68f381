"""The paper's claims hold on every preset's quick records, which match
``tests/golden/preset-digests.json`` (``benchmarks/preset_digests.py``
writes it, and checks the claims at full size).  Claims can fail:
records with two policies swapped break the named ones.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.lab.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "preset-digests.json")
                    .read_text())

#: the presets that reproduce a table, figure or claim of the paper.
PAPER_PRESETS = ["fig2", "fig5", "lu-tradeoff", "prop62", "sec3", "sec4",
                 "sec5", "sec6", "sec7-nvm", "sec8", "table1", "table2"]

_spec = importlib.util.spec_from_file_location(
    "preset_digests", ROOT / "benchmarks" / "preset_digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_quick_records_match_digest_and_claims_hold(name):
    scenario, results, digest, _ = digests.run_preset(name, True)
    assert digest == GOLDEN["presets"][name]["quick"]
    assert scenario.failed_claims(results, quick=True) == []
    assert scenario.full_only <= set(scenario.claims)
    assert bool(scenario.claims) == (name in PAPER_PRESETS)


def test_every_cache_payload_matches_digest():
    presets, combined = digests.payload_digests()
    assert combined == GOLDEN["combined_payloads"]
    assert combined.startswith("a183b946")
    for name, sizes in presets.items():
        for size, payloads in sizes.items():
            assert payloads == GOLDEN["presets"][name][size]["payloads"], (
                name, size)


def swap_policies(results, a, b):
    """*results* with the records of policies *a* and *b* exchanged
    point for point."""
    def key(res, policy):
        return res.point.kernel, str(res.point.params), policy

    records = {key(r, r.point.machine.policy): r.record for r in results}
    other = {a: b, b: a}
    return [replace(r, record=records[key(r, other.get(
        r.point.machine.policy, r.point.machine.policy))]) for r in results]


def lower_lru_writebacks(results):
    return [replace(r, record={**r.record,
                               "writebacks": r.record["writebacks"] - 1})
            if r.point.machine.policy == "lru" else r for r in results]


@pytest.mark.parametrize("name, mutate, broken", [
    ("sec6", lambda res: swap_policies(res, "lru", "belady"),
     ["wa-multilevel-lru-3-blocks-over-1.5x-floor",
      "belady-fills-at-most-lru"]),
    ("prop62", lambda res: swap_policies(res, "lru", "belady"),
     ["belady-fills-at-most-lru"]),
    ("prop62", lower_lru_writebacks,
     ["writebacks-at-least-floor", "lru-at-floor-from-3-blocks"]),
], ids=["sec6-swap", "prop62-swap", "prop62-below-floor"])
def test_mutated_records_fail_the_named_claims(name, mutate, broken):
    scenario, results, *_ = digests.run_preset(name, True)
    assert scenario.failed_claims(mutate(results), quick=True) == broken
