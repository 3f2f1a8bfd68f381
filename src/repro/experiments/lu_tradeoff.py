"""Section 7.2: LL-LUNP vs RL-LUNP — measured counters and cost formulas.

:func:`lu_scenario` is the ``repro-lab run lu-tradeoff`` preset: the
two parallel LU algorithms execute as ``lu-ll-nonpivot`` /
``lu-rl-nonpivot`` points (verified factorizations, per-rank counters)
and the paper's β-cost formulas (23)–(26) evaluate as ``cost-lu-ll`` /
``cost-lu-rl`` points at model scale.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["format_lu", "lu_scenario"]

_COST_KERNELS = {"LL-LUNP": "cost-lu-ll", "RL-LUNP": "cost-lu-rl"}
_EXEC_KERNELS = {"LL-LUNP": "lu-ll-nonpivot", "RL-LUNP": "lu-rl-nonpivot"}


def _lu_points(n: int, b: int, P: int, seed: int, model_n: int,
               model_P: int) -> List[ScenarioPoint]:
    machine = MachineSpec(name="lu-hw")
    points = [
        ScenarioPoint(kernel, machine,
                      {"n": n, "b": b, "P": P, "seed": seed})
        for kernel in _EXEC_KERNELS.values()
    ]
    points += [
        ScenarioPoint(kernel, machine, {"n": model_n, "P": model_P})
        for kernel in _COST_KERNELS.values()
    ]
    return points


def _assemble_lu(results: Sequence[Any]) -> Dict:
    by_kernel = {res.point.kernel: res for res in results}
    p0 = results[0].point.params
    measured = {}
    correct = {}
    for name, kernel in _EXEC_KERNELS.items():
        rec = by_kernel[kernel].record
        correct[name] = rec["correct"]
        measured[name] = {
            "nvm_writes": rec["l2_to_l3_total"],
            "nvm_reads": rec["l3_to_l2_total"],
            "network": rec["nw_recv_total"],
        }
    model = {}
    for name, kernel in _COST_KERNELS.items():
        rec = dict(by_kernel[kernel].record)
        rec.pop("feasible", None)
        model[name] = {"name": rec.pop("algorithm"), **rec}
    model_params = by_kernel[_COST_KERNELS["LL-LUNP"]].point.params
    return {
        "n": p0["n"], "b": p0["b"], "P": p0["P"],
        "ll_correct": correct["LL-LUNP"],
        "rl_correct": correct["RL-LUNP"],
        "measured": measured,
        "model": model,
        "model_n": model_params["n"], "model_P": model_params["P"],
    }


def lu_scenario(quick: bool = False, *, n: Optional[int] = None,
                b: int = 4, P: int = 4, seed: int = 0,
                model_n: int = 1 << 14, model_P: int = 256) -> Scenario:
    """Section 7.2 as a ``repro-lab`` preset (``lu-tradeoff``).  The
    keyword parameters are the ``--set``-able knobs."""
    n = n if n is not None else (16 if quick else 32)
    points = _lu_points(n, b, P, seed, model_n, model_P)
    return Scenario(
        name="lu-tradeoff",
        kernel="lu-ll-nonpivot",
        machine=points[0].machine,
        description="Section 7.2: executed LL vs RL LU (NVM-write / "
                    "network trade-off) next to β-cost formulas (23)–(26)",
        explicit=points,
        report=lambda sc, res: format_lu(_assemble_lu(res)),
        meta={"rebuild": partial(lu_scenario, quick)},
        claims=claims_on(lambda sc, res: _assemble_lu(res), {
            "both-correct": lambda r: r["ll_correct"] and r["rl_correct"],
            "ll-writes-less-nvm":
                lambda r: (r["measured"]["LL-LUNP"]["nvm_writes"]
                           < r["measured"]["RL-LUNP"]["nvm_writes"]),
            "rl-communicates-less":
                lambda r: (r["measured"]["RL-LUNP"]["network"]
                           < r["measured"]["LL-LUNP"]["network"]),
            "model-ll-writes-less-nvm":
                lambda r: (r["model"]["LL-LUNP"]["beta_23_words"]
                           < r["model"]["RL-LUNP"]["beta_23_words"]),
            "model-rl-communicates-less":
                lambda r: (r["model"]["RL-LUNP"]["beta_nw_words"]
                           < r["model"]["LL-LUNP"]["beta_nw_words"]),
        }),
    )


def format_lu(result: Dict) -> str:
    m = result["measured"]
    headers = ["algorithm", "NVM writes", "NVM reads", "network words"]
    body = [
        ["LL-LUNP", m["LL-LUNP"]["nvm_writes"], m["LL-LUNP"]["nvm_reads"],
         m["LL-LUNP"]["network"]],
        ["RL-LUNP", m["RL-LUNP"]["nvm_writes"], m["RL-LUNP"]["nvm_reads"],
         m["RL-LUNP"]["network"]],
    ]
    s = format_table(
        headers, body,
        title=(f"Section 7.2 — measured LU traffic "
               f"(n={result['n']}, b={result['b']}, P={result['P']}; "
               f"LL correct={result['ll_correct']}, "
               f"RL correct={result['rl_correct']})"),
    )
    mod = result["model"]
    headers2 = ["algorithm", "βNW words", "β23 words", "β32 words", "total"]
    body2 = [
        [name, mod[name]["beta_nw_words"], mod[name]["beta_23_words"],
         mod[name]["beta_32_words"], mod[name]["total"]]
        for name in ("LL-LUNP", "RL-LUNP")
    ]
    s += "\n\n" + format_table(
        headers2, body2,
        title=(f"Formulas (23)–(26) at n={result['model_n']}, "
               f"P={result['model_P']}"),
    )
    return s
