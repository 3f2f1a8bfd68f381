"""Engine-vs-direct parity for the cost-model, distributed and Krylov
point kernels (``repro.lab.modelkernels``), plus the ``MachineSpec.hw``
cost-parameter plumbing and the ``ResultSet.pivot`` reshape they ride.

Every registry kernel must produce exactly what a direct call into
``repro.distributed`` / ``repro.krylov`` produces — the kernels are
plumbing, not reimplementations.
"""

import math

import numpy as np
import pytest

from repro.distributed import (
    DistMachine,
    HwParams,
    lu_ll_nonpivot,
    mm_25d,
    summa_2d,
)
from repro.distributed.costmodel import (
    cost_25dmml3,
    cost_2dmml2,
    dom_beta_cost_model21,
    dom_beta_cost_model22,
    ll_lunp_beta_cost,
    table1_rows,
    table2_rows,
)
from repro.krylov import cacg, cg, spd_stencil_system
from repro.lab.registry import KERNELS, MACHINES, MachineSpec
from repro.lab.results import ResultSet


MACH = MachineSpec(name="t")


class TestMachineHw:
    def test_default_hw_is_the_paper_machine(self):
        assert MACH.hw_params() == HwParams()

    def test_with_hw_merges_and_accepts_table_labels(self):
        spec = MACH.with_hw(beta_23=30).with_hw(**{"β32": 8})
        hw = spec.hw_params()
        assert hw.beta_23 == 30 and hw.beta_32 == 8
        assert hw.beta_nw == HwParams().beta_nw

    def test_with_hw_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown hw parameter"):
            MACH.with_hw(beta_99=1)

    def test_hw_roundtrips_through_dict(self):
        spec = MACHINES["hw-ool2"]
        again = MachineSpec.from_dict(spec.as_dict())
        assert again == spec
        assert again.hw_params().M2 == 2**14

    def test_hw_presets_registered(self):
        for name in ("hw-2015", "hw-ool2", "hw-sym"):
            assert name in MACHINES
        assert MACHINES["hw-sym"].hw_params().beta_23 == 4.0


class TestCostKernels:
    def test_2d_mm_matches_direct(self):
        rec = KERNELS["cost-2d-mm"].run(MACH, {"n": 1 << 12, "P": 64})
        direct = cost_2dmml2(1 << 12, 64, HwParams())
        assert rec["total_seconds"] == direct["total"]
        assert rec["beta_nw"] == sum(t.count for t in direct["terms"]
                                     if t.param == "beta_nw")

    def test_25d_mm_l3_matches_direct_and_honours_hw(self):
        spec = MACH.with_hw(beta_23=2.0)
        rec = KERNELS["cost-25d-mm-l3"].run(
            spec, {"n": 1 << 12, "P": 64, "c2": 1, "c3": 4})
        direct = cost_25dmml3(1 << 12, 64, 1, 4, HwParams(beta_23=2.0))
        assert rec["total_seconds"] == direct["total"]

    def test_infeasible_point_reports_not_raises(self):
        rec = KERNELS["cost-25d-mm-l3"].run(MACH, {"P": 64, "c3": 64})
        assert rec["feasible"] is False
        assert "P^(1/3)" in rec["reason"]

    def test_dominance_models(self):
        rec = KERNELS["cost-dominance"].run(
            MACH, {"model": "2.1", "n": 1 << 14, "P": 256, "c2": 2,
                   "c3": 4})
        direct = dom_beta_cost_model21(1 << 14, 256, 2, 4, HwParams())
        assert {k: rec[k] for k in direct} == direct
        rec = KERNELS["cost-dominance"].run(
            MACH, {"model": "2.2", "n": 1 << 14, "P": 256, "c3": 4})
        direct = dom_beta_cost_model22(1 << 14, 256, 4, HwParams())
        assert {k: rec[k] for k in direct} == direct

    def test_lu_cost_matches_direct(self):
        rec = KERNELS["cost-lu-ll"].run(MACH, {"n": 1 << 14, "P": 256})
        direct = ll_lunp_beta_cost(1 << 14, 256, HwParams())
        assert rec["total"] == direct["total"]
        assert rec["algorithm"] == "LL-LUNP"

    def test_break_even_default_machine(self):
        rec = KERNELS["cost-break-even"].run(MACH, {})
        hw = HwParams()
        factor = (hw.beta_nw + 1.5 * hw.beta_23 + hw.beta_32) / hw.beta_nw
        assert rec["c3_over_c2"] == factor**2

    def test_table1_cells_pivot_back_to_rows(self):
        n, P, c2, c3 = 1 << 14, 1 << 20, 4, 16
        direct = table1_rows(n, P, c2, c3, HwParams())
        cells = [
            KERNELS["cost-table1"].run(
                MACH, {"n": n, "P": P, "c2": c2, "c3": c3, "row": r,
                       "algorithm": alg})
            for r in range(len(direct))
            for alg in ("2DMML2", "2.5DMML2", "2.5DMML3")
        ]
        rows = ResultSet(cells).pivot(
            ("movement", "param", "common"), "algorithm", "words").rows
        assert rows == direct

    def test_table2_cells_pivot_back_to_rows(self):
        hw = HwParams(M1=2**8, M2=2**14)
        direct = table2_rows(1 << 15, 512, 4, hw)
        spec = MACH.with_hw(M1=2**8, M2=2**14)
        cells = [
            KERNELS["cost-table2"].run(
                spec, {"n": 1 << 15, "P": 512, "c3": 4, "row": r,
                       "algorithm": alg})
            for r in range(len(direct))
            for alg in ("2.5DMML3ooL2", "SUMMAL3ooL2")
        ]
        rows = ResultSet(cells).pivot(
            ("movement", "param", "common"), "algorithm", "words").rows
        assert rows == direct

    def test_table_kernel_rejects_bad_row(self):
        with pytest.raises(ValueError, match="row must be"):
            KERNELS["cost-table1"].run(MACH, {"row": 99,
                                              "algorithm": "2DMML2"})

    def test_table_kernel_infeasible_regime_reports(self):
        # c3 <= c2 is outside Table 1's regime: a sweep point reports
        # feasible=False instead of aborting the whole sweep.
        rec = KERNELS["cost-table1"].run(
            MACH, {"c2": 4, "c3": 2, "row": 0, "algorithm": "2.5DMML3"})
        assert rec["feasible"] is False
        assert "c3 > c2" in rec["reason"]


class TestDistributedKernels:
    def test_summa_2d_matches_direct(self):
        rec = KERNELS["summa-2d"].run(MACH, {"n": 16, "P": 4, "M1": 48.0,
                                         "seed": 0})
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        m = DistMachine(4)
        C = summa_2d(A, B, m, M1=48.0)
        assert rec["correct"] and np.allclose(C, A @ B)
        for attr in ("nw_recv", "l1_to_l2", "l2_to_l1"):
            assert rec[f"{attr}_max"] == m.max_over_ranks(attr)
            assert rec[f"{attr}_total"] == m.total_over_ranks(attr)

    def test_summa_hoard_attains_w1(self):
        plain = KERNELS["summa-2d"].run(MACH, {"n": 16, "P": 4, "M1": 48.0})
        hoard = KERNELS["summa-2d"].run(MACH, {"n": 16, "P": 4, "M1": 48.0,
                                           "hoard": True})
        assert hoard["l1_to_l2_max"] < plain["l1_to_l2_max"]
        assert hoard["l1_to_l2_max"] == 16 * 16 // 4  # n²/P

    def test_summa_l3_ool2_attains_write_floor(self):
        rec = KERNELS["summa-l3-ool2"].run(MACH, {"n": 16, "P": 4, "M2": 12,
                                              "seed": 1})
        assert rec["correct"]
        assert rec["l2_to_l3_max"] == rec["w1_floor"] == 64

    def test_mm_25d_matches_direct(self):
        rec = KERNELS["mm-25d"].run(MACH, {"n": 16, "P": 8, "c": 2, "seed": 0})
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        m = DistMachine(8)
        mm_25d(A, B, m, c=2)
        assert rec["correct"]
        assert rec["nw_recv_max"] == m.max_over_ranks("nw_recv")

    def test_lu_kernels_match_direct(self):
        rec = KERNELS["lu-ll-nonpivot"].run(MACH, {"n": 16, "b": 4, "P": 4})
        rng = np.random.default_rng(0)
        A = rng.standard_normal((16, 16))
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)
        m = DistMachine(4)
        L, U = lu_ll_nonpivot(A, m, b=4)
        assert rec["correct"] and np.allclose(L @ U, A, atol=1e-8)
        assert rec["l2_to_l3_total"] == m.total_over_ranks("l2_to_l3")
        assert rec["nw_recv_total"] == m.total_over_ranks("nw_recv")

    def test_lu_tradeoff_direction(self):
        ll = KERNELS["lu-ll-nonpivot"].run(MACH, {"n": 32, "b": 4, "P": 4})
        rl = KERNELS["lu-rl-nonpivot"].run(MACH, {"n": 32, "b": 4, "P": 4})
        # The paper's trade-off: LL writes less NVM, RL talks less.
        assert ll["l2_to_l3_total"] < rl["l2_to_l3_total"]
        assert rl["nw_recv_total"] < ll["nw_recv_total"]

    def test_missing_required_param_raises(self):
        with pytest.raises(ValueError, match="M2"):
            KERNELS["summa-l3-ool2"].run(MACH, {"n": 16, "P": 4})


class TestKrylovKernels:
    def test_cg_matches_direct(self):
        rec = KERNELS["krylov-cg"].run(MACH, {"mesh": 64})
        A, rhs = spd_stencil_system(64, d=1, b=1)
        direct = cg(A, rhs, tol=1e-8)
        assert rec["converged"] == direct.converged
        assert rec["steps"] == direct.iterations
        assert rec["writes"] == direct.traffic.writes

    def test_cacg_matches_direct_and_streaming_cuts_writes(self):
        base = {"mesh": 64, "s": 4, "block": 16}
        plain = KERNELS["krylov-cacg"].run(MACH, base)
        stream = KERNELS["krylov-cacg"].run(MACH, {**base, "streaming": True})
        A, rhs = spd_stencil_system(64, d=1, b=1)
        direct = cacg(A, rhs, s=4, block=16, streaming=True)
        assert stream["writes"] == direct.traffic.writes
        assert plain["converged"] and stream["converged"]
        assert stream["writes"] < plain["writes"]

    def test_gmres_variants(self):
        restarted = KERNELS["krylov-gmres"].run(MACH, {"mesh": 64, "s": 4})
        ca = KERNELS["krylov-gmres"].run(MACH, {"mesh": 64, "s": 4,
                                            "variant": "ca", "block": 16})
        assert restarted["method"] == "GMRES"
        assert ca["method"] == "CA-GMRES"
        assert restarted["converged"] and ca["converged"]

    def test_matrix_powers_variants(self):
        base = {"mesh": 64, "s": 4, "block": 16}
        naive = KERNELS["krylov-matrix-powers"].run(MACH,
                                                {**base, "variant": "naive"})
        blocked = KERNELS["krylov-matrix-powers"].run(
            MACH, {**base, "variant": "blocked"})
        stream = KERNELS["krylov-matrix-powers"].run(
            MACH, {**base, "variant": "streaming"})
        assert blocked["reads"] < naive["reads"]     # the CA read saving
        assert stream["writes"] == 0                 # the WA write saving
        assert blocked["writes"] == naive["writes"]

    def test_tsqr_streaming_cuts_writes_same_r(self):
        base = {"mesh": 64, "s": 4, "block": 16}
        stored = KERNELS["krylov-tsqr"].run(MACH,
                                            {**base, "variant": "stored"})
        stream = KERNELS["krylov-tsqr"].run(MACH,
                                        {**base, "variant": "streaming"})
        assert stream["writes"] < stored["writes"] / 10
        assert math.isclose(stream["r_norm"], stored["r_norm"],
                            rel_tol=1e-8)


class TestPivot:
    def test_basic_reshape_preserves_order(self):
        rs = ResultSet([
            {"k": "a", "col": "x", "v": 1},
            {"k": "a", "col": "y", "v": 2},
            {"k": "b", "col": "x", "v": None},
            {"k": "b", "col": "y", "v": 4},
        ])
        out = rs.pivot(["k"], "col", "v")
        assert out.rows == [{"k": "a", "x": 1, "y": 2},
                            {"k": "b", "x": None, "y": 4}]

    def test_duplicate_cell_rejected(self):
        rs = ResultSet([{"k": "a", "col": "x", "v": 1},
                        {"k": "a", "col": "x", "v": 2}])
        with pytest.raises(ValueError, match="duplicate pivot cell"):
            rs.pivot(["k"], "col", "v")
