"""Acceptance gate: each test runs one numbered criterion at its stated
tolerance and time budget and prints a one-line verdict (run with -s)."""
import math
import time

import numpy as np
import sampled_loops as loops

from leafatlas import matrixlie as ml
from leafatlas.atlas import atlas, twisted_involutions
from leafatlas.satake import builtin_catalog, real_form_data

import catalog_reference as cr
import weyl_matrices as wm

BY_LABEL = cr.by_label()


class timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, f"budget {self.budget}s exceeded"


def verdict(k, text):
    print(f"criterion {k:2d}: PASS  {text}")


def test_criterion_01_rank_one_atlas_exact():
    with timer(1.0) as t:
        report = atlas(BY_LABEL["sl(2,R)"])
        assert len(report.classes) == 2
        by_word = {c["psi_word"]: c for c in report.classes}
        open_cls = by_word[(1,)]
        assert (open_cls["codim_Y"], open_cls["a"], open_cls["t"]) == (0, 0, 1)
        assert open_cls["leaf_dim"] == 2 and open_cls["is_open"]
        closed_cls = by_word[()]
        assert (closed_cls["codim_Y"], closed_cls["a"], closed_cls["t"]) == (1, 1, 0)
        assert closed_cls["leaf_dim"] == 0 and closed_cls["family_dim"] == 1
        assert report.has_open_leaves
    verdict(1, f"rank-one atlas exact in {t.elapsed:.3f}s")


def test_criterion_02_su2_closed_form_and_ranks():
    rf = ml.realization("sl(2,R)")
    with timer(5.0) as t:
        worst = 0.0
        count = 0
        for child in np.random.SeedSequence(1002).spawn(200):
            if count >= 100:
                break
            rng = np.random.default_rng(child)
            w = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            if abs(abs(w) - 1.0) < 0.12 or abs(w) < 0.05 or abs(w) > 1.45:
                continue
            count += 1
            u = ml.chart_su2_section(w)
            got_w, coeff = ml.su2_transported_coefficient(rf, u)
            assert abs(got_w - w) < 1e-10
            expected = ml.SU2_AMPLITUDE * (1 - abs(w) ** 4)
            worst = max(worst, abs(coeff - expected) / abs(expected))
            rank, _ = ml.numerical_rank(ml.pi_0_at(rf, u.conj().T), threshold=1e-8)
            assert rank == 2, f"rank 2 expected off the unit circle at {w}"
        assert count == 100
        assert worst <= 1e-8
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            u = ml.chart_su2_section(np.exp(1j * theta))
            rank, _ = ml.numerical_rank(ml.pi_0_at(rf, u.conj().T), threshold=1e-8)
            assert rank == 0, "equator points must be zero-rank"
    verdict(2, f"closed form matches to {worst:.2e} (amplitude 1/8, see notes); "
               f"ranks 2/0 as required, {t.elapsed:.2f}s")


def test_criterion_03_open_leaf_criterion():
    compact_rank = {"sl(2,R)": 1, "su(2,1)": 2, "su(1,1)": 1, "sl(3,R)": 1}
    expected_flag = {"sl(2,R)": True, "su(2,1)": True, "su(1,1)": True,
                     "sl(3,R)": False}
    with timer(5.0) as t:
        for label, flag in expected_flag.items():
            sd = BY_LABEL[label]
            rs = sd.root_system()
            rfe = real_form_data(sd)
            assert wm.open_leaf_test(rfe, rs) == flag
            # independent oracle: compact Cartan exists iff compact rank
            # equals the absolute rank
            assert (compact_rank[label] == rs.rank) == flag
    verdict(3, f"open-leaf criterion with rank oracle in {t.elapsed:.3f}s")


def test_criterion_04_sl3_rank_ceiling():
    with timer(30.0) as t:
        report = atlas(BY_LABEL["sl(3,R)"])
        assert report.classes[report.largest_leaf_class]["leaf_codim"] == 1
        rf = ml.realization("sl(3,R)")
        got, _ = ml.max_sampled_rank(rf, n_samples=200, seed=1004, threshold=1e-8)
        assert got == report.form.dim_x - 1 == 4
    verdict(4, f"split rank ceiling 4 = dim X - 1 over 200 points, {t.elapsed:.2f}s")


def test_criterion_05_su21_full_rank():
    with timer(30.0) as t:
        report = atlas(BY_LABEL["su(2,1)"])
        top = report.classes[report.largest_leaf_class]
        assert top["is_open"] and top["leaf_dim"] == report.form.dim_x == 4
        assert top["family_dim"] == 0
        rf = ml.realization("su(2,1)")
        got, _ = ml.max_sampled_rank(rf, n_samples=200, seed=1005, threshold=1e-8)
        assert got == 4
    verdict(5, f"open-leaf realization attains full rank 4, {t.elapsed:.2f}s")


def test_criterion_06_catalog_structural_invariants():
    with timer(10.0) as t:
        for sd in builtin_catalog():
            rs = sd.root_system()
            rfe = real_form_data(sd)
            wb, w0 = wm.element(rs, rfe.w_b.perm), wm.element(rs, rfe.w0.perm)
            tau = wm.matrix_of(rs, rfe.tau_star)
            assert w0 == wm.longest_element(rs)
            assert wm.mat_mul(w0.matrix, wb.matrix) == wm.mat_mul(wb.matrix, w0.matrix)
            assert wm.mat_mul(tau, w0.matrix) == wm.mat_mul(w0.matrix, tau)
            assert wm.mat_mul(tau, wb.matrix) == wm.mat_mul(wb.matrix, tau)
            assert wm.length(rs, wm.multiply(rs, wb, w0)) == wm.length(rs, w0) - wm.length(rs, wb)
            for cls in twisted_involutions(rfe, rs):
                assert cls["t"] + cls["a"] == rs.rank
                assert cls["leaf_codim"] == cls["a"] + cls["codim_Y"]
    verdict(6, f"structural invariants across {len(builtin_catalog())} catalog "
               f"entries, {t.elapsed:.2f}s")


def test_criterion_07_iwasawa_and_action():
    with timer(5.0) as t:
        rng = np.random.default_rng(1007)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = m / np.linalg.det(m) ** (1.0 / n)
            b, u1 = ml.iwasawa(m)
            worst = max(worst, float(np.abs(b @ u1 - m).max()))
        assert worst <= 1e-12

        worst_act = 0.0
        for child in np.random.SeedSequence(2007).spawn(200):
            crng = np.random.default_rng(child)
            n = int(crng.integers(2, 5))
            u = loops.sample_unitary(crng, n)
            g, h = loops.sample_group(crng, n), loops.sample_group(crng, n)
            worst_act = max(worst_act, float(np.abs(
                ml.g_act(ml.g_act(u, g), h) - ml.g_act(u, g @ h)
            ).max()))
        assert worst_act <= 1e-10
    verdict(7, f"factorization {worst:.1e}, action axiom {worst_act:.1e}, "
               f"{t.elapsed:.2f}s")


def test_criterion_08_poisson_verification():
    with timer(60.0) as t:
        j2 = ml.jacobi_check(ml.realization("sl(2,R)"), n_points=20, h=1e-4,
                             seed=1008)
        assert j2 <= 1e-6
        j3 = ml.jacobi_check(ml.realization("sl(3,R)"), n_points=10, h=1e-4,
                             seed=2008)
        assert j3 <= 1e-5
        mult = ml.multiplicativity_residual(ml.realization("sl(3,R)"),
                                            n_pairs=100, seed=3008)
        assert mult <= 1e-8
        for label in ("sl(2,R)", "sl(3,R)", "su(2,1)", "su(1,1)"):
            res = ml.annihilator_check(ml.realization(label))
            assert res.distance <= 1e-12
            assert res.dim_annihilator == real_form_data(BY_LABEL[label]).dim_p0
    verdict(8, f"jacobi {j2:.1e}/{j3:.1e}, multiplicativity {mult:.1e}, "
               f"annihilator exact, {t.elapsed:.2f}s")


def test_criterion_09_stabilizer_dimensions():
    with timer(10.0) as t:
        checked = 0
        for label in ("sl(2,R)", "sl(3,R)"):
            rf = ml.realization(label)
            sd = BY_LABEL[label]
            rs = sd.root_system()
            rfe = real_form_data(sd)
            for cls in twisted_involutions(rfe, rs):
                u = ml.representative_for(rf, cls["psi_word"])
                if u is None:
                    continue
                assert ml.stabilizer_dim(rf, u, threshold=1e-8) == cls["a"] + cls["codim_Y"]
                assert (
                    ml.stabilizer_dim(rf, u, include_torus=True, threshold=1e-8)
                    == cls["t"] + cls["a"] + cls["codim_Y"]
                )
                checked += 1
        assert checked == 6  # every class of both split forms has a witness
    verdict(9, f"stabilizer dimensions match for {checked} classes, {t.elapsed:.2f}s")


def test_criterion_10_hermitian_decomposition():
    with timer(10.0) as t:
        rf = ml.realization("su(1,1)")
        fit = ml.hermitian_fit(rf, n_samples=100, seed=1010)
        assert fit.max_residual <= 1e-8
        refit = ml.hermitian_fit(rf, n_samples=100, seed=2010)
        assert abs(fit.b - refit.b) <= 1e-8
    verdict(10, f"decomposition residual {fit.max_residual:.1e}, "
                f"b = {fit.b!r} (normalization-dependent, recorded), "
                f"{t.elapsed:.2f}s")
