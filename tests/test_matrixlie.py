import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import basis_lists as bl
import catalog_reference as cr
import numpy as np
import pytest
import sampled_loops as loops
from exact_rank import _fraction_rank
from hypothesis import given, settings
from hypothesis import strategies as st

from leafatlas import matrixlie as ml
from leafatlas.atlas import class_fields, twisted_involutions
from leafatlas.cli import RunConfig, run_verify_battery
from leafatlas.rootsys import build_root_system
from leafatlas.satake import real_form_data

import weyl_matrices as wm

BY_LABEL = cr.by_label()


def walked_classes(label):
    """The fields (`class_fields`) of every class of a catalog form."""
    sd = BY_LABEL[label]
    rf = real_form_data(sd)
    return [class_fields(rf, record) for record in twisted_involutions(rf, sd.root_system())]


@pytest.fixture(scope="module")
def sl2():
    return ml.realization("sl(2,R)")


@pytest.fixture(scope="module")
def sl3():
    return ml.realization("sl(3,R)")


# ---------------------------------------------------------------------------
# the floored-SVD rank rule

def _with_singular_values(s, rows=6, cols=5, seed=0):
    rng = np.random.default_rng(seed)
    qu, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    qv, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    d = np.zeros((rows, cols))
    d[np.arange(len(s)), np.arange(len(s))] = s
    return qu @ d @ qv.T


def test_numerical_rank_of_empty_matrix():
    assert ml.numerical_rank(np.zeros((0, 4))) == (0, False)
    assert ml.numerical_rank(np.zeros((3, 0))) == (0, False)
    col, borderline = ml.column_space(np.zeros((3, 0)))
    assert col.shape == (3, 0) and borderline is False


def test_numerical_rank_cutoff_is_floored_at_one():
    # s_max < 1: the cutoff is the threshold itself, not threshold * s_max
    small = _with_singular_values([1e-3, 5e-9])
    assert ml.numerical_rank(small) == (1, False)
    assert ml._floored_rank(np.linalg.svd(small, compute_uv=False), 1e-10) == (2, False)
    # s_max > 1 scales the cutoff
    large = _with_singular_values([1e3, 5e-6])
    assert ml.numerical_rank(large)[0] == 1
    assert ml.numerical_rank(_with_singular_values([1e3, 5e-5]))[0] == 2


@pytest.mark.parametrize("value,rank,borderline", [
    (0.998e-8, 1, False),  # below the band
    (0.9995e-8, 1, True),  # inside the band, below the cutoff
    (5e-8, 2, True),  # inside the band, above the cutoff
    (1.01e-7, 2, False),  # above the band
])
def test_numerical_rank_borderline_band(value, rank, borderline):
    m = _with_singular_values([0.5, value])
    assert ml.numerical_rank(m) == (rank, borderline)


def test_column_space_orthonormal():
    m = _with_singular_values([3.0, 1.0, 1e-12], rows=4, cols=6, seed=1)
    col, borderline = ml.column_space(m)
    assert col.shape == (4, 2) and borderline is False
    assert np.allclose(col.T @ col, np.eye(2), atol=1e-12)


STREAM_SEEDS = [0, 1, 5, 2**63, 2**64 - 1, 2**64 + 5, 3**50]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("size", [1, 7, (3, 5), (2, 3, 4)])
def test_sample_streams_match_the_splitmix_reference(seed, size):
    # each word, its split into the Box-Muller halves, the angle's sine, the
    # square root and the product are pinned to the last bit by the
    # reference with numpy's log; numpy vectorizes that log on some hosts,
    # where it and math.log differ by an ulp on a few inputs in a thousand
    count = math.prod(np.atleast_1d(size))
    normal = ml.SampleStream(seed).standard_normal(size)
    assert normal.shape == np.shape(np.empty(size))
    want = loops.standard_normals(seed, 0, count, log=lambda x: float(np.log(x)))
    assert normal.ravel().tolist() == want
    np.testing.assert_array_max_ulp(normal.ravel(), loops.standard_normals(seed, 0, count), 2)


def test_sample_streams_read_on_across_calls_and_replay_by_index():
    # stacked draws are one draw cut in pieces, and word j is read alone by
    # a stream whose `drawn` is set to j
    whole = ml.SampleStream(9).standard_normal((5, 12))
    rng = ml.SampleStream(9)
    assert np.array_equal(np.concatenate([rng.standard_normal((k, 12)) for k in (1, 3, 1)]), whole)
    assert rng.drawn == 60
    rng.drawn = 37
    assert np.array_equal(rng.standard_normal(4), whole.ravel()[37:41])


def test_sample_streams_differ_by_seed():
    # 2^64 + 5 and 2^128 neither wrap to 5 and 0 nor overflow
    seeds = [0, 1, 2, 5, 2**64, 2**64 + 5, 2**128]
    streams = [ml.SampleStream(seed) for seed in seeds]
    draws = {tuple(stream.standard_normal(4)) for stream in streams}
    assert len({stream.key for stream in streams}) == len(draws) == len(seeds)
    with pytest.raises(ValueError):
        ml.SampleStream(-1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stream_normals_have_the_standard_moments(seed):
    # 4e5 draws: the standard errors are 0.0016 (mean), 0.0022 (variance),
    # 0.0039 (skewness) and 0.0077 (kurtosis); the bounds are five of them
    x = ml.SampleStream(seed).standard_normal(400_000)
    z = (x - x.mean()) / x.std()
    assert abs(x.mean()) < 0.008 and abs(x.var() - 1) < 0.011
    assert abs(np.mean(z**3)) < 0.02 and abs(np.mean(z**4) - 3) < 0.04


# ---------------------------------------------------------------------------
# invariant form and root vectors

def killing(n, x, y):
    """Invariant bilinear form 2n tr(XY) on traceless n x n matrices."""
    return 2 * n * np.trace(x @ y)


def _root_vectors(n):
    """(E, X, Y) per positive root of su_basis(n): E = (X - iY)/2, since
    X = E - F and Y = i(E + F)."""
    basis = ml.su_basis(n)
    x, y = basis[n - 1::2], basis[n::2]
    return zip((x - 1j * y) / 2, x, y)


def test_killing_diagonal_value():
    x = np.diag([1.0, -1.0]).astype(complex)
    assert killing(2, x, x) == pytest.approx(8.0)


def test_killing_orthogonal_elementaries():
    e12 = np.zeros((3, 3), complex)
    e12[0, 1] = 1
    e13 = np.zeros((3, 3), complex)
    e13[0, 2] = 1
    assert killing(3, e12, e13) == 0


def test_killing_symmetric_on_samples():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert killing(3, x, y) == pytest.approx(killing(3, y, x))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_root_vector_normalization(n):
    for e, x, y in _root_vectors(n):
        val = killing(n, e, -e.conj().T)  # kappa(E, theta(E))
        assert val == pytest.approx(-1.0)
        for m in (x, y):
            assert np.abs(m + m.conj().T).max() < 1e-14
            assert abs(np.trace(m)) < 1e-14


def test_root_vector_scale_n2():
    (e, _, _), = _root_vectors(2)
    assert e[0, 1] == pytest.approx(0.5)


BASIS_LABELS = ["sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)", "sl(6,R)", "su(1,1)", "su(2,1)",
                "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)", "su(3,3)", "su(5,1)"]


@pytest.mark.parametrize("label", BASIS_LABELS)
def test_basis_stacks_equal_the_per_matrix_lists(label):
    rf = ml.realization(label)
    basis_u, _ = bl.su_basis(rf.n)
    k0, ip0 = bl.split_tau(rf, basis_u)
    for got, want in ((rf.basis_u, basis_u), (rf.basis_k0, k0), (rf.basis_ip0, ip0),
                      (rf.basis_an, bl.an_basis(rf.n)), (rf.basis_g0, bl.g0_basis(k0, ip0))):
        assert got.shape == (len(want), rf.n, rf.n)
        assert np.array_equal(got, np.stack(want))
    assert np.array_equal(rf.lam, bl.lambda_matrix(rf.n))


@pytest.mark.parametrize("label", BASIS_LABELS)
def test_tau_is_a_signed_permutation_of_the_roots(monkeypatch, label):
    rf = ml.realization(label)
    n, torus = rf.n, slice(None, rf.n - 1)
    tau = rf.coeffs(rf.tau(rf.basis_u))
    integral = np.rint(tau)
    assert np.abs(tau - integral).max() < 1e-9
    # block-diagonal between the torus and the roots
    assert not integral[torus, n - 1:].any() and not integral[n - 1:, torus].any()
    roots = integral[n - 1:, n - 1:]
    assert set(np.unique(roots)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.abs(roots).sum(axis=0), np.ones(len(roots)))
    assert np.array_equal(np.abs(roots).sum(axis=1), np.ones(len(roots)))
    assert np.array_equal(roots @ roots, np.eye(len(roots)))  # tau is an involution
    # the split makes no rank search over the roots, and ranks the torus
    # candidates exactly: no float rank at all
    calls = []
    original = ml.numerical_rank

    def counting(m, threshold=ml.RANK_THRESHOLD):
        calls.append(np.shape(m))
        return original(m, threshold)

    monkeypatch.setattr(ml, "numerical_rank", counting)
    fresh = ml.MatrixRealForm(rf.label, rf.kind, n, rf.p, rf.q)
    assert calls == []
    for got, want in ((fresh.basis_k0, rf.basis_k0), (fresh.basis_ip0, rf.basis_ip0)):
        assert np.array_equal(got, want)


def test_lambda_n2_single_wedge():
    lam = ml.lambda_matrix(2)
    expected = np.zeros((3, 3))
    expected[1, 2], expected[2, 1] = 0.25, -0.25
    assert np.array_equal(lam, expected)


def test_lambda_torus_rows_vanish():
    lam = ml.lambda_matrix(3)
    assert np.abs(lam[:2, :]).max() == 0
    assert np.abs(lam[:, :2]).max() == 0


# ---------------------------------------------------------------------------
# group bivector

def test_pi_u_vanishes_at_identity(sl2):
    assert np.abs(ml.pi_U_at(sl2, np.eye(2, dtype=complex))).max() < 1e-14


def test_pi_u_rejects_non_unitary(sl2):
    with pytest.raises(ml.NonUnitaryError):
        ml.pi_U_at(sl2, 2.0 * np.eye(2, dtype=complex))


def test_pi_u_vanishes_on_torus(sl3):
    t = np.diag(np.exp(1j * np.array([0.3, 0.5, -0.8])))
    assert np.abs(ml.pi_U_at(sl3, t)).max() < 1e-14


def test_pi_u_torus_invariance(sl3):
    # decided in integers; the per-sample reference shifts by sampled tori
    assert ml.poisson_identities(sl3)[2] == 0.0
    assert loops.t_invariance_residual(sl3, n_samples=20, seed=5) < 1e-10


def test_ad_matrix_is_a_homomorphism():
    # with pi_U = lam - Ad_u lam Ad_u^T over a seed that covers lam, this is
    # what makes pi_U multiplicative: pi(uv) = Ad_u pi(v) Ad_u^T + pi(u)
    for n in range(2, 10):
        rf = ml.realization(f"sl({n},R)")
        rng = ml.SampleStream(n)
        u, v = ml.sample_unitaries(rng, 8, n), ml.sample_unitaries(rng, 8, n)
        assert np.abs(rf.Ad_matrix(u @ v) - rf.Ad_matrix(u) @ rf.Ad_matrix(v)).max() <= 1e-12, n


def _planted(monkeypatch, label, entries):
    """A fresh realization of label built on lambda_matrix with the given
    {(x, y): value} entries set."""
    rf, lambda_matrix = ml.realization(label), ml.lambda_matrix

    def planted(n):
        lam = lambda_matrix(n)
        for xy, value in entries.items():
            lam[xy] = value
        return lam

    monkeypatch.setattr(ml, "lambda_matrix", planted)
    return ml.MatrixRealForm(label, rf.kind, rf.n, rf.p, rf.q)


@pytest.mark.parametrize("entries", [
    {(4, 2): -0.25},  # below the diagonal, with no partner above it
    {(1, 1): 0.25},  # on the diagonal
    {(3, 2): 0.25},  # the plane (X_alpha, Y_alpha) made symmetric
], ids=["unpaired", "diagonal", "symmetric"])
def test_a_seed_that_does_not_cover_lam_is_refused(monkeypatch, entries):
    # _bivector reads lam over the seed's pairs only: an entry off them
    # would leave pi_U unequal to lam - Ad_u lam Ad_u^T
    with pytest.raises(ValueError, match="off the pairs"):
        _planted(monkeypatch, "sl(3,R)", entries)


def test_planted_torus_breaking_entry_fails_t_invariance(monkeypatch):
    # lam[2, 4] pairs X of e1 - e2 with X of e1 - e3: their weights differ,
    # so the torus moves it.  Its seed covers it, so pi_U reads it in full
    rf = _planted(monkeypatch, "sl(3,R)", {(2, 4): 0.25, (4, 2): -0.25})
    assert ml.poisson_identities(rf) == (4.0, 0.0, 2.0)
    assert loops.t_invariance_residual(rf, 5, seed=3) > 0.1
    monkeypatch.setattr(ml, "realization", lambda label: rf)
    doc = run_verify_battery(BY_LABEL["sl(3,R)"], RunConfig("verify"))
    rows = {c["name"]: (c["value"], c["passed"]) for c in doc["checks"]}
    assert rows["t_invariance"] == (2.0, False) and rows["mcybe"] == (4.0, False)


@pytest.mark.parametrize("label", ["sl(3,R)", "su(2,1)"])
def test_bivectors_antisymmetric_bit_for_bit(label):
    rf = ml.realization(label)
    us = ml.sample_unitaries(np.random.default_rng(1), 5, rf.n)
    for kernel in (ml.pi_U_at, ml.pi_0_at):
        for m in (kernel(rf, us[0]), kernel(rf, us)):
            assert np.array_equal(m, -ml._T(m))


def test_pi_0_zero_at_identity_coset(sl2, sl3):
    for rf in (sl2, sl3):
        assert np.abs(ml.pi_0_at(rf, np.eye(rf.n, dtype=complex))).max() < 1e-14


def test_pi_0_rank_even_and_bounded(sl3):
    for child in np.random.SeedSequence(7).spawn(20):
        u = loops.sample_unitary(np.random.default_rng(child), 3)
        rank, _ = ml.numerical_rank(ml.pi_0_at(sl3, u))
        assert rank % 2 == 0
        assert rank <= sl3.dim_ip0


def test_quotient_presentations_mirror(sl2, sl3):
    # group inversion swaps the two coset presentations and flips the sign
    for rf in (sl2, sl3):
        u = loops.sample_unitary(np.random.default_rng(2), rf.n)
        lhs = ml.pi_0_at(rf, u.conj().T)
        rhs = -loops.pi_0_left_quotient(rf, u)
        assert np.abs(lhs - rhs).max() < 1e-12


def ad_matrix(rf, x):
    """Matrix of ad_x over basis_u, from one stacked commutator."""
    return rf.coeffs(x @ rf.basis_u - rf.basis_u @ x)


@pytest.mark.parametrize("label", ["sl(3,R)", "su(2,1)", "su(3,2)"])
def test_stacked_adjoint_matches_basis_loop(label):
    rf = ml.realization(label)
    for child in np.random.SeedSequence(24).spawn(5):
        rng = np.random.default_rng(child)
        u = loops.sample_unitary(rng, rf.n)
        x = rng.normal(size=(rf.n, rf.n)) + 1j * rng.normal(size=(rf.n, rf.n))
        big = np.stack([bl.coeffs(rf, u @ b @ u.conj().T) for b in rf.basis_u], axis=1)
        small = np.stack([bl.coeffs(rf, x @ b - b @ x) for b in rf.basis_u], axis=1)
        assert np.abs(rf.Ad_matrix(u) - big).max() < 1e-12
        assert np.abs(ad_matrix(rf, x) - small).max() < 1e-12


# ---------------------------------------------------------------------------
# the disk chart on the rank-one example

def test_chart_identity_lies_on_zero_circle(sl2):
    w = ml.chart_su2(np.eye(2, dtype=complex))
    assert w == pytest.approx(-1j)
    assert abs(abs(w) - 1.0) < 1e-14


def test_chart_left_invariance(sl2):
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = loops.sample_unitary(rng, 2)
        th = rng.uniform(0, 2 * math.pi)
        k = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]],
                     dtype=complex)
        assert abs(ml.chart_su2(k @ u) - ml.chart_su2(u)) < 1e-10


def test_chart_singularity():
    u = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2)
    with pytest.raises(ml.ChartSingularityError):
        ml.chart_su2(u)


def test_chart_section_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        assert abs(ml.chart_su2(loops.chart_su2_section(w)) - w) < 1e-12


def su2_leaf_slice(zeta):
    """The two-parameter unitary slice whose quotient image is the two open
    leaves plus a single point of the zero circle (hit along real zeta)."""
    d = 1.0 / math.sqrt(1 + abs(zeta) ** 2)
    return d * np.array([[zeta, 1.0], [-1.0, np.conj(zeta)]])


def test_leaf_slice_collapses_real_parameters(sl2):
    # the real-parameter part of the slice is a single zero-circle point
    base = ml.chart_su2(su2_leaf_slice(0.0))
    for x in (-2.0, -0.3, 0.7, 5.0):
        assert abs(ml.chart_su2(su2_leaf_slice(x)) - base) < 1e-12
    assert abs(abs(base) - 1.0) < 1e-12
    off = ml.chart_su2(su2_leaf_slice(0.5 + 0.5j))
    assert abs(abs(off) - 1.0) > 0.05


def test_su2_closed_form_against_derived_amplitude(sl2):
    worst = 0.0
    for child in np.random.SeedSequence(8).spawn(50):
        rng = np.random.default_rng(child)
        w = rng.uniform(-1.4, 1.4) + 1j * rng.uniform(-1.4, 1.4)
        if abs(abs(w) - 1.0) < 0.15 or abs(w) < 0.05:
            continue
        got_w, coeff = ml.su2_transported_coefficient(sl2, loops.chart_su2_section(w))
        expected = ml.SU2_AMPLITUDE * (1 - abs(w) ** 4)
        worst = max(worst, abs(coeff - expected) / abs(expected))
    assert worst < 1e-8


def test_su2_stacked_transport_matches_each_point(sl2):
    us = ml.sample_unitaries(ml.SampleStream(9), 37, 2)
    got_w, got = ml.su2_transported_coefficient(sl2, us)
    assert got_w.shape == got.shape == (37,)
    for u, gw, g in zip(us, got_w, got):
        want_w, want = loops.su2_transported_coefficient(sl2, u)
        assert abs(gw - want_w) <= 1e-14 * abs(want_w) and abs(g - want) <= 1e-14 * abs(want)
    us[5] = np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2)  # off the chart
    with pytest.raises(ml.ChartSingularityError):
        ml.su2_transported_coefficient(sl2, us)
    us[5, 0, 0] *= 1.01
    with pytest.raises(ml.NonUnitaryError):
        ml.su2_transported_coefficient(sl2, us)


@pytest.mark.xfail(
    strict=True,
    reason="the published closed form carries unit amplitude, which is "
    "inconsistent with the pinned invariant-form normalization; the derived "
    "amplitude is 1/8 (see README and the derivation notes)",
)
def test_su2_closed_form_literal_unit_amplitude(sl2):
    w = 0.4 + 0.2j
    _, coeff = ml.su2_transported_coefficient(sl2, loops.chart_su2_section(w))
    assert abs(coeff - (1 - abs(w) ** 4)) / (1 - abs(w) ** 4) < 1e-8


def test_su2_rank_pattern(sl2):
    for th in np.linspace(0, 2 * math.pi, 9):
        u = loops.chart_su2_section(np.exp(1j * th))
        rank, _ = ml.numerical_rank(ml.pi_0_at(sl2, u.conj().T))
        assert rank == 0
    for w in (0.2 + 0.1j, 1.5 - 0.4j, 0.9j):
        rank, _ = ml.numerical_rank(ml.pi_0_at(sl2, loops.chart_su2_section(w).conj().T))
        assert rank == 2


# ---------------------------------------------------------------------------
# Iwasawa factorization and the action

def test_iwasawa_of_unitary_is_trivial():
    u = loops.sample_unitary(np.random.default_rng(9), 3)
    b, u1 = ml.iwasawa(u)
    assert np.abs(b - np.eye(3)).max() < 1e-12
    assert np.abs(u1 - u).max() < 1e-12


def test_iwasawa_of_triangular():
    m = np.array([[2.0, 1.0 + 1j], [0.0, 0.5]], dtype=complex)
    b, u1 = ml.iwasawa(m)
    assert np.abs(u1 - np.eye(2)).max() < 1e-12
    assert np.abs(b - m).max() < 1e-12


def test_iwasawa_roundtrip_seeded():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = m / np.linalg.det(m) ** (1.0 / n)
        b, u1 = ml.iwasawa(m)
        assert np.abs(b @ u1 - m).max() < 1e-12
        d = np.diag(b)
        assert np.abs(d.imag).max() < 1e-14 and d.real.min() > 0
        assert np.abs(np.tril(b, -1)).max() == 0


def test_iwasawa_ill_conditioned():
    with pytest.raises(ml.IllConditionedError):
        ml.iwasawa(np.diag([1e8, 1e-8]).astype(complex))


def test_iwasawa_matches_the_scipy_triangular_factorization():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        flip = np.eye(n)[::-1]
        low = linalg.cholesky(flip @ m @ m.conj().T @ flip, lower=True)
        b_ref = flip @ low @ flip
        u_ref = linalg.solve_triangular(b_ref, m, lower=False)
        b, u1 = ml.iwasawa(m)
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()
        assert np.abs(u1 - u_ref).max() <= 1e-12


def _with_condition(rng, k, n, decades):
    """k random n x n complex matrices with singular values from 1 down to
    10^-decades[i], one count of decades per matrix."""
    def unitaries():
        return ml._unitary(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
    s = 10.0 ** -(np.linspace(0, 1, n) * np.asarray(decades, dtype=float)[:, None])
    return (unitaries() * s[:, None, :]) @ unitaries()


def test_iwasawa_bound_is_never_below_the_condition_number():
    # the bound ||r||_F ||r^-1||_F lies between cond_2(m) and n cond_2(m):
    # past the limit a matrix is refused, within it by a factor n accepted
    rng = np.random.default_rng(46)
    for n in range(2, 7):
        for k in (1, 5, 40):
            m = _with_condition(rng, k, n, rng.uniform(0, 16, size=k))
            cond = np.linalg.cond(m)
            for one, c in zip(m, cond):
                if c > ml.COND_LIMIT:
                    with pytest.raises(ml.IllConditionedError):
                        ml.iwasawa(one)
                    continue
                try:
                    b, u = ml.iwasawa(one)
                except ml.IllConditionedError:
                    assert n * c > ml.COND_LIMIT
                    continue
                assert _unitarity(u) <= ml.TOL_UNITARY
                assert np.abs(b @ u - one).max() <= 1e-12
            if np.any(cond > ml.COND_LIMIT):
                with pytest.raises(ml.IllConditionedError):
                    ml.iwasawa(m)
            elif np.all(n * cond <= ml.COND_LIMIT):
                b, u = ml.iwasawa(m)
                for i, one in enumerate(m):  # each alone as in the stack
                    b1, u1 = ml.iwasawa(one)
                    assert np.array_equal(b1, b[i]) and np.array_equal(u1, u[i])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_iwasawa_refuses_singular_nan_and_ill_conditioned_matrices(n):
    rng = np.random.default_rng(47)
    good = _with_condition(rng, 4, n, [2, 4, 6, 3])
    assert ml.iwasawa(good)[1].shape == good.shape
    singular = good[0].copy()
    singular[-1] = 0.0
    rank_one = np.outer(good[1][0], good[2][0])
    nan = good[0].copy()
    nan[0, 0] = np.nan
    for bad in (singular, rank_one, nan, *_with_condition(rng, 3, n, [13, 13, 13])):
        if not np.isnan(bad).any():
            assert not np.linalg.cond(bad) <= ml.COND_LIMIT
        with pytest.raises(ml.IllConditionedError):
            ml.iwasawa(bad)
        stack = good.copy()
        stack[2] = bad  # one bad matrix fails its stack
        with pytest.raises(ml.IllConditionedError):
            ml.iwasawa(stack)


def _unitarity(u):
    return np.linalg.norm(u @ ml._H(u) - np.eye(u.shape[-1]), axis=(-2, -1))


def test_iwasawa_returns_only_unitary_factors():
    # a triangular factorization of m m^dagger would lose orthogonality like
    # cond^2, about 1e-3 at condition 1e7, far inside the condition limit
    rng = np.random.default_rng(48)
    ill = _with_condition(rng, 20, 4, [7] * 20)
    b, u = ml.iwasawa(ill)
    assert np.all(_unitarity(u) <= ml.TOL_UNITARY)
    assert np.abs(b @ u - ill).max() <= 1e-14
    d = np.diagonal(b, axis1=-2, axis2=-1)
    assert np.all(np.tril(b, -1) == 0) and np.all(d.imag == 0) and np.all(d.real > 0)
    for i, m in enumerate(ill):  # each alone as in the stack
        b1, u1 = ml.iwasawa(m)
        assert np.array_equal(b1, b[i]) and np.array_equal(u1, u[i])
    # and stacked beside well-conditioned matrices
    good = _with_condition(rng, 20, 4, rng.uniform(0, 2, size=20))
    b2, u2 = ml.iwasawa(np.concatenate([good[:10], ill[:10]]))
    assert np.all(_unitarity(u2) <= ml.TOL_UNITARY)
    for i, m in enumerate(good[:10]):
        b1, u1 = ml.iwasawa(m)
        assert np.array_equal(b1, b2[i]) and np.array_equal(u1, u2[i])
    assert np.array_equal(b2[10:], b[:10]) and np.array_equal(u2[10:], u[:10])


def test_sample_group_is_the_exponential():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(20)
    for i in range(50):
        n = 2 + i % 5
        (x,) = ml.complex_normals(rng, 1, (n, n))
        g = ml._sl_exp(x)[0]
        ref = linalg.expm(0.4 * (x[0] - np.trace(x[0]) / n * np.eye(n)))
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        assert abs(np.linalg.det(g) - 1) < 1e-12


def test_g_act_identity_and_unitary(sl3):
    u = loops.sample_unitary(np.random.default_rng(11), 3)
    assert np.abs(ml.g_act(u, np.eye(3, dtype=complex)) - u).max() < 1e-12
    g = loops.sample_unitary(np.random.default_rng(12), 3)
    assert np.abs(ml.g_act(u, g) - u @ g).max() < 1e-12


def test_g_act_axiom_seeded():
    worst = 0.0
    for child in np.random.SeedSequence(13).spawn(50):
        rng = np.random.default_rng(child)
        n = 3
        u = loops.sample_unitary(rng, n)
        g, h = loops.sample_group(rng, n), loops.sample_group(rng, n)
        worst = max(worst, float(np.abs(
            ml.g_act(ml.g_act(u, g), h) - ml.g_act(u, g @ h)
        ).max()))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# subspace identities

@pytest.mark.parametrize("label", ["sl(2,R)", "sl(3,R)", "su(2,1)", "su(1,1)"])
def test_annihilator_identity(label):
    rf = ml.realization(label)
    rfe = real_form_data(BY_LABEL[label])
    res = ml.annihilator_check(rf)
    assert res == (rfe.dim_p0,) * 3
    assert all(isinstance(dim, int) for dim in res)


@pytest.mark.parametrize("label", ["sl(2,R)", "sl(3,R)", "su(2,1)", "su(2,2)", "su(3,1)"])
def test_tau_root_action_matches_catalog(label):
    rf = ml.realization(label)
    rfe = real_form_data(BY_LABEL[label])
    images = BY_LABEL[label].root_system().permutations.images(rfe.tau_star)
    assert ml.tau_root_action(rf) == images


@pytest.mark.parametrize("label", ["sl(3,R)", "su(2,1)"])
def test_cartan_consistency(label):
    res = ml.cartan_consistency(ml.realization(label))
    assert res == {"tau_sq": 0.0, "commute": 0.0}


@pytest.mark.parametrize("label", ["sl(2,R)", "sl(3,R)", "su(2,1)", "su(3,1)"])
def test_fixed_triangular_dimension(label):
    rfe = real_form_data(BY_LABEL[label])
    assert ml.annihilator_check(ml.realization(label)).dim_fixed_points == rfe.dim_p0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_exact_rank_matches_gauss_jordan_over_q(rows, cols, data):
    # small entries, many zeros, and planted zero rows and rows equal up to sign
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    m = np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)), dtype=int).reshape(rows, cols)
    m = np.concatenate([m, -m[:2], np.zeros((1, cols), int), m[-1:]])
    assert ml.exact_rank(m) == ml.exact_rank(m.astype(float)) == _fraction_rank(m.tolist())


@pytest.mark.parametrize("label", BASIS_LABELS)
def test_exact_rows_agree_with_the_float_paths(monkeypatch, label):
    rf = ml.realization(label)
    # the Gaussian Cartan residuals of the float path read 0.0, as the exact ones do
    zero = {"tau_sq": 0.0, "commute": 0.0}
    assert loops.cartan_consistency(rf, 20, 3) == ml.cartan_consistency(rf) == zero
    # the float annihilator: the same dimensions, and projectors that agree
    distance, dim_annihilator, dim_fixed = loops.annihilator_check(rf)
    assert distance < 1e-12
    assert ml.annihilator_check(rf) == (dim_annihilator, dim_fixed, dim_annihilator)
    assert dim_annihilator == dim_fixed
    # every exact rank that a realization and the annihilator check take is
    # the rank by Gauss-Jordan over the rationals
    ranked, original = [], ml.exact_rank

    def recording(m):
        ranked.append((m, original(m)))
        return ranked[-1][1]

    monkeypatch.setattr(ml, "exact_rank", recording)
    ml.annihilator_check(ml.MatrixRealForm(rf.label, rf.kind, rf.n, rf.p, rf.q))
    assert len(ranked) == 2 * (rf.n - 1) + 3
    for m, rank in ranked:
        assert rank == _fraction_rank(np.rint(m).astype(int).tolist())


def test_a_planted_wrong_tau_fails_the_cartan_rows(monkeypatch):
    rf = ml.realization("su(2,1)")
    n = rf.n
    # negate the column of a root vector that tau moves: tau^2 = -1 there
    image = np.abs(rf._tau[n - 1:, n - 1:]).argmax(axis=0)
    col = n - 1 + int(np.flatnonzero(image != np.arange(len(image)))[0])
    bad = copy.copy(rf)
    bad._tau = rf._tau.copy()
    bad._tau[:, col] *= -1
    assert ml.cartan_consistency(bad) == {"tau_sq": 2.0, "commute": 2.0}
    monkeypatch.setattr(ml, "realization", lambda label: bad)
    doc = run_verify_battery(BY_LABEL["su(2,1)"], RunConfig(command="verify"))
    # k0_coisotropic reads the same matrix, as 1 - tau
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
        "cartan_tau_sq", "cartan_commute", "k0_coisotropic"]


@pytest.mark.parametrize("label,failed", [
    ("su(2,1)", {"cartan_tau_sq": 1.0, "cartan_commute": 1.0, "k0_coisotropic": 4.0}),
    ("sl(3,R)", {"cartan_commute": 1.0, "k0_coisotropic": 8.0}),
    ("su(3,2)", {"cartan_tau_sq": 1.0, "cartan_commute": 1.0, "k0_coisotropic": 4.0}),
], ids=["su(2,1)", "sl(3,R)", "su(3,2)"])
def test_a_tau_that_mixes_the_torus_and_the_roots_fails_cartan_commute(monkeypatch, label,
                                                                        failed):
    # a torus coordinate in the image of the first root vector: su_lattice
    # drops the root scale, so _tau is no longer tau's matrix there
    rf = ml.realization(label)
    bad = copy.copy(rf)
    bad._tau = rf._tau.copy()
    bad._tau[0, rf.n - 1] = 1.0
    monkeypatch.setattr(ml, "realization", lambda label: bad)
    doc = run_verify_battery(BY_LABEL[label], RunConfig(command="verify"))
    assert {c["name"]: c["value"] for c in doc["checks"] if not c["passed"]} == failed


def test_tau_split_rejects_a_mixed_tau_with_asserts_stripped():
    # the block check raises, so `python -O`, which strips asserts, keeps it
    code = ("from leafatlas import matrixlie as ml\n"
            "rf = ml.realization('su(2,1)')\n"
            "tau = rf._tau.copy()\n"
            "tau[0, rf.n - 1] = 1.0\n"
            "try:\n"
            "    ml._tau_split(tau, rf.n)\n"
            "except ValueError as exc:\n"
            "    print(__debug__, exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False tau's integer matrix mixes the torus and the root vectors\n"


def test_a_k0_vector_swapped_for_an_ip0_vector_fails_the_annihilator_rows(monkeypatch):
    rf = ml.realization("sl(3,R)")
    bad = copy.copy(rf)
    bad.basis_k0 = rf.basis_k0.copy()
    # X of the first root for Y of the last: both root vectors, of one scale
    bad.basis_k0[0] = rf.basis_ip0[-1]
    # both subspaces keep dimension dim p0 = 5; only the joint rank sees it
    assert ml.annihilator_check(bad) == (5, 5, 4)
    monkeypatch.setattr(ml, "realization", lambda label: bad)
    doc = run_verify_battery(BY_LABEL["sl(3,R)"], RunConfig(command="verify"))
    failed = {c["name"]: c["value"] for c in doc["checks"] if not c["passed"]}
    assert failed == {"annihilator_dims": 1.0}


def test_the_exact_rows_build_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was built")

    rf = ml.realization("su(3,2)")
    monkeypatch.setattr(ml.SampleStream, "__init__", refuse)
    assert ml.cartan_consistency(rf)["commute"] == 0.0
    assert ml.annihilator_check(rf) == (12, 12, 12)


def test_leaf_tangency_identity_and_generic(sl2):
    res = ml.leaf_tangency_check(sl2, np.eye(2, dtype=complex))
    assert res.dim_bivector_image == res.dim_orbit_projection == 0
    u = loops.sample_unitary(np.random.default_rng(14), 2)
    res = ml.leaf_tangency_check(sl2, u)
    assert res.dim_bivector_image == res.dim_orbit_projection == 2
    assert res.residual < 1e-8


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :cols]


def test_largest_principal_angle_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(21)
    for _ in range(50):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(1, rows + 1))
        a, b = _orthonormal(rng, rows, cols), _orthonormal(rng, rows, cols)
        ref = float(np.max(linalg.subspace_angles(a, b)))
        assert abs(ml.largest_principal_angle(a, b) - ref) < 1e-12
    assert ml.largest_principal_angle(np.zeros((4, 0)), np.zeros((4, 0))) == 0.0


def test_largest_principal_angle_of_nearly_equal_subspaces():
    linalg = pytest.importorskip("scipy.linalg")
    # span(b) is span(a) turned by 1e-15, in another basis: the arccos of
    # the cosines would read about 2e-8 here
    rng = np.random.default_rng(22)
    q = _orthonormal(rng, 8, 8)
    a = q[:, :4]
    b = a.copy()
    b[:, 0] = math.cos(1e-15) * a[:, 0] + math.sin(1e-15) * q[:, 4]
    b = b @ _orthonormal(rng, 4, 4)
    ref = float(np.max(linalg.subspace_angles(a, b)))
    got = ml.largest_principal_angle(a, b)
    assert got < 1e-14 and abs(got - ref) < 1e-14
    assert ml.largest_principal_angle(a, a) < 1e-14


def test_leaf_tangency_su21_generic():
    rf = ml.realization("su(2,1)")
    u = loops.sample_unitary(np.random.default_rng(15), 3)
    res = ml.leaf_tangency_check(rf, u)
    assert res.dim_bivector_image == res.dim_orbit_projection == 4
    assert res.residual < 1e-8


def test_leaf_tangency_dimension_mismatch_reads_a_right_angle(monkeypatch):
    # a vector of the larger span is orthogonal to the smaller one, so the
    # largest principal angle is pi/2, a finite value that still fails
    rf = ml.realization("su(2,1)")
    u = loops.sample_unitary(np.random.default_rng(15), 3)
    original, calls = ml.column_space, []

    def dropping(m):  # every orbit span loses its last vector
        calls.append(m)
        q, borderline = original(m)
        return (q[:, :-1] if len(calls) % 2 == 0 else q), borderline

    monkeypatch.setattr(ml, "column_space", dropping)
    res = ml.leaf_tangency_check(rf, u)
    assert (res.dim_bivector_image, res.dim_orbit_projection) == (4, 3)
    assert res.residual == math.pi / 2
    assert ml.leaf_tangency_residual(rf, 3, 6) == (math.pi / 2, 0)


def test_leaf_tangency_counts_a_borderline_orbit_rank(monkeypatch):
    rf = ml.realization("su(2,1)")
    u = loops.sample_unitary(np.random.default_rng(15), 3)
    assert ml.leaf_tangency_check(rf, u).borderline is False
    original, calls = ml.column_space, []

    def marking(m):  # every orbit span, ranked second, is marked borderline
        calls.append(m)
        q, borderline = original(m)
        return q, borderline or len(calls) % 2 == 0

    monkeypatch.setattr(ml, "column_space", marking)
    assert ml.leaf_tangency_check(rf, u).borderline is True
    assert ml.leaf_tangency_residual(rf, 3, 6)[1] == 3


# ---------------------------------------------------------------------------
# representatives and stabilizers

def test_representative_identity(sl3):
    u = ml.representative_for(sl3, ())
    assert np.array_equal(u, np.eye(3, dtype=complex))


def test_representative_cayley_self_verifies(sl2):
    u = ml.representative_for(sl2, (1,))
    got, residual = ml.induced_weyl_matrix(sl2, u)
    assert got == [1, 0] and residual < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diagonal_permutation_of_a_word_has_the_words_matrix(n):
    # the self-check of representative_for compares permutations of the
    # diagonal; column i of the matrix of e_j -> e_perm[j] is the image
    # e_perm[i] - e_perm[i+1] of alpha_i, whose k-th simple-root coordinate
    # is the partial sum of its entries up to k
    for w in wm.enumerate_weyl(build_root_system("A", n - 1)):
        perm = ml._weyl_permutation(w.word, n)
        assert w.matrix == tuple(tuple(int(perm[i] <= k) - int(perm[i + 1] <= k)
                                       for i in range(n - 1)) for k in range(n - 1))


def test_representative_of_the_wrong_element_fails_the_self_check(sl3, monkeypatch):
    # a Cayley block for the transposition of e_2, e_3 where s_1 swaps e_1, e_2
    original = ml._sl_real_representative
    monkeypatch.setattr(ml, "_sl_real_representative", lambda perm: original([0, 2, 1]))
    with pytest.raises(RuntimeError, match=r"word \(1,\) fails the self-check"):
        ml.representative_for(sl3, (1,))


def test_representative_none_for_flagged_class():
    # the class below has negative formal leaf dimension, so no orbit
    # realizes it and there is no representative to construct
    rf = ml.realization("su(3,1)")
    rs = build_root_system("A", 3)
    psi = wm.reflect(rs, 2)
    rfe = real_form_data(BY_LABEL["su(3,1)"])
    cls = wm.orbit_class(rfe, rs, psi)
    assert not cls["dims_in_range"]
    assert ml.representative_for(rf, psi.word) is None


def test_representative_su21_longest_element_self_verifies():
    rf = ml.realization("su(2,1)")
    w0 = real_form_data(BY_LABEL["su(2,1)"]).w0
    u = ml.representative_for(rf, w0.word)
    assert u is not None
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(u) - 1) < 1e-12
    got, residual = ml.induced_weyl_matrix(rf, u)
    assert got == [2, 1, 0] and residual < 1e-10


def _clan_realizable(rf, word) -> bool:
    # the (p, q)-clan criterion, stated on permutations: psi acts on the
    # diagonal by e_j -> e_perm[j], J by e_j -> e_jp[j]; psi is realized iff
    # j -> perm[jp[j]] is an involution with at most q two-cycles
    perm = list(range(rf.n))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    jp = [int(np.argmax(rf.J[:, j])) for j in range(rf.n)]
    h = [perm[jp[j]] for j in range(rf.n)]
    if any(h[h[j]] != j for j in range(rf.n)):
        return False
    return sum(h[j] > j for j in range(rf.n)) <= rf.q


@pytest.mark.parametrize("label,realized", [
    ("su(1,1)", 2), ("su(2,1)", 4), ("su(3,1)", 7),
    ("su(2,2)", 10), ("su(4,1)", 11), ("su(3,2)", 26),
])
def test_su_pq_representatives_follow_the_clans(label, realized):
    rf = ml.realization(label)
    count = 0
    for cls in walked_classes(label):
        u = ml.representative_for(rf, cls["psi_word"])
        assert (u is not None) == _clan_realizable(rf, cls["psi_word"])
        if u is None:
            continue
        count += 1
        # every flagged class is unrealizable
        assert cls["dims_in_range"] and cls["parity_ok"]
        assert abs(np.linalg.det(u) - 1) < 1e-12
        assert ml.stabilizer_dim(rf, [u]) == (
            [cls["a"] + cls["codim_Y"]], [cls["t"] + cls["a"] + cls["codim_Y"]], 0)
    assert count == realized


@pytest.mark.parametrize("label", ["sl(2,R)", "sl(3,R)"])
def test_stabilizer_dims_match_class_invariants(label):
    rf = ml.realization(label)
    for cls in walked_classes(label):
        u = ml.representative_for(rf, cls["psi_word"])
        assert u is not None
        assert ml.stabilizer_dim(rf, [u]) == (
            [cls["a"] + cls["codim_Y"]], [cls["t"] + cls["a"] + cls["codim_Y"]], 0)


@pytest.mark.parametrize("label", [
    "sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)", "sl(6,R)", "su(1,1)", "su(2,1)",
    "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)", "su(3,3)"])
def test_stabilizer_dim_matches_the_per_matrix_loop(label):
    # the rows of the lower triangle off a + n against the projection off
    # frames of a + n over all n^2 entries, with and without the torus, on
    # every class representative and 20 seeded unitaries, alone and stacked
    rf = ml.realization(label)
    sd = rf.diagram
    reps = [ml.representative_for(rf, word)
            for _, word, _ in twisted_involutions(real_form_data(sd), sd.root_system())]
    points = [u for u in reps if u is not None]
    points += list(ml.sample_unitaries(np.random.default_rng(31), 20, rf.n))
    want = tuple([loops.stabilizer_dim(rf, u, torus) for u in points] for torus in (False, True))
    singles = [ml.stabilizer_dim(rf, [u]) for u in points]
    assert tuple([single[torus][0] for single in singles] for torus in (0, 1)) == want
    assert ml.stabilizer_dim(rf, np.stack(points)) == (*want, sum(s[2] for s in singles))


def test_orbit_dimension_count(sl2):
    # dim orbit = dim g0 - stabilizer dim; leaf dim = dim orbit - dim k0
    rfe = real_form_data(BY_LABEL["sl(2,R)"])
    for cls in walked_classes("sl(2,R)"):
        u = ml.representative_for(sl2, cls["psi_word"])
        dim_orbit = rfe.dim_g - ml.stabilizer_dim(sl2, [u])[0][0]
        assert cls["leaf_dim"] == dim_orbit - rfe.dim_k0


# ---------------------------------------------------------------------------
# the exponential chart of the finite-difference reference

def test_jacobi_constant_field_is_flat():
    rng = np.random.default_rng(16)
    c = rng.normal(size=(5, 5))
    c = c - c.T
    assert loops.jacobi_residual(lambda x: c, np.zeros(5)) < 1e-12


REALIZED = ["sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)",
            "su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)"]


def _phi_series(a, tol=1e-20, max_terms=80):
    """(1 - exp(-A))/A as a convergent series, the differential of exp."""
    d = a.shape[0]
    term = np.eye(d)
    total = np.eye(d)
    for k in range(1, max_terms):
        term = term @ (-a) / (k + 1)
        total = total + term
        if np.linalg.norm(term) < tol:
            break
    return total


def _dexp_series(rf, x):
    """The image of basis_ip0 under phi(ad xi), summed term by term over
    basis_u."""
    xi = sum(c * b for c, b in zip(x, rf.basis_ip0))
    return _phi_series(ad_matrix(rf, xi)) @ np.stack([bl.coeffs(rf, b) for b in rf.basis_ip0],
                                                     axis=1)


@pytest.mark.parametrize("label", REALIZED)
def test_closed_form_phi_matches_the_series(label):
    rf = ml.realization(label)
    for x in np.random.default_rng(23).uniform(-0.4, 0.4, size=(5, rf.dim_ip0)):
        dexp_ref = _dexp_series(rf, x)
        xi = np.tensordot(x, rf.basis_ip0, axes=1)
        dexp = rf.coeffs(loops.exp_and_phi_ad(xi, rf.basis_ip0)[1])
        assert np.linalg.norm(dexp - dexp_ref) <= 1e-12 * np.linalg.norm(dexp_ref)


def test_eigh_exponential_matches_scipy_expm():
    linalg = pytest.importorskip("scipy.linalg")
    for label in REALIZED:
        rf = ml.realization(label)
        for x in np.random.default_rng(24).uniform(-2, 2, size=(5, rf.dim_ip0)):
            xi = np.tensordot(x, rf.basis_ip0, axes=1)
            u, _ = loops.chart(rf, x)
            assert np.abs(u - linalg.expm(xi)).max() < 1e-12
            assert np.abs(u @ u.conj().T - np.eye(rf.n)).max() < 1e-13


# ---------------------------------------------------------------------------
# the conjugation kernel against the per-matrix references

KERNEL_FORMS = REALIZED + ["sl(6,R)", "su(3,3)", "su(5,1)"]


def _stack_sizes(rf):
    """A single point (None), one, a full stack of the form and one over."""
    size = ml.stack_size(rf.n)
    return [None, 1, size, size + 1]


def _points(rf, size, seed):
    """A single unitary (size None) or a stack of them."""
    us = ml.sample_unitaries(np.random.default_rng(seed), size or 1, rf.n)
    return us[0] if size is None else us


def _each(a):
    return [a] if a.ndim == 2 else list(a)


@pytest.mark.parametrize("label", KERNEL_FORMS)
def test_conjugation_kernel_matches_the_per_matrix_reference(label):
    rf = ml.realization(label)
    basis = bl.su_basis(rf.n)[0]
    rng = np.random.default_rng(25)
    for size in _stack_sizes(rf):
        us = _points(rf, size, 26)
        ads = rf.Ad_matrix(us)
        assert ads.shape == us.shape[:-2] + (rf.dim_u, rf.dim_u)
        for u, ad in zip(_each(us), _each(ads)):
            ref = np.stack([bl.coeffs(rf, u @ b @ u.conj().T) for b in basis], axis=1)
            assert np.abs(ad - ref).max() <= 1e-12
        # coeffs: skew-Hermitian stacks, and any matrix by its projection
        z = rng.normal(size=us.shape) + 1j * rng.normal(size=us.shape)
        for ms in (us @ rf.basis_u[5 % rf.dim_u] @ ml._H(us), z):
            got = rf.coeffs(ms[..., None, :, :])[..., 0]
            ref = np.array([bl.coeffs(rf, m) for m in ms.reshape(-1, rf.n, rf.n)])
            assert np.abs(got - ref.reshape(got.shape)).max() <= 1e-12


@pytest.mark.parametrize("label", KERNEL_FORMS)
def test_chart_jacobian_matches_the_references(label):
    # the reference chart, on a stack of points as on each point alone
    rf = ml.realization(label)
    rng = np.random.default_rng(27)
    for size in _stack_sizes(rf):
        xs = rng.uniform(-0.4, 0.4, size=(size or 1, rf.dim_ip0))
        xs = xs[0] if size is None else xs
        us, jacs = loops.chart(rf, xs)
        assert jacs.shape == xs.shape[:-1] + (rf.dim_ip0, rf.dim_ip0)
        for x, u, jac in zip(xs.reshape(-1, rf.dim_ip0), _each(us), _each(jacs)):
            xi = np.tensordot(x, rf.basis_ip0, axes=1)
            u_ref, dexp = loops.exp_and_phi_ad(xi, rf.basis_ip0)
            ref = rf._ip0_reader @ np.stack([bl.coeffs(rf, d) for d in dexp], axis=1)
            series = rf._ip0_reader @ _dexp_series(rf, x)
            assert np.abs(u - u_ref).max() <= 1e-12
            assert np.abs(jac - ref).max() <= 1e-12
            assert np.abs(jac - series).max() <= 1e-12


@pytest.mark.parametrize("label", KERNEL_FORMS)
def test_bivector_kernel_is_exactly_antisymmetric(label):
    rf = ml.realization(label)
    readers = [(None, rf.lam), (rf._ip0_reader, rf._ip0_lam)]
    if rf.kind == "su_pq":
        readers.append(loops.flag_reader(rf))
    for size in _stack_sizes(rf):
        a = rf.Ad_matrix(_points(rf, size, 28))
        for reader, lam in readers:
            c = ml._bivector(rf, a if reader is None else reader @ a, lam)
            diag = np.diagonal(c, axis1=-2, axis2=-1)
            assert np.array_equal(c, -ml._T(c))
            assert np.all(diag == 0) and not np.any(np.signbit(diag))


def _peak_kib(call):
    """Peak traced allocation of one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_conjugation_kernel_peak_memory():
    # the peaks of the (P, dim u, n, n) products that the kernel replaced
    rf = ml.realization("sl(5,R)")
    us = ml.sample_unitaries(np.random.default_rng(29), ml.stack_size(rf.n), rf.n)
    assert len(us) == 16
    assert _peak_kib(lambda: rf.Ad_matrix(us)) <= 373


def test_jacobi_su2(sl2):
    assert ml.poisson_identities(sl2) == (0.0, 0.0, 0.0)
    assert loops.jacobi_check(sl2, n_points=20, seed=17) < 1e-6


def test_jacobi_su3(sl3):
    assert ml.poisson_identities(sl3) == (0.0, 0.0, 0.0)
    assert loops.jacobi_check(sl3, n_points=10, seed=18) < 1e-5


@pytest.mark.parametrize("label", ["sl(2,R)", "su(1,1)"])
def test_jacobi_is_empty_without_an_index_triple(monkeypatch, label):
    # dim ip0 = 2: no i < j < k, so the reference evaluates no bivector and
    # reads +0.0, while the exact identities still hold
    rf = ml.realization(label)
    assert rf.dim_ip0 == 2

    def never(*args):
        raise AssertionError("evaluated")

    assert loops.jacobi_residual(never, np.zeros(2)) == 0.0
    monkeypatch.setattr(loops, "centred_bivector", never)
    value = loops.jacobi_check(rf, 20, seed=4)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert ml.poisson_identities(rf) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the Poisson property: two exact identities, with the finite-difference
# Jacobiator of the reference chart beside them

def _reseeded(label, lam_of):
    """A fresh realization of label with the seed lam replaced by lam_of(rf)."""
    rf = ml.realization(label)
    rf = ml.MatrixRealForm(label, rf.kind, rf.n, rf.p, rf.q)
    rf.lam = lam_of(rf)
    rf._ip0_lam = ml._read_seed(rf, rf._ip0_reader)
    return rf


def _doubled_plane(rf, plane=0):  # twice the seed on one (X_alpha, Y_alpha) plane
    lam, x = rf.lam.copy(), rf.n - 1 + 2 * plane
    lam[x, x + 1], lam[x + 1, x] = 2 * lam[x, x + 1], 2 * lam[x + 1, x]
    return lam


@pytest.mark.parametrize("label", REALIZED)
def test_exact_identities_and_the_sampled_jacobiator_agree(label):
    rf = ml.realization(label)
    assert ml.poisson_identities(rf) == (0.0, 0.0, 0.0)
    assert loops.jacobi_check(rf, 3, seed=4) <= (1e-6 if rf.dim_ip0 <= 2 else 1e-5)


@pytest.mark.parametrize("label", ["sl(3,R)", "su(2,1)", "su(3,2)"])
def test_planted_non_poisson_seed_fails_mcybe_and_the_sampled_jacobiator(label):
    # the residual is an integer: 6 for any doubled plane of a rank >= 2 form
    rf = _reseeded(label, _doubled_plane)
    mcybe, coisotropic, invariance = ml.poisson_identities(rf)
    assert mcybe == 6.0
    assert 5e-3 <= loops.jacobi_check(rf, 3, seed=0) <= 5e-2
    if rf.kind == "sl_real":  # X_alpha in k0, Y_alpha in i p0: lam in k0 ^ u, kept by ad k0
        assert coisotropic == 0.0
    assert invariance == 0.0  # a doubled plane is still torus-invariant


def test_doubled_plane_breaks_coisotropy_on_su21():
    # doubling the plane of the first root moves ad_X lam off k0 ^ u for
    # some X in k0; doubling that of the second does not
    assert ml.poisson_identities(_reseeded("su(2,1)", _doubled_plane)) == (6.0, 2.0, 0.0)
    second = _reseeded("su(2,1)", lambda rf: _doubled_plane(rf, 1))
    assert ml.poisson_identities(second) == (6.0, 0.0, 0.0)


def _weyl_conjugate(perm):
    """The seed carried by Ad of the permutation matrix of perm: a signed
    permutation of its planes, for which the mCYBE still holds."""
    def lam_of(rf):
        a = rf.Ad_matrix(np.eye(rf.n, dtype=complex)[list(perm)])
        return a @ rf.lam @ a.T
    return lam_of


@pytest.mark.parametrize("label,perm", [("su(2,1)", (1, 0, 2)), ("su(3,2)", (1, 0, 2, 3, 4))])
def test_weyl_conjugate_seed_fails_only_coisotropy(label, perm):
    # pi_U stays Poisson, but its push-forward to U/K is not: the reference
    # Jacobiator reads about 7e-3 on su(2,1)
    rf = _reseeded(label, _weyl_conjugate(perm))
    assert ml.poisson_identities(rf) == (0.0, 4.0, 0.0)
    if label == "su(2,1)":
        assert loops.jacobi_check(rf, 2, seed=0) > 1e-3
    # on the split form every Weyl conjugate keeps both
    assert ml.poisson_identities(_reseeded("sl(3,R)", _weyl_conjugate(perm[:3]))) == (0.0, 0.0, 0.0)


def test_planted_seed_fails_the_verify_rows(monkeypatch):
    from leafatlas import cli

    planted = {"sl(3,R)": _reseeded("sl(3,R)", _doubled_plane),
               "su(2,1)": _reseeded("su(2,1)", _weyl_conjugate((1, 0, 2)))}
    monkeypatch.setattr(ml, "realization", planted.get)
    rows = {}
    for label in planted:
        doc = cli.run_verify_battery(BY_LABEL[label], cli.RunConfig("verify"))
        rows[label] = {c["name"]: (c["value"], c["passed"]) for c in doc["checks"]
                       if c["name"] in ("t_invariance", "mcybe", "k0_coisotropic")}
    # a failing row reports its integer residual
    assert rows == {"sl(3,R)": {"t_invariance": (0.0, True), "mcybe": (6.0, False),
                                "k0_coisotropic": (0.0, True)},
                    "su(2,1)": {"t_invariance": (0.0, True), "mcybe": (0.0, True),
                                "k0_coisotropic": (4.0, False)}}


@pytest.mark.parametrize("label,cap", [("sl(5,R)", 694), ("su(3,2)", 633)])
def test_poisson_identities_peak_memory(label, cap):
    # the caps are the traced peaks of the sampled Jacobi check that the
    # identities replaced, at the verify battery's 10 points
    assert _peak_kib(lambda: ml.poisson_identities(ml.realization(label))) <= cap


# ---------------------------------------------------------------------------
# Hermitian decomposition

def test_hermitian_fit_su11():
    rf = ml.realization("su(1,1)")
    res = ml.hermitian_fit(rf, n_samples=100, seed=19)
    assert res.max_residual < 1e-8
    # nondegenerate on the disk
    assert ml.numerical_rank(ml.invariant_bivector(rf))[0] == 2
    res2 = ml.hermitian_fit(rf, n_samples=100, seed=20)
    assert abs(res.b - res2.b) < 1e-8


def test_hermitian_fit_su21_smoke():
    rf = ml.realization("su(2,1)")
    res = ml.hermitian_fit(rf, n_samples=30, seed=21)
    assert res.max_residual < 1e-8
    assert ml.numerical_rank(ml.invariant_bivector(rf))[0] == rf.dim_ip0


@pytest.mark.parametrize("label", ["su(4,1)", "su(3,2)"])
def test_pooled_hermitian_fit_sees_a_fault_in_its_second_hundred_samples(monkeypatch, label):
    # verify fits b once over 200 samples, with no second fit to compare b
    # against: a flag part off by 1e-6 (not a multiple of c_inv) on samples
    # 100 on, and only there, must show in the residual
    rf = ml.realization(label)
    original, seen = ml._bivector, [0]

    def faulty(rf_, a, lam):
        out = original(rf_, a, lam)
        if a.ndim == 3 and lam is not rf_._ip0_lam:  # the flag part of a stack
            index = seen[0] + np.arange(len(a))
            seen[0] += len(a)
            out = out * np.where(index >= 100, 1 + 1e-6, 1.0)[:, None, None]
        return out

    monkeypatch.setattr(ml, "_bivector", faulty)
    first = ml.hermitian_fit(rf, 100, seed=8)
    seen[0] = 0
    pooled = ml.hermitian_fit(rf, 200, seed=8)
    assert seen[0] == 200
    assert first.max_residual <= 1e-8 < pooled.max_residual


@pytest.mark.parametrize("label", ["su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)", "su(4,1)",
                                   "su(3,2)"])
def test_hermitian_fit_does_not_depend_on_the_stack_size(monkeypatch, label):
    # a budget of 0 gives stacks of 16 samples, 100 * 5^4 one stack of 100
    rf = ml.realization(label)
    fits = []
    for budget in (0, 100 * 5**4):
        monkeypatch.setattr(ml, "STACK_BUDGET", budget)
        fits.append(ml.hermitian_fit(rf, n_samples=100, seed=8))
    assert ml._stacks(100, rf.n) == [100]
    assert fits[0].b == fits[1].b


def test_hermitian_fit_rejects_split_form(sl3):
    with pytest.raises(ml.NotHermitianError):
        ml.hermitian_fit(sl3, 10, 0)


# ---------------------------------------------------------------------------
# rank sampling

def test_max_rank_matches_atlas_sl3(sl3):
    assert ml.max_sampled_rank(sl3, n_samples=60, seed=22)[0] == 4


def test_max_rank_matches_atlas_su21():
    assert ml.max_sampled_rank(ml.realization("su(2,1)"), n_samples=60, seed=23)[0] == 4


def test_realization_errors():
    with pytest.raises(ml.RealizationError):
        ml.realization("so(4,1)")
    with pytest.raises(ml.RealizationError):
        ml.realization("sp(2,R)")


# ---------------------------------------------------------------------------
# stacked sampled checks against the per-sample loops

def _counts(rf):
    """One sample, a full stack of the form, one over, and several stacks."""
    size = ml.stack_size(rf.n)
    return 1, size, size + 1, 2 * size + 5


def _close(got, want):
    return abs(got - want) <= 1e-12


@pytest.mark.parametrize("label", REALIZED)
def test_stacked_checks_match_the_per_sample_loops(monkeypatch, label):
    rf = ml.realization(label)
    if rf.n == 2:  # stacks of 16, not 625: the counts cross the same boundaries
        monkeypatch.setattr(ml, "STACK_BUDGET", 16 * 2**4)
        assert ml.stack_size(2) == 16
    for count in _counts(rf):
        assert ml.max_sampled_rank(rf, count, seed=5) == loops.max_sampled_rank(rf, count, 5)
        assert _close(ml.iwasawa_residual(rf, count, 0), loops.iwasawa_residual(rf, count, 0))
        assert _close(ml.action_residual(rf, count, 1), loops.action_residual(rf, count, 1))
        # the loops moved from the verify battery: same draws, same values
        assert ml.leaf_tangency_residual(rf, count, 6) == loops.leaf_tangency_residual(rf, count, 6)
        if rf.kind == "sl_real" and rf.n == 2:  # stacked, it moves at roundoff
            (worst, kept), (want, want_kept) = (check(rf, count, 7) for check in (
                ml.formula_residual, loops.formula_residual))
            assert _close(worst, want) and kept == want_kept
        if rf.kind == "su_pq":
            fit = ml.hermitian_fit(rf, count, seed=8)
            b, max_residual = loops.hermitian_fit(rf, count, 8)
            assert _close(fit.b, b) and _close(fit.max_residual, max_residual)


def test_hermitian_fit_extremes_match_the_loop_off_the_decomposition(monkeypatch):
    # with a symmetric part added to the invariant bivector the differences
    # are far from b c_inv, and (i, j) and (j, i) miss it by different
    # amounts, so the residual can peak at the running max of one entry or
    # at the running min of another
    rf = ml.MatrixRealForm("su(2,1)", "su_pq", 3, 2, 1)
    c_inv = ml.invariant_bivector(rf)
    s = np.random.default_rng(43).normal(size=(rf.dim_ip0, rf.dim_ip0))
    for sym in (s + s.T, -(s + s.T)):
        monkeypatch.setattr(ml, "invariant_bivector", lambda rf, sym=sym: c_inv + sym)
        fit = ml.hermitian_fit(rf, 37, seed=8)
        b, max_residual = loops.hermitian_fit(rf, 37, 8)
        assert max_residual > 0.1
        assert _close(fit.b, b) and _close(fit.max_residual, max_residual)


@pytest.mark.parametrize("label", REALIZED)
def test_stacked_tangency_columns_match_the_loop(label):
    rf = ml.realization(label)
    for u in [np.eye(rf.n, dtype=complex)] + list(
            ml.sample_unitaries(np.random.default_rng(6), 3, rf.n)):
        res = ml.leaf_tangency_check(rf, u)
        orbit = loops.orbit_projection(rf, u)
        assert res.dim_orbit_projection == ml.column_space(orbit)[0].shape[1]
        assert res.dim_bivector_image == res.dim_orbit_projection
        assert res.residual < 1e-12


def test_stacked_rank_rule_matches_each_matrix():
    values = [1e-3, 0.998e-8, 0.9995e-8, 5e-8, 1.01e-7]
    stack = np.stack([_with_singular_values([0.5, v], seed=i) for i, v in enumerate(values)])
    ranks, borderline = ml.numerical_rank(stack)
    assert list(zip(ranks.tolist(), borderline.tolist())) == \
        [tuple(ml.numerical_rank(m)) for m in stack]


@pytest.mark.parametrize("label", ["su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)",
                                   "su(4,1)", "su(3,2)", "su(3,3)", "su(5,1)"])
def test_invariant_bivector_matches_the_loop_system(label):
    rf = ml.realization(label)
    # the null space of the invariance system is the construction's line
    assert loops.null_space(loops.invariant_system(rf), 1e-9).shape[1] == 1
    reference = loops.invariant_bivector_in_place(rf)
    assert np.abs(ml.invariant_bivector(rf) - reference).max() <= 1e-12
    assert np.abs(loops.invariant_bivector(rf) - reference).max() <= 1e-12
    # the system is built in place, entry for entry that of the image stack
    assert np.array_equal(reference, loops.invariant_bivector_by_images(rf))


def test_the_tests_null_space_is_scipys():
    linalg = pytest.importorskip("scipy.linalg")
    wide = _with_singular_values([3.0, 1.0, 1e-12], rows=4, cols=6, seed=1)
    for m in (wide, wide.T, loops.invariant_system(ml.realization("su(2,1)"))):
        got, want = loops.null_space(m, 1e-9), linalg.null_space(m, rcond=1e-9)
        assert got.shape == want.shape
        assert ml.largest_principal_angle(got, want) < 1e-12


def test_invariant_bivector_refuses_a_centre_that_is_not_invariant(monkeypatch):
    # Z = i(J - tr J / n) from another involution J' is not central in k0
    rf = ml.MatrixRealForm("su(2,1)", "su_pq", 3, 2, 1)
    assert ml.invariant_bivector(rf).shape == (rf.dim_ip0, rf.dim_ip0)
    monkeypatch.setattr(rf, "J", np.eye(3)[[1, 0, 2]])
    with pytest.raises(ml.NotHermitianError, match="no invariant bivector"):
        ml.invariant_bivector(rf)


def test_invariant_bivector_peak_memory():
    # the in-place null-space build of su(3,2) peaked at 0.9 MiB, and its
    # (dim k0, w, m, m) image stack alone held as much; the construction
    # from the centre of k0 peaks at about 190 KiB
    rf = ml.MatrixRealForm("su(3,2)", "su_pq", 5, 3, 2)
    assert _peak_kib(lambda: ml.invariant_bivector(rf)) <= 256


def _parts(rng, n):
    """One sample's (n, n) and (n,) complex Gaussians, one standard_normal
    call per real or imaginary part, as a per-sample loop draws them."""
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ((n, n), (n,))]


def _at_block(seed, i, n):
    """A fresh Gaussian stream of seed moved to block i, with no draw before it."""
    rng = ml.SampleStream(seed)
    rng.drawn = i * 2 * (n * n + n)
    return rng


def test_stacked_draws_replay_each_block_alone():
    n, seed = 3, 40
    count = ml.stack_size(n) + 5
    assert ml._stacks(count, n) == [ml.stack_size(n), 5]
    rng = ml.SampleStream(seed)
    stacks = [ml.complex_normals(rng, k, (n, n), (n,)) for k in ml._stacks(count, n)]
    z, h = (np.concatenate(part) for part in zip(*stacks))
    unitaries = np.concatenate([ml._unitary(zk) for zk, _ in stacks])
    groups = np.concatenate([ml._sl_exp(zk) for zk, _ in stacks])
    for i in range(count):
        z_i, h_i = _parts(_at_block(seed, i, n), n)
        assert np.array_equal(z[i], z_i) and np.array_equal(h[i], h_i)
        assert np.array_equal(unitaries[i], ml.sample_unitaries(_at_block(seed, i, n), 1, n)[0])
        assert np.array_equal(groups[i], ml._sl_exp(z_i[None])[0])
        ref = loops.sample_unitary(_at_block(seed, i, n), n)
        assert np.abs(unitaries[i] - ref).max() <= 1e-15
        ref = loops.sample_group(_at_block(seed, i, n), n)
        assert np.abs(groups[i] - ref).max() <= 1e-14


class _LoggedStream:
    """A generator that logs the name of each method a check calls on it."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        self._log.append(name)
        return getattr(self._rng, name)


def test_each_check_draws_once_per_stack_from_the_stream_of_its_distribution(monkeypatch):
    log, make = [], ml.SampleStream
    monkeypatch.setattr(ml, "SampleStream", lambda seed: _LoggedStream(make(seed), log))
    for label, checks in (("su(2,1)", (ml.iwasawa_residual, ml.action_residual,
                                       ml.max_sampled_rank, ml.hermitian_fit,
                                       ml.leaf_tangency_residual)),
                          ("sl(2,R)", (ml.formula_residual,))):
        rf = ml.realization(label)
        count = ml.stack_size(rf.n) + 1  # two stacks
        for check in checks:
            log.clear()
            check(rf, count, 3)
            assert log == ["standard_normal"] * 2, check.__name__


def test_sampled_unitaries_are_factored_one_stack_at_a_time(monkeypatch):
    factored = []
    original = np.linalg.qr

    def counting(a, *args, **kwargs):
        factored.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    size = ml.stack_size(3)
    count = 2 * size + 5  # three stacks
    ml.max_sampled_rank(ml.realization("sl(3,R)"), count, seed=0)
    assert len(factored) == math.ceil(count / size)
    assert all(math.prod(shape[:-2]) <= size for shape in factored)


def test_each_point_forms_its_adjoint_matrix_once(monkeypatch):
    calls = []
    original = ml.MatrixRealForm.Ad_matrix

    def counting(self, u):
        calls.append(u.shape)
        return original(self, u)

    rf = ml.MatrixRealForm("su(2,1)", "su_pq", 3, 2, 1)
    monkeypatch.setattr(ml.MatrixRealForm, "Ad_matrix", counting)
    stacks = 3
    # hermitian_fit forms one more, of the fixed alignment u0, before its stacks
    for check, fixed in ((ml.max_sampled_rank, []), (ml.hermitian_fit, [(rf.n, rf.n)])):
        calls.clear()
        check(rf, (stacks - 1) * ml.stack_size(rf.n) + 1, seed=0)
        assert calls[:len(fixed)] == fixed, check.__name__
        assert len(calls) == len(fixed) + stacks, check.__name__
    calls.clear()
    ml.leaf_tangency_check(rf, loops.sample_unitary(np.random.default_rng(0), rf.n))
    assert calls == [(rf.n, rf.n)]


@pytest.mark.parametrize("n,size", [(2, 625), (3, 123), (4, 39), (5, 16)])
def test_stack_size_bounds_the_data_of_a_stack(n, size):
    # a sample's arrays grow like n^4: no stack of a realized form holds more
    # than 16 samples of an n = 5 form
    assert ml.stack_size(n) == size
    assert ml.stack_size(n) * n**4 <= 16 * 5**4


@pytest.mark.parametrize("label", REALIZED)
def test_stacked_stabilizer_dim_matches_the_per_matrix_call(monkeypatch, label):
    rf = ml.realization(label)
    reps = [ml.representative_for(rf, c["psi_word"]) for c in walked_classes(label)]
    reps = [u for u in reps if u is not None]
    singles = [ml.stabilizer_dim(rf, [u]) for u in reps]
    want = tuple([single[torus][0] for single in singles] for torus in (0, 1))
    assert all(type(d) is int for dims in want for d in dims)
    want += (sum(single[2] for single in singles),)
    calls = []
    for owner, attr in ((ml, "_check_unitary"), (ml.MatrixRealForm, "Ad_g0")):
        def counting(*args, _original=getattr(owner, attr), _attr=attr):
            calls.append((_attr, len(args[-1])))  # the stack is the last argument
            return _original(*args)

        monkeypatch.setattr(owner, attr, counting)
    # one pass gives both frames: each stack is checked and conjugated once
    assert ml.stabilizer_dim(rf, reps) == want
    assert calls == [(attr, k) for k in ml._stacks(len(reps), rf.n)
                     for attr in ("_check_unitary", "Ad_g0")]
    assert ml.stabilizer_dim(rf, np.stack(reps)) == want


@pytest.mark.parametrize("count", [624, 625, 626, 1251])
def test_chart_point_stacks_are_the_one_call_sampler_points(monkeypatch, sl2, count):
    # formula_residual reads its Haar points in stacks of 625 on n = 2, and
    # the counts fall on both sides of a boundary: the stacks are cut from
    # one draw of the stream
    stacks, original = [], ml.su2_transported_coefficient
    monkeypatch.setattr(ml, "su2_transported_coefficient",
                        lambda rf, u: stacks.append(u) or original(rf, u))
    ml.formula_residual(sl2, count, 7)
    assert [len(u) for u in stacks] == ml._stacks(count, 2)
    want = ml.sample_unitaries(ml.SampleStream(7), count, 2)
    assert np.array_equal(np.concatenate(stacks), want)


def test_formula_residual_memory_does_not_grow_with_the_samples(sl2):
    # the Haar points are drawn and read stack by stack: 20,000 samples take
    # about 0.6 MiB in all, as one stack of 625 does
    assert _peak_kib(lambda: ml.formula_residual(sl2, 20_000, 7)) <= 1024


def test_one_bad_sample_fails_its_stack(sl3):
    us = ml.sample_unitaries(np.random.default_rng(41), 5, 3)
    bad = us.copy()
    bad[3] *= 1.01
    with pytest.raises(ml.NonUnitaryError):
        ml.pi_U_at(sl3, bad)
    with pytest.raises(ml.NonUnitaryError):
        ml.pi_0_at(sl3, bad)
    bad[3] = np.nan
    with pytest.raises(ml.NonUnitaryError):
        ml.pi_U_at(sl3, bad)
    ms = us.copy()
    ms[2] = np.diag([1e8, 1e-8, 1.0])
    with pytest.raises(ml.IllConditionedError):
        ml.iwasawa(ms)
