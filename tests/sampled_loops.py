"""Per-sample loops: the differential reference for the sampled checks of
`leafatlas.matrixlie`, which evaluate their samples as stacks.

Each function draws its samples one after another from the streams of its
seed, with one `rng.normal` or `rng.uniform` call per sample and shape, and
evaluates each sample on its own: the samplers are the per-matrix
originals, the rest goes through the single-point kernels.  The streams are
built here from SeedSequence(seed) itself: Gaussian draws come from its own
generator and uniform draws from its first spawned child.  `exp_and_phi_ad`
is the chart's exponential and its differential as stacked n x n products.
`jacobi_check` evaluates the Jacobiator in the chart centred at each point,
and `jacobi_check_identity_chart` in the one chart at the identity coset.

Imported by the test modules; pytest does not collect it.
"""
from __future__ import annotations

import cmath
import math
from itertools import combinations, repeat

import basis_lists as bl
import numpy as np

from leafatlas import matrixlie as ml


def children(seed: int, n: int):
    """The Gaussian stream of seed once per sample: sample i reads the block
    that follows sample i - 1's."""
    return repeat(np.random.default_rng(np.random.SeedSequence(seed)), n)


def uniform_stream(seed: int):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def sample_group(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x -= np.trace(x) / n * np.eye(n)
    lam, v = np.linalg.eig(0.4 * x)
    return (v * np.exp(lam)) @ np.linalg.inv(v)


def sample_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.sign(np.diag(r).real + 1e-300))
    return q * cmath.exp(-1j * cmath.phase(np.linalg.det(q)) / n)


def multiplicativity_residual(rf, n_pairs, seed):
    worst = 0.0
    for rng in children(seed, n_pairs):
        u = sample_unitary(rng, rf.n)
        v = sample_unitary(rng, rf.n)
        a = rf.Ad_matrix(u)
        lhs = ml.pi_U_at(rf, u @ v)
        rhs = a @ ml.pi_U_at(rf, v) @ a.T + ml.pi_U_at(rf, u)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def t_invariance_residual(rf, n_samples, seed):
    worst = 0.0
    phase_rng = uniform_stream(seed)
    for rng in children(seed, n_samples):
        u = sample_unitary(rng, rf.n)
        phases = phase_rng.uniform(0, 2 * math.pi, size=rf.n)
        phases -= phases.mean()
        t = np.diag(np.exp(1j * phases))
        at = rf.Ad_matrix(t)
        right = ml.pi_U_at(rf, u @ t) - ml.pi_U_at(rf, u)
        left = ml.pi_U_at(rf, t @ u) - at @ ml.pi_U_at(rf, u) @ at.T
        worst = max(worst, float(np.abs(right).max()), float(np.abs(left).max()))
    return worst


def max_sampled_rank(rf, n_samples, seed, threshold=ml.RANK_THRESHOLD):
    best, n_borderline = 0, 0
    for rng in children(seed, n_samples):
        u = sample_unitary(rng, rf.n)
        rank, borderline = ml.numerical_rank(ml.pi_0_at(rf, u), threshold)
        best = max(best, int(rank))
        n_borderline += bool(borderline)
    return best, n_borderline


def pi_0_left_quotient(rf, u):
    """The quotient bivector in the mirrored (left coset) presentation:
    pi_U_at(u) projected onto basis_ip0.  Equal to -pi_0_at(u^{-1})."""
    reader = rf._ip0_reader
    upper = np.triu(reader @ ml.pi_U_at(rf, u) @ reader.T, k=1)
    return upper - upper.T


def flag_part(rf, u):
    """The flag part of hermitian_fit from Ad(u0 u^{-1}) as one adjoint
    matrix: the left-trivialized group bivector at u u0^{-1}, across the
    Levi block, carried back by a transfer matrix built column by column."""
    u0 = ml._block_alignment(rf)
    across = ml._levi_across(rf)
    ad_u0 = rf.Ad_matrix(u0)
    transfer = np.stack([(ad_u0 @ bl.coeffs(rf, b))[across] for b in rf.basis_ip0], axis=1)
    a = rf.Ad_matrix(u0 @ u.conj().T)
    c = (a @ rf.lam @ a.T - rf.lam)[np.ix_(across, across)]
    tinv = np.linalg.inv(transfer)
    return tinv @ c @ tinv.T


def hermitian_fit(rf, n_samples, seed):
    """(b, max_residual), keeping every difference."""
    c_inv = rf.hermitian_frame.c_inv
    diffs = []
    for rng in children(seed, n_samples):
        u = sample_unitary(rng, rf.n)
        diffs.append(ml.pi_0_at(rf, u) - flag_part(rf, u))
    denom = float(np.sum(c_inv * c_inv))
    b = float(sum(np.sum(d * c_inv) for d in diffs) / (denom * len(diffs)))
    return b, max(float(np.abs(d - b * c_inv).max()) for d in diffs)


def exp_and_phi_ad(xi, ys):
    """exp(xi) for a skew-Hermitian xi, and the differential of exp,
    phi(ad xi)(Y) = ((1 - exp(-ad xi)) / ad xi)(Y), for each Y of the stack ys;
    for a stack xi, one of each per xi.  The reference for the chart's
    Jacobian, as stacked n x n products.

    Both come from xi = V diag(i lam) V^dagger: in the basis V, ad xi scales
    entry (a, b) by z = i(lam_a - lam_b), so phi(ad xi) scales it by
    phi(z) = -expm1(-z)/z, with phi(0) = 1."""
    lam, v = np.linalg.eigh(-1j * xi)
    vh = ml._H(v)
    z = 1j * (lam[..., :, None] - lam[..., None, :])
    zero = z == 0
    phi = np.where(zero, 1.0, -np.expm1(-z) / np.where(zero, 1.0, z))
    v1, vh1, phi1 = v[..., None, :, :], vh[..., None, :, :], phi[..., None, :, :]
    return (v * np.exp(1j * lam)[..., None, :]) @ vh, v1 @ (phi1 * (vh1 @ ys @ v1)) @ vh1


def jacobi_residual(pi_fn, x, h=1e-4):
    """The Jacobiator over the combinations of three indices, with pi_fn
    called on one point at a time; 0.0, with no call, when there are none."""
    m = len(x)
    if m < 3:
        return 0.0
    pi0 = pi_fn(x)
    dpi = np.zeros((m, m, m))
    for l in range(m):
        e = np.zeros(m)
        e[l] = h
        dpi[l] = (pi_fn(x + e) - pi_fn(x - e)) / (2 * h)
    residual = 0.0
    for i, j, k in combinations(range(m), 3):
        total = 0.0
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            total += float(pi0[a] @ dpi[:, b, c])
        residual = max(residual, abs(total))
    return residual


def centred_bivector(rf, u0, y):
    """The quotient bivector at offset y of the chart y -> u0 exp xi(y) K
    centred at u0: pi_0_at of u0 exp xi(y), read by the inverse Jacobian."""
    e, jac = ml._exp_chart(rf, y)
    jinv = np.linalg.inv(jac)
    return jinv @ ml.pi_0_at(rf, u0 @ e) @ jinv.T


def jacobi_check(rf, n_points, seed, h=1e-4, radius=0.4):
    """The Jacobi check in the chart centred at each point u0 = exp xi(x),
    one point and one neighbour at a time, with no cached stencil."""
    residual = 0.0
    rng = uniform_stream(seed)
    for _ in range(n_points):
        u0, _ = ml._exp_chart(rf, rng.uniform(-radius, radius, size=rf.dim_ip0))
        residual = max(residual, jacobi_residual(lambda y: centred_bivector(rf, u0, y),
                                                 np.zeros(rf.dim_ip0), h))
    return residual


def jacobi_check_identity_chart(rf, n_points, seed, h=1e-4, radius=0.4):
    """The Jacobi check in the one chart x -> exp xi(x) K at every point,
    one point and one neighbour at a time."""
    residual = 0.0
    rng = uniform_stream(seed)
    for _ in range(n_points):
        x = rng.uniform(-radius, radius, size=rf.dim_ip0)
        residual = max(residual, jacobi_residual(lambda y: ml.chart_bivector(rf, y), x, h))
    return residual


def cartan_consistency(rf, n_samples, seed):
    res = {"tau_sq": 0.0, "theta_sq": 0.0, "commute": 0.0, "h_stable": 0.0}
    for rng in children(seed, n_samples):
        x = rng.normal(size=(rf.n, rf.n)) + 1j * rng.normal(size=(rf.n, rf.n))
        x -= np.trace(x) / rf.n * np.eye(rf.n)
        res["tau_sq"] = max(res["tau_sq"], float(np.abs(rf.tau(rf.tau(x)) - x).max()))
        res["theta_sq"] = max(res["theta_sq"], float(np.abs(rf.theta(rf.theta(x)) - x).max()))
        res["commute"] = max(
            res["commute"],
            float(np.abs(rf.tau(rf.theta(x)) - rf.theta(rf.tau(x))).max()),
        )
        h = np.diag(rng.normal(size=rf.n) + 1j * rng.normal(size=rf.n))
        h -= np.trace(h) / rf.n * np.eye(rf.n)
        img = rf.tau(h)
        off = img - np.diag(np.diag(img))
        res["h_stable"] = max(res["h_stable"], float(np.abs(off).max()))

    worst = 0.0
    for m in rf.fixed_triangular:
        worst = max(worst, float(np.abs(np.tril(m, k=-1)).max()),
                    float(np.abs(np.diag(m).imag).max()))
    res["iwasawa_borel"] = worst
    return res


def orbit_projection(rf, u):
    """The dressing-orbit columns of leaf_tangency_check, one element of g0
    at a time: the compact part of the Iwasawa split of Ad_u x, rebuilt as
    a matrix, carried back by Ad_u^{-1} and projected onto ip0."""
    uinv = u.conj().T
    ad_uinv = rf.Ad_matrix(uinv)
    cols = []
    for x in rf.basis_g0:
        alpha = rf._full_pinv @ bl.vec(u @ x @ uinv)
        u_part = np.tensordot(alpha[: rf.dim_u], rf.basis_u, axes=1)
        cols.append(rf._ip0_reader @ (ad_uinv @ bl.coeffs(rf, u_part)))
    return np.stack(cols, axis=1)


def leaf_tangency_residual(rf, n_samples, seed):
    """The verify battery's former loop: one draw of every unitary."""
    worst, same = 0.0, True
    for u in ml.sample_unitaries(np.random.default_rng(seed), n_samples, rf.n):
        res = ml.leaf_tangency_check(rf, u)
        same = same and res.dim_bivector_image == res.dim_orbit_projection
        worst = max(worst, res.residual)
    return worst if same else math.pi / 2


def chart_su2_section(w):
    """The former single-point section: a unitary of chart value w."""
    z = (w + 1j) / (1 + 1j * w)
    x, y = z.real, z.imag
    d = 1.0 / math.sqrt(1 + x * x + y * y)
    return d * np.array([[1 - 1j * x, 1j * y], [1j * y, 1 + 1j * x]])


def su2_transported_coefficient(rf, u):
    """The former single-point transport: (w, F) at one unitary u, with the
    chart derivative contracted as vectors."""
    w = ml.chart_su2(u)
    c = -ml.pi_0_at(rf, u.conj().T)
    (num, den), (dnum, dden) = ml._su2_nd(u), ml._su2_nd(rf.basis_ip0 @ u)
    top, bot = num - 1j * den, den - 1j * num
    dw = ((dnum - 1j * dden) * bot - top * (dden - 1j * dnum)) / bot**2
    return w, -2.0 * float(dw.real @ c @ dw.imag)


def chart_points(rng, count):
    """The first count accepted points of the chart's rejection sampler,
    count pairs drawn per call and every point kept in one list."""
    points = []
    while len(points) < count:
        xy = rng.uniform(-1.4, 1.4, size=(count, 2))
        w = xy[:, 0] + 1j * xy[:, 1]
        points += w[(abs(abs(w) - 1.0) > 0.15) & (abs(w) > 0.05)].tolist()
    return points[:count]


def formula_residual(rf, n_samples, seed):
    """The verify battery's former example_formula loop, one chart point
    after another."""
    worst = 0.0
    for w in chart_points(uniform_stream(seed), n_samples):
        _, coeff = su2_transported_coefficient(rf, chart_su2_section(w))
        expected = ml.SU2_AMPLITUDE * (1 - abs(w) ** 4)
        worst = max(worst, abs(coeff - expected) / abs(expected))
    return worst


def iwasawa_residual(rf, n_samples, seed):
    worst = 0.0
    for rng in children(seed, n_samples):
        m = rng.normal(size=(rf.n, rf.n)) + 1j * rng.normal(size=(rf.n, rf.n))
        m = m / np.linalg.det(m) ** (1.0 / rf.n)
        b, u1 = ml.iwasawa(m)
        worst = max(worst, float(np.abs(b @ u1 - m).max()))
    return worst


def action_residual(rf, n_samples, seed):
    worst = 0.0
    for rng in children(seed, n_samples):
        u = sample_unitary(rng, rf.n)
        g = sample_group(rng, rf.n)
        h = sample_group(rng, rf.n)
        lhs = ml.g_act(ml.g_act(u, g), h)
        rhs = ml.g_act(u, g @ h)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def invariant_bivector(rf):
    """invariant_bivector with its linear system assembled entry by entry."""
    m = rf.dim_ip0
    ads = []
    for kb in rf.basis_k0:
        ads.append(np.stack(
            [rf._ip0_reader @ bl.coeffs(rf, kb @ b - b @ kb) for b in rf.basis_ip0], axis=1
        ))

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rows = []
    for a in ads:
        for r in range(m):
            for c in range(r + 1, m):
                row = np.zeros(len(pairs))
                for t, (i, j) in enumerate(pairs):
                    val = 0.0
                    # (A C + C A^T)[r, c] with C = e_i ^ e_j
                    if j == c:
                        val += a[r, i]
                    if i == c:
                        val -= a[r, j]
                    if i == r:
                        val += a[c, j]
                    if j == r:
                        val -= a[c, i]
                    row[t] = val
                rows.append(row)
    _, s, vt = np.linalg.svd(np.stack(rows, axis=0))  # full V, as the loop had
    null = vt[ml._floored_rank(s, 1e-9)[0]:].T
    assert null.shape[1] == 1
    c_inv = np.zeros((m, m))
    for t, (i, j) in enumerate(pairs):
        c_inv[i, j] = null[t, 0]
        c_inv[j, i] = -null[t, 0]
    lead = next(x for x in c_inv[np.triu_indices(m, 1)] if abs(x) > 1e-9)
    if lead < 0:
        c_inv = -c_inv
    return c_inv * (math.sqrt(m) / np.linalg.norm(c_inv))


def invariant_bivector_by_images(rf):
    """invariant_bivector with its linear system read off the (dim k0, w,
    m, m) stack of the images A C + C A^T of the w wedges C = e_i ^ e_j."""
    m = rf.dim_ip0
    k0 = rf.basis_k0[:, None]
    ads = rf._ip0_reader @ rf.coeffs(k0 @ rf.basis_ip0 - rf.basis_ip0 @ k0)
    upper = np.triu_indices(m, 1)
    wedges = np.zeros((len(upper[0]), m, m))
    wedges[(np.arange(len(upper[0])),) + upper] = 1.0
    wedges = wedges - ml._T(wedges)
    images = ads[:, None] @ wedges + wedges @ ml._T(ads)[:, None]
    system = images[(...,) + upper].transpose(0, 2, 1).reshape(-1, len(upper[0]))
    null = ml.nullspace(system, 1e-9)
    assert null.shape[1] == 1
    c_inv = np.zeros((m, m))
    c_inv[upper] = null[:, 0]
    c_inv = c_inv - c_inv.T
    lead = next(x for x in c_inv[upper] if abs(x) > 1e-9)
    if lead < 0:
        c_inv = -c_inv
    return c_inv * (math.sqrt(m) / np.linalg.norm(c_inv))
