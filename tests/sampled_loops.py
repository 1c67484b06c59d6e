"""Per-sample loops: the differential reference for the sampled checks of
`leafatlas.matrixlie`, which evaluate their samples as stacks.

Each function draws its samples one after another from the streams of its
seed, with one `rng.standard_normal` or `rng.uniform` call per sample and
shape, and evaluates each sample on its own: the samplers are the
per-matrix originals, the rest goes through the single-point kernels.
Gaussian draws come from the package's SampleStream(seed); the uniform
draws of the references (`UniformStream`) from the same words under a
second key.  `splitmix_words` and `standard_normals` are the Gaussian
stream itself in Python ints and floats, one word at a time.  `exp_and_phi_ad`
is the exponential and its differential as stacked n x n products, and
`chart` the exponential chart x -> exp xi(x) K built on them.  The Poisson
property, which the package checks exactly by two Lie-algebra identities,
has a finite-difference reference here: `jacobi_check` evaluates the
Jacobiator in the chart centred at each of a few seeded points.
Two facts that the package does not sample keep their sampled
residuals here: `multiplicativity_residual`, which holds by construction
once Ad is a homomorphism, and `t_invariance_residual`, whose exact form is
the third integer of `poisson_identities`.
The invariant bivector has three null-space references: its linear system
entry by entry, assembled in place (`invariant_system`), and read off a
stack of images; the package builds it from the centre of k0 instead.
The per-form identities that the package decides in integers keep their
float paths here: `cartan_consistency` on Gaussian samples, and
`annihilator_check` by null spaces (`null_space`), QR frames and
a projector distance.
The split of sl(n, C) into su(n) and a + n, which the package reads off a
lower triangle, has its projection reference here: orthonormal frames of
a + n and of a + n + t (`triangular_frames`), projected off all n^2 entries
(`stabilizer_dim`), and a pseudo-inverse over basis_u and basis_an
(`orbit_projection`).

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
    return repeat(ml.SampleStream(seed), n)


MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix(z: int) -> int:
    """SplitMix64's finalizer on a Python int below 2^64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def stream_key(seed: int, key: int = GOLDEN) -> int:
    """The key of the stream of seed: key (GOLDEN for the Gaussian stream),
    each 64 bits of the seed, low first, xored in and finalized."""
    while True:
        key = splitmix(key ^ (seed & MASK))
        seed >>= 64
        if not seed:
            return key


def splitmix_words(seed: int, start: int, count: int) -> list[int]:
    """Words start..start + count - 1 of the Gaussian stream of seed: word j
    is splitmix(key + (j + 1) * GOLDEN)."""
    key = stream_key(seed)
    return [splitmix((key + (j + 1) * GOLDEN) & MASK) for j in range(start, start + count)]


def standard_normals(seed: int, start: int, count: int, log=math.log) -> list[float]:
    """Box-Muller on each word of the Gaussian stream: the high 32 bits give
    u = (h + 1) / 2^32, the low 32 bits, signed, the angle pi l / 2^32."""
    out = []
    for w in splitmix_words(seed, start, count):
        h, low = w >> 32, w & 0xFFFFFFFF
        signed = low - (1 << 32) if low >> 31 else low
        out.append(math.sqrt(-2.0 * log((h + 1) / 2**32))
                   * math.sin(signed * (math.pi / 2**32)))
    return out


class UniformStream(ml.SampleStream):
    """The references' uniform draws (chart centres, torus phases): the words
    of SampleStream under the key that starts at 2 GOLDEN, so apart from the
    Gaussian stream of the same seed, each read as low + (high - low) u, u its
    top 53 bits over 2^53."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.key = stream_key(seed, 2 * GOLDEN & MASK)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return low + (high - low) * np.multiply(self._words(size) >> 11, 2.0**-53)


def sample_group(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x -= np.trace(x) / n * np.eye(n)
    lam, v = np.linalg.eig(0.4 * x)
    return (v * np.exp(lam)) @ np.linalg.inv(v)


def sample_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
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
    phase_rng = UniformStream(seed)
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


def max_sampled_rank(rf, n_samples, seed):
    best, n_borderline = 0, 0
    for rng in children(seed, n_samples):
        u = sample_unitary(rng, rf.n)
        rank, borderline = ml.numerical_rank(ml.pi_0_at(rf, u))
        best = max(best, int(rank))
        n_borderline += bool(borderline)
    return best, n_borderline


def pi_0_left_quotient(rf, u):
    """The quotient bivector in the mirrored (left coset) presentation:
    pi_U_at(u) projected onto basis_ip0.  Equal to -pi_0_at(u^{-1})."""
    reader = rf._ip0_reader
    upper = np.triu(reader @ ml.pi_U_at(rf, u) @ reader.T, k=1)
    return upper - upper.T


def _flag_transfer(rf):
    """u0, the indices across the Levi block, Ad(u0), and the inverse of
    the transfer matrix built column by column."""
    u0 = ml._block_alignment(rf)
    across = ml._levi_across(rf)
    ad_u0 = rf.Ad_matrix(u0)
    transfer = np.stack([(ad_u0 @ bl.coeffs(rf, b))[across] for b in rf.basis_ip0], axis=1)
    return u0, across, ad_u0, np.linalg.inv(transfer)


def flag_part(rf, u):
    """The flag part of hermitian_fit from Ad(u0 u^{-1}) as one adjoint
    matrix: the left-trivialized group bivector at u u0^{-1}, across the
    Levi block, carried back by the transfer matrix."""
    u0, across, _, tinv = _flag_transfer(rf)
    a = rf.Ad_matrix(u0 @ u.conj().T)
    c = (a @ rf.lam @ a.T - rf.lam)[np.ix_(across, across)]
    return tinv @ c @ tinv.T


def flag_reader(rf):
    """The flag reader times Ad(u0), and the seed that the flag reader
    reads (`_read_seed`): the pair that `hermitian_fit` hands the kernel."""
    _, across, ad_u0, tinv = _flag_transfer(rf)
    reader = np.zeros((rf.dim_ip0, rf.dim_u))
    reader[:, across] = tinv
    return reader @ ad_u0, ml._read_seed(rf, reader)


def hermitian_fit(rf, n_samples, seed):
    """(b, max_residual), keeping every difference."""
    c_inv = ml.invariant_bivector(rf)
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


def chart(rf, x):
    """(exp xi, J) of the chart x -> exp xi(x) K, xi(x) = sum x_i (basis_ip0)_i,
    at x or at each point of a stack x: J holds the ip0 coordinates of
    phi(ad xi)(Y) for each Y of basis_ip0."""
    xi = np.tensordot(x, rf.basis_ip0, axes=1)
    u, dexp = exp_and_phi_ad(xi, rf.basis_ip0)
    return u, rf._ip0_reader @ rf.coeffs(dexp)


def centred_bivector(rf, u0, y):
    """The quotient bivector at offset y of the chart y -> u0 exp xi(y) K
    centred at u0: pi_0_at of u0 exp xi(y), read by the inverse Jacobian."""
    e, jac = chart(rf, y)
    jinv = np.linalg.inv(jac)
    return jinv @ ml.pi_0_at(rf, u0 @ e) @ jinv.T


def jacobi_check(rf, n_points, seed, h=1e-4, radius=0.4):
    """The Jacobi check in the chart centred at each point u0 = exp xi(x),
    one point and one neighbour at a time."""
    residual = 0.0
    rng = UniformStream(seed)
    for _ in range(n_points):
        u0, _ = chart(rf, rng.uniform(-radius, radius, size=rf.dim_ip0))
        residual = max(residual, jacobi_residual(lambda y: centred_bivector(rf, u0, y),
                                                 np.zeros(rf.dim_ip0), h))
    return residual


def cartan_consistency(rf, n_samples, seed):
    """tau^2 = 1 and tau theta = theta tau, theta(X) = -X^dagger, on Gaussian
    traceless matrices."""
    res = {"tau_sq": 0.0, "commute": 0.0}
    for rng in children(seed, n_samples):
        x = rng.standard_normal((rf.n, rf.n)) + 1j * rng.standard_normal((rf.n, rf.n))
        x -= np.trace(x) / rf.n * np.eye(rf.n)
        res["tau_sq"] = max(res["tau_sq"], float(np.abs(rf.tau(rf.tau(x)) - x).max()))
        res["commute"] = max(
            res["commute"],
            float(np.abs(rf.tau(-x.conj().T) + rf.tau(x).conj().T).max()),
        )
    return res


def annihilator_check(rf):
    """The annihilator identity in floats, which the package decides by exact
    ranks: (the 2-norm distance of the orthogonal projectors onto the
    annihilator of k0 in a + n under Im kappa and onto (a + n)^tau, and their
    dimensions), each subspace the null space of its float system, carried to
    the vectorized matrices and orthonormalized by QR."""
    pairing = 2 * rf.n * np.einsum("iab,jba->ij", rf.basis_k0, rf.basis_an).imag
    tau_map = ml._re_im(ml._columns(rf.tau(rf.basis_an) - rf.basis_an))
    an = ml._re_im(ml._columns(rf.basis_an))
    qa, qf = (np.linalg.qr(an @ null_space(m, 1e-8))[0] for m in (pairing, tau_map))
    return float(np.linalg.norm(qa @ qa.T - qf @ qf.T, 2)), qa.shape[1], qf.shape[1]


def null_space(m, rcond):
    """Orthonormal columns spanning the null space of m, singular values at
    most rcond * s_max counting as zero, as scipy.linalg.null_space has them,
    from an SVD with the full V and no more of U than m's width: a full U of
    the tall invariance system of su(3,3) would take 54 MB."""
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vt[np.sum(s > rcond * s.max(initial=0.0)):].T


def triangular_frames(rf):
    """Orthonormal columns (vectorized) spanning a + n, and spanning it plus
    the compact torus t, the first n - 1 elements of basis_u."""
    torus = list(rf.basis_u[:rf.n - 1])
    return tuple(np.linalg.qr(np.stack([bl.vec(b) for b in [*rf.basis_an, *extra]], axis=1))[0]
                 for extra in ([], torus))


def stabilizer_dim(rf, u, include_torus):
    """stabilizer_dim of one unitary by projection: the nullity of the part
    of Ad_u basis_g0, vectorized over all n^2 entries, off the frame of
    a + n (a + n + t), the images built one matrix at a time."""
    q = triangular_frames(rf)[include_torus]
    m = np.stack([bl.vec(u @ x @ u.conj().T) for x in rf.basis_g0], axis=1)
    return m.shape[1] - int(ml.numerical_rank(m - q @ (q.T @ m))[0])


def orbit_projection(rf, u):
    """The dressing-orbit columns of leaf_tangency_check, one element of g0
    at a time: the compact part of the Iwasawa split of Ad_u x, by the
    pseudo-inverse over basis_u and basis_an, rebuilt as a matrix, carried
    back by Ad_u^{-1} and projected onto ip0."""
    uinv = u.conj().T
    ad_uinv = rf.Ad_matrix(uinv)
    split = np.linalg.pinv(np.stack([bl.vec(b) for b in [*rf.basis_u, *rf.basis_an]], axis=1))
    cols = []
    for x in rf.basis_g0:
        alpha = split @ bl.vec(u @ x @ uinv)
        u_part = np.tensordot(alpha[: rf.dim_u], rf.basis_u, axes=1)
        cols.append(rf._ip0_reader @ (ad_uinv @ bl.coeffs(rf, u_part)))
    return np.stack(cols, axis=1)


def leaf_tangency_residual(rf, n_samples, seed):
    """The verify battery's former loop: one draw of every unitary; with the
    number of samples whose rank was borderline."""
    worst, same, n_borderline = 0.0, True, 0
    for u in ml.sample_unitaries(ml.SampleStream(seed), n_samples, rf.n):
        res = ml.leaf_tangency_check(rf, u)
        same = same and res.dim_bivector_image == res.dim_orbit_projection
        worst = max(worst, res.residual)
        n_borderline += res.borderline
    return worst if same else math.pi / 2, n_borderline


def chart_su2_section(w):
    """A unitary of chart value w, for one complex w."""
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


def formula_residual(rf, n_samples, seed):
    """The example_formula loop, one Haar point after another: (largest
    relative deviation from the closed form, number of points kept off the
    origin and the zero circle)."""
    worst, kept = 0.0, 0
    for rng in children(seed, n_samples):
        w, coeff = su2_transported_coefficient(rf, sample_unitary(rng, 2))
        if abs(abs(w) - 1.0) > 0.15 and abs(w) > 0.05:
            expected = ml.SU2_AMPLITUDE * (1 - abs(w) ** 4)
            worst = max(worst, abs(coeff - expected) / abs(expected))
            kept += 1
    return worst, kept


def iwasawa_residual(rf, n_samples, seed):
    worst = 0.0
    for rng in children(seed, n_samples):
        m = rng.standard_normal((rf.n, rf.n)) + 1j * rng.standard_normal((rf.n, rf.n))
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
    null = null_space(system, 1e-9)
    assert null.shape[1] == 1
    c_inv = np.zeros((m, m))
    c_inv[upper] = null[:, 0]
    c_inv = c_inv - c_inv.T
    lead = next(x for x in c_inv[upper] if abs(x) > 1e-9)
    if lead < 0:
        c_inv = -c_inv
    return c_inv * (math.sqrt(m) / np.linalg.norm(c_inv))


def invariant_system(rf):
    """The linear system of the isotropy-invariant bivectors, (dim k0 * w, w)
    for the w wedges e_i ^ e_j, i < j, assembled in place."""
    m = rf.dim_ip0
    # ad X on ip0, projected back onto ip0, for each X of basis_k0
    k0 = rf.basis_k0[:, None]
    comm = k0 @ rf.basis_ip0 - rf.basis_ip0 @ k0
    ads = rf._ip0_reader @ rf.coeffs(comm)
    # unknowns: the coefficients of C on the e_i ^ e_j, i < j; equations:
    # (A C + C A^T)[r, c] = 0 for every A of ads and r < c, in the same order.
    # For C = e_i ^ e_j, (A C + C A^T)[r, c] is A[r, i] [c = j] - A[r, j] [c = i]
    # + A[c, j] [r = i] - A[c, i] [r = j]: the entries on the equations that
    # pair r with j, then those that pair r with i, added in place
    upper = np.triu_indices(m, 1)
    n_wedges = len(upper[0])
    pairing = np.zeros((m, m), dtype=int)
    pairing[upper] = np.arange(n_wedges)
    pairing += pairing.T  # the equation of the pair {r, c}, r != c
    i, j = (side[:, None] for side in upper)
    r = np.arange(m)
    wedge = np.broadcast_to(np.arange(n_wedges)[:, None], (n_wedges, m))
    system = np.zeros((len(ads), n_wedges, n_wedges))
    for fixed, other, sign in ((j, i, np.sign(j - r)), (i, j, np.sign(r - i))):
        hit = sign != 0
        system[:, pairing[r, fixed][hit], wedge[hit]] += (sign * ads[:, r, other])[:, hit]
    return system.reshape(-1, n_wedges)


def invariant_bivector_in_place(rf):
    """invariant_bivector as the normalized null vector of invariant_system."""
    m = rf.dim_ip0
    null = null_space(invariant_system(rf), 1e-9)
    assert null.shape[1] == 1
    upper = np.triu_indices(m, 1)
    c_inv = np.zeros((m, m))
    c_inv[upper] = null[:, 0]
    c_inv = c_inv - c_inv.T
    lead = next(x for x in c_inv[upper] if abs(x) > 1e-9)
    if lead < 0:
        c_inv = -c_inv
    c_inv *= math.sqrt(m) / np.linalg.norm(c_inv)
    return c_inv
