"""Numerical engine on SU(n) matrix realizations.

Builds the multiplicative bivector on SU(n) from normalized root vectors,
pushes it to the symmetric-space quotient, implements the triangular-times-
unitary right action, and runs the independent checks (closed-form example,
Jacobi identity, annihilator identity, stabilizer dimensions, Hermitian
decomposition) against the exact combinatorial engine.

Conventions used throughout, fixed once:
  * the invariant form is kappa(X, Y) = 2n tr(XY);
  * root vectors are scaled so kappa(E, -E^dagger) = -1, i.e. E = E_jk/sqrt(2n);
  * the bivector seed is (1/4) sum_alpha X_alpha wedge Y_alpha;
  * bivectors at u are stored right-trivialized over basis_u, and quotient
    bivectors left-trivialized over basis_ip0 (tangent of uK at u via u^{-1}).
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .rootsys import IntVector
from .satake import SatakeDiagram, sl_real_diagram, su_pq_diagram

TOL_UNITARY = 1e-10
TOL_NORMALIZER = 1e-10
COND_LIMIT = 1e12
RANK_THRESHOLD = 1e-8
CHART_EPS = 1e-12

#: The data that one stack of a sampled check may hold, in samples of an
#: n = 5 form.  A sample's arrays grow like (dim su(n))^2 ~ n^4, so a stack of
#: an n x n form holds STACK_BUDGET // n^4 samples, and never fewer than 16:
#: a check runs in bounded memory whatever its sample count, and pays numpy's
#: per-call cost once per stack instead of once per sample.
STACK_BUDGET = 16 * 5**4

#: Amplitude of the transported quotient bivector on the SU(2)/SO(2) disk
#: chart: pi_0 = SU2_AMPLITUDE * (1 - |w|^4) * i dw ^ dwbar.  The value 1/8
#: is forced by the kappa = 2n tr normalization of the root vectors and the
#: 1/4 coefficient of the bivector seed; see README for the derivation.
SU2_AMPLITUDE = 0.125


class RealizationError(ValueError):
    """No matrix realization is shipped for the requested form."""


class NonUnitaryError(ValueError):
    pass


class IllConditionedError(ValueError):
    pass


class ChartSingularityError(ValueError):
    pass


class NotHermitianError(ValueError):
    pass


# ---------------------------------------------------------------------------
# numerical rank: the one rule behind every rank and null-space decision

def _floored_rank(s: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(rank, borderline) from singular values in descending order along the
    last axis, one pair per leading index.

    Values at or below the cutoff threshold * max(s_max, 1) count as zero;
    a value within (0.999, 10) times the cutoff flags the rank as borderline."""
    cutoff = threshold * np.maximum(s[..., :1], 1.0)
    rank = np.sum(s > cutoff, axis=-1)
    borderline = np.any((s > cutoff * 0.999) & (s < cutoff * 10), axis=-1)
    return rank, borderline


def numerical_rank(m: np.ndarray,
                   threshold: float = RANK_THRESHOLD) -> tuple[np.ndarray, np.ndarray]:
    """(rank, borderline) of m, or of each matrix of a stack m, under the
    floored cutoff."""
    return _floored_rank(np.linalg.svd(m, compute_uv=False), threshold)


def nullspace(m: np.ndarray, threshold: float = RANK_THRESHOLD) -> np.ndarray:
    """Orthonormal columns N spanning the numerical null space: m @ N ~ 0.
    Only a wide m needs the full V. A tall m gives way to the R of m = QR,
    which has its singular values and V, so no U of m's height is formed."""
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vt[_floored_rank(s, threshold)[0]:].T


def column_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the numerical column space of m."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_floored_rank(s, RANK_THRESHOLD)[0]]


def gaussian_stream(seed: int) -> np.random.Generator:
    """The stream of a sampled check's Gaussian draws: SeedSequence(seed)."""
    return np.random.default_rng(seed)


def uniform_stream(seed: int) -> np.random.Generator:
    """The stream of a sampled check's uniform draws (phases, points): the
    first child of SeedSequence(seed), independent of its Gaussian stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def stack_size(n: int) -> int:
    """Most samples that one stack of a sampled check on an n x n form holds."""
    return max(16, STACK_BUDGET // n**4)


def _stacks(count: int, n: int) -> list[int]:
    """Sizes of the consecutive stacks of count samples of an n x n form:
    stack_size(n) each, then the rest."""
    size = stack_size(n)
    return [min(size, count - start) for start in range(0, count, size)]


def complex_normals(rng: np.random.Generator, k: int, *shapes) -> list[np.ndarray]:
    """The next k samples of complex Gaussians from rng, one stack per shape.

    One standard_normal((k, D)) call: row i holds sample i's real then
    imaginary parts, shape by shape, in the order that per-sample
    rng.normal(size=s) calls would give them.  So sample i of a check is
    block i of its stream whatever the stack sizes, and is replayed by
    drawing blocks 0..i from a fresh stream of the same seed."""
    sizes = [math.prod(s) for s in shapes]
    rows = rng.standard_normal((k, 2 * sum(sizes)))
    out, at = [], 0
    for shape, size in zip(shapes, sizes):
        re, im = rows[:, at:at + size], rows[:, at + size:at + 2 * size]
        out.append((re + 1j * im).reshape(k, *shape))
        at += 2 * size
    return out


# ---------------------------------------------------------------------------
# su(n) basis and the bivector seed

def _triangular_basis(n: int) -> np.ndarray:
    """Real basis of the triangular factor a + n as one (n^2 - 1, n, n)
    stack: the real split torus diag(e_j - e_{j+1}), then E_jk and i E_jk
    for each j < k."""
    t, (j, k) = np.arange(n - 1), np.triu_indices(n, 1)
    x = np.arange(n - 1, n * n - 1, 2)
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    basis[t, t, t], basis[t, t + 1, t + 1] = 1, -1
    basis[x, j, k], basis[x + 1, j, k] = 1, 1j
    return basis


def su_basis(n: int) -> np.ndarray:
    """Ordered real basis of su(n) as one (n^2 - 1, n, n) stack: the torus
    iH_1..iH_{n-1}, then X and Y for each positive root e_j - e_k, j < k.

    The root vector E = E_jk / sqrt(2n) is scaled so that kappa(E, theta(E))
    = -1 with theta(X) = -X^dagger; with F = -theta(E) = E_kj / sqrt(2n),
    X = E - F and Y = i(E + F) lie in su(n)."""
    an = _triangular_basis(n)
    e = (1.0 / math.sqrt(2 * n)) * an[n - 1::2]
    f = _T(e)
    roots = np.stack([e - f, 1j * (e + f)], axis=1).reshape(-1, n, n)
    return np.concatenate([1j * an[: n - 1], roots])


def lambda_matrix(n: int) -> np.ndarray:
    """Coefficient matrix of the bivector seed over su_basis(n).

    The only nonzero entries are the value 1/4 on each (X_alpha, Y_alpha)
    plane; torus rows and columns vanish."""
    lam = np.zeros((n * n - 1, n * n - 1))
    x = np.arange(n - 1, n * n - 1, 2)  # the X_alpha; Y_alpha follows each
    lam[x, x + 1], lam[x + 1, x] = 0.25, -0.25
    return lam


def _T(m: np.ndarray) -> np.ndarray:  # transpose of m, or of each matrix of a stack
    return m.swapaxes(-1, -2)


def _H(m: np.ndarray) -> np.ndarray:  # conjugate transpose, likewise
    return _T(m.conj())


def _columns(ms: np.ndarray) -> np.ndarray:  # (..., k, n, n) as (..., n^2, k) columns: a view
    return _T(ms.reshape(ms.shape[:-2] + (-1,)))


def _re_im(z: np.ndarray) -> np.ndarray:  # (..., r, k) as 2r real rows: real, then imaginary
    return np.concatenate([z.real, z.imag], axis=-2)


def _conjugator(u: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows (i, j) of K(u) = u (x) conj(u), K vec(X) = vec(u X u^dagger), for
    u or for each matrix of a stack u: one broadcast product."""
    i, j = rows
    k = u[..., i, :, None] * u.conj()[..., j, None, :]
    return k.reshape(k.shape[:-2] + (-1,))


def _traceless(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    return x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] / n * np.eye(n)


def _check_unitary(u: np.ndarray, tol: float = TOL_UNITARY) -> None:
    """Raise unless u, and every matrix of a stack u, is unitary (NaN is not)."""
    res = np.max(np.linalg.norm(u @ _H(u) - np.eye(u.shape[-1]), axis=(-2, -1)))
    if not res <= tol:
        raise NonUnitaryError(f"matrix is not unitary (residual {res:.2e})")


# ---------------------------------------------------------------------------
# matrix real forms

def _signature_involution(n: int, p: int, q: int) -> np.ndarray:
    """Anti-diagonal realization of the signature (p, q) Hermitian form.

    The permutation swaps i and n-1-i for the first q and last q indices and
    fixes the middle block, so the stabilized real diagonal sits inside the
    upper-triangular Borel (the realization is Iwasawa compatible)."""
    perm = [n - 1 - i if i < q or i >= p else i for i in range(n)]
    return np.eye(n)[perm]


def _tau_split(tau: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the candidates (B + tau B)/2 and (B - tau B)/2, B in basis_u,
    that a greedy over basis_u keeps as nonzero and independent of those kept
    before, from tau's integer matrix on basis_u.  On the roots tau is a signed
    permutation: a 2-cycle keeps both candidates of its first member, a fixed
    root vector the one on the side of its sign.  Torus candidate j is kept
    when it raises the rank of candidates 0..j, read on their integer columns."""
    torus, roots = tau[:n - 1, :n - 1], tau[n - 1:, n - 1:]
    assert not tau[:n - 1, n - 1:].any() and not tau[n - 1:, :n - 1].any()
    assert np.array_equal(np.abs(roots).sum(axis=0), np.ones(len(roots)))
    cols = np.arange(len(roots))
    image = np.abs(roots).argmax(axis=0)
    first, fixed, sign = image > cols, image == cols, roots[image, cols]
    prefixes = np.tril(np.ones((n - 1, n - 1)))[:, None, :]  # columns 0..j of each j
    split = []
    for side in (1, -1):
        ranks = numerical_rank((np.eye(n - 1) + side * torus) * prefixes)[0]
        keep = first | fixed & (sign == side)
        split.append(np.concatenate([np.flatnonzero(np.diff(ranks, prepend=0)),
                                     n - 1 + np.flatnonzero(keep)]))
    return split[0], split[1]


class MatrixRealForm:
    """A concrete real form of sl(n, C) inside the compact group SU(n).

    Each subspace is one (k, n, n) complex stack: basis_u of su(n), its tau
    split basis_k0 + basis_ip0, the triangular factor basis_an, and basis_g0
    of the real form, k0 plus -i * (i p0)."""

    def __init__(self, label: str, kind: str, n: int, p: int = 0, q: int = 0):
        self.label = label
        self.kind = kind  # "sl_real" or "su_pq"
        self.n = n
        self.p = p
        self.q = q
        self.J = _signature_involution(n, p, q) if kind == "su_pq" else None

        self.basis_u = su_basis(n)
        self.dim_u = len(self.basis_u)
        self._rows = np.divmod(np.arange(n * n), n)  # every entry, row by row
        self._upper = np.triu_indices(n)
        # the reader: basis_u coordinates of a skew-Hermitian matrix from its
        # upper triangle, the pinv folded by (j, i) = -conj (i, j)
        fold = np.linalg.pinv(_re_im(_columns(self.basis_u))).reshape(-1, 2, n, n)
        fold = fold + np.array([-1.0, 1.0])[:, None, None] * _T(fold)
        fold[:, 1, range(n), range(n)] /= 2  # a diagonal entry counts once
        self._reader = fold[..., self._upper[0], self._upper[1]].reshape(self.dim_u, -1)
        self.lam = lambda_matrix(n)
        self._seed = np.nonzero(np.triu(self.lam, 1))  # lam = sum lam[x, y] e_x ^ e_y

        tb = self.tau(self.basis_u)
        tau = self.coeffs(tb)  # tau's matrix on basis_u, integral in every realization
        assert np.abs(tau - np.rint(tau)).max() < 1e-9
        k0, ip0 = _tau_split(np.rint(tau), n)
        self.basis_k0 = ((self.basis_u + tb) / 2)[k0]
        self.basis_ip0 = ((self.basis_u - tb) / 2)[ip0]
        self.dim_k0 = len(self.basis_k0)
        self.dim_ip0 = len(self.basis_ip0)
        assert self.dim_k0 + self.dim_ip0 == self.dim_u
        # basis_u -> basis_ip0: the ip0 rows of the inverse of the k0 + ip0
        # change of basis, which drop the k0 components
        change = self.coeffs(np.concatenate([self.basis_k0, self.basis_ip0]))
        self._ip0_reader = np.linalg.inv(change)[self.dim_k0:]
        self._ip0_lam = _read_seed(self, self._ip0_reader)
        self._ip0_upper = self._ip0_reader @ self._reader  # basis_ip0 from the upper triangle
        self.basis_g0 = np.concatenate([self.basis_k0, -1j * self.basis_ip0])

        self.basis_an = _triangular_basis(n)
        self._full_pinv = np.linalg.pinv(
            _re_im(_columns(np.concatenate([self.basis_u, self.basis_an]))))

    @property
    def diagram(self) -> SatakeDiagram:
        """The Satake diagram of the realized form."""
        if self.kind == "sl_real":
            return sl_real_diagram(self.n)
        return su_pq_diagram(self.p, self.q)

    @cached_property
    def fixed_triangular(self) -> np.ndarray:
        """A basis of the conjugation-fixed part of the triangular factor, as
        one stack."""
        tau_map = _re_im(_columns(self.tau(self.basis_an) - self.basis_an))
        return np.tensordot(nullspace(tau_map).T, self.basis_an, axes=1)

    @cached_property
    def triangular_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal columns (vectorized) spanning the triangular factor, and
        spanning it plus the compact torus, the first n - 1 elements of basis_u."""
        an = _re_im(_columns(self.basis_an))
        with_torus = _re_im(_columns(np.concatenate([self.basis_an, self.basis_u[: self.n - 1]])))
        return np.linalg.qr(an)[0], np.linalg.qr(with_torus)[0]

    @cached_property
    def _j_eigenbasis(self) -> tuple[np.ndarray, float]:
        """eigh(J)'s eigenvectors, an n x n matrix, and their determinant."""
        _, qj = np.linalg.eigh(self.J)
        return qj, np.linalg.det(qj)

    @cached_property
    def hermitian_frame(self) -> HermitianFrame:
        """Seed-independent data of the Hermitian decomposition."""
        return _hermitian_frame(self)

    # -- conjugations ------------------------------------------------------

    def tau(self, x: np.ndarray) -> np.ndarray:
        """Antilinear conjugation with fixed points the real form."""
        if self.kind == "sl_real":
            return x.conj()
        return -self.J @ _H(x) @ self.J

    def tau_group(self, g: np.ndarray) -> np.ndarray:
        if self.kind == "sl_real":
            return g.conj()
        return self.J @ np.linalg.inv(_H(g)) @ self.J

    @staticmethod
    def theta(x: np.ndarray) -> np.ndarray:
        return -_H(x)

    # -- linear bookkeeping -------------------------------------------------

    def coeffs(self, ms: np.ndarray) -> np.ndarray:
        """Coordinates over basis_u of each matrix of a stack (..., k, n, n),
        one column per matrix: the reader on its skew-Hermitian part."""
        i, j = self._upper
        skew = (ms[..., i, j] - ms[..., j, i].conj()) / 2
        return self._reader @ _re_im(_T(skew))

    def Ad_matrix(self, u: np.ndarray) -> np.ndarray:
        """Matrix of Ad_u over basis_u, for u or for each matrix of a stack u."""
        return self._reader @ _re_im(_conjugator(u, self._upper) @ _columns(self.basis_u))

    def Ad_g0(self, u: np.ndarray) -> np.ndarray:
        """u X u^dagger for each X of basis_g0, as real columns."""
        return _re_im(_conjugator(u, self._rows) @ _columns(self.basis_g0))


@lru_cache(maxsize=None)
def realization(label: str) -> MatrixRealForm:
    """Matrix realization for a catalog label; sl(n,R) and su(p,q) only."""
    import re

    m = re.fullmatch(r"sl\((\d+),R\)", label)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise RealizationError(f"no matrix realization for {label}")
        return MatrixRealForm(label, "sl_real", n)
    m = re.fullmatch(r"su\((\d+),(\d+)\)", label)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p < q:
            p, q = q, p
        if q < 1:
            raise RealizationError(f"no matrix realization for {label}")
        return MatrixRealForm(label, "su_pq", p + q, p, q)
    raise RealizationError(f"no matrix realization shipped for {label!r}")


# ---------------------------------------------------------------------------
# bivectors: one kernel, read through the adjoint matrix of each point

def _read_seed(rf: MatrixRealForm, reader: np.ndarray) -> np.ndarray:
    """reader lam reader^T, exactly antisymmetric: the transposed kernel at
    a = reader on a zero seed."""
    return _T(_bivector(rf, reader, 0.0))


def _bivector(rf: MatrixRealForm, a: np.ndarray, lam: np.ndarray | float) -> np.ndarray:
    """lam - a lam a^T for the adjoint matrix a of a point, or of each point
    of a stack, as lam - (M - M^T), M = sum lam[x, y] a_x a_y^T over the
    seed's pairs: exactly antisymmetric, with a +0.0 diagonal.  For a = Ad_u
    (lam = rf.lam) this is the multiplicative bivector at u, right-trivialized
    over basis_u; for a = Ad_u^{-1}, minus the left-trivialized one.  Read
    by R, it takes R a and _read_seed(rf, R)."""
    x, y = rf._seed
    m = (a[..., x] * rf.lam[x, y]) @ _T(a[..., y])
    return lam - (m - _T(m))


def pi_U_at(rf: MatrixRealForm, u: np.ndarray) -> np.ndarray:
    """Right-trivialized multiplicative bivector at a unitary point, or at
    each point of a stack u."""
    _check_unitary(u)
    return _bivector(rf, rf.Ad_matrix(u), rf.lam)


def pi_0_at(rf: MatrixRealForm, u: np.ndarray) -> np.ndarray:
    """Quotient bivector at the coset of u, or of each point of a stack u,
    over basis_ip0.

    The tangent space of the coset is identified with basis_ip0 by left
    translation by u^{-1}; the k0 components are killed by the projection.
    The mirrored (left coset) presentation used by the disk chart is
    -pi_0_at(u^{-1})."""
    _check_unitary(u)
    # minus the kernel at Ad_u^{-1}, taken as its transpose: exact, diagonal +0.0
    return _T(_bivector(rf, rf._ip0_reader @ rf.Ad_matrix(_H(u)), rf._ip0_lam))


# ---------------------------------------------------------------------------
# Iwasawa factorization and the right action

def _iwasawa_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b, u, bound) of the Iwasawa factorization m = b u of an invertible
    matrix, or of each matrix of a stack, with bound >= cond_2(m); a failed
    factorization raises.  One solve against [m | 1] gives u and b^-1.

    cond_2(m) <= cond_2(b) cond_2(u), with cond_2(b) <= ||b||_F ||b^-1||_F and,
    for r = ||u u^dagger - 1||_F < 1, cond_2(u) <= sqrt((1 + r) / (1 - r)).
    The factor is 1 + O(eps cond^2) while b is accurate; past cond ~ 1e8 the
    computed b understates cond_2(m), and r, of order 1 there, makes up for it
    (r >= 1 gives an infinite bound)."""
    n = m.shape[-1]
    try:
        # reversing rows and columns turns the lower Cholesky factor upper
        low = np.linalg.cholesky((m @ _H(m))[..., ::-1, ::-1])
        b = low[..., ::-1, ::-1]  # upper triangular, positive diagonal
        x = np.linalg.solve(b, np.concatenate([m, np.broadcast_to(np.eye(n), m.shape)], axis=-1))
    except np.linalg.LinAlgError:
        raise IllConditionedError("matrix is singular to working precision") from None
    u, b_inv = x[..., :n], x[..., n:]
    r = np.linalg.norm(u @ _H(u) - np.eye(n), axis=(-2, -1))
    stretch = np.divide(1 + r, 1 - r, out=np.full_like(r, np.inf), where=r < 1)
    bound = np.linalg.norm(b, axis=(-2, -1)) * np.linalg.norm(b_inv, axis=(-2, -1))
    return b, u, bound * np.sqrt(stretch)


def iwasawa(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an invertible matrix, or each matrix of a stack, as b u with b
    upper triangular, positive real diagonal, and u unitary, via triangular
    factorization of M M†.  Every matrix must pass the condition limit, read
    from an upper bound of its condition number (_iwasawa_parts)."""
    b, u, bound = _iwasawa_parts(m)
    if not np.all(bound <= COND_LIMIT):
        raise IllConditionedError(
            f"condition bound {np.max(bound):.2e} exceeds {COND_LIMIT:.0e}")
    return b, u


def g_act(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Right action of the complex group: the unitary factor of u g (of each
    product, for stacks)."""
    _, u1 = iwasawa(u @ g)
    return u1


def iwasawa_residual(rf: MatrixRealForm, n_samples: int = 100, seed: int = 0) -> float:
    """Largest entry of b u - m over seeded random m in SL(n, C)."""
    rng = gaussian_stream(seed)
    worst = 0.0
    for k in _stacks(n_samples, rf.n):
        (m,) = complex_normals(rng, k, (rf.n, rf.n))
        m = m / (np.linalg.det(m) ** (1.0 / rf.n))[:, None, None]
        b, u1 = iwasawa(m)
        worst = max(worst, float(np.abs(b @ u1 - m).max()))
    return worst


def action_residual(rf: MatrixRealForm, n_samples: int = 50, seed: int = 1) -> float:
    """Residual of the action axiom (u.g).h = u.(gh) over seeded samples
    of u in SU(n) and g, h in SL(n, C)."""
    rng = gaussian_stream(seed)
    worst = 0.0
    for k in _stacks(n_samples, rf.n):
        z, x, y = complex_normals(rng, k, *[(rf.n, rf.n)] * 3)
        u = _unitary(z)
        g, h = _sl_exp(np.array([x, y]))
        worst = max(worst, float(np.abs(g_act(g_act(u, g), h) - g_act(u, g @ h)).max()))
    return worst


# ---------------------------------------------------------------------------
# SU(2) disk chart and the closed-form comparison

def _su2_nd(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # of u, or of each of a stack
    a, b = u[..., 0, 0], u[..., 0, 1]
    return -a.imag + 1j * b.imag, a.real + 1j * b.real


def chart_su2(u: np.ndarray) -> complex | np.ndarray:
    """Disk chart on the SU(2) symmetric-space quotient, at u or at each
    matrix of a stack u.

    Invariant under left translation by the real orthogonal subgroup; the
    circle |w| = 1 is exactly the zero locus of the quotient bivector (the
    circle of point leaves), and |w| < 1, |w| > 1 are the two open leaves."""
    if u.shape[-2:] != (2, 2):
        raise ValueError("chart is specific to SU(2)")
    _check_unitary(u)
    num, den = _su2_nd(u)
    w_den = den - 1j * num
    if np.any(np.abs(w_den) < CHART_EPS):
        raise ChartSingularityError("chart singularity")
    return (num - 1j * den) / w_den


def chart_su2_section(w: complex | np.ndarray) -> np.ndarray:
    """A unitary representative of the coset with chart value w, or the
    stack of those of each value of an array w."""
    z = (w + 1j) / (1 + 1j * w)
    x, y = np.real(z), np.imag(z)
    d = 1.0 / np.sqrt(1 + x * x + y * y)
    u = np.stack([1 - 1j * x, 1j * y, 1j * y, 1 + 1j * x], axis=-1)
    return (d[..., None] * u).reshape(np.shape(w) + (2, 2))


def su2_transported_coefficient(rf: MatrixRealForm, u: np.ndarray) -> tuple[complex, float]:
    """(w, F) with the transported quotient bivector F * i dw ^ dwbar at u,
    or the arrays of both over a stack u.

    Uses the left-coset presentation matching the chart invariance; the
    closed form is F = SU2_AMPLITUDE * (1 - |w|^4)."""
    if rf.n != 2:
        raise RealizationError("closed-form transport is specific to n = 2")
    w = chart_su2(u)  # raises off the chart
    c = -pi_0_at(rf, _H(u))
    # the derivative of the chart along t -> exp(t xi) u at t = 0, each xi of basis_ip0
    u = u[..., None, :, :]
    (num, den), (dnum, dden) = _su2_nd(u), _su2_nd(rf.basis_ip0 @ u)
    top, bot = num - 1j * den, den - 1j * num
    dw = ((dnum - 1j * dden) * bot - top * (dden - 1j * dnum)) / bot**2
    return w, -2.0 * (dw.real[..., None, :] @ c @ dw.imag[..., None])[..., 0, 0]


def _chart_points(rng: np.random.Generator, count: int, size: int) -> Iterator[np.ndarray]:
    """The first count accepted points of a rejection sampler on rng, in
    stacks of size: w from uniform (real, imaginary) pairs on the square of
    side 2.8, kept off the origin and away from the zero circle |w| = 1.

    Pairs are drawn size at a time, which reads the stream as one call would,
    so point i is the i-th accepted pair whatever size is, and at most
    2 size points are held."""
    kept = np.empty(0, dtype=complex)
    for start in range(0, count, size):
        k = min(size, count - start)
        while len(kept) < k:
            xy = rng.uniform(-1.4, 1.4, size=(size, 2))
            w = xy[:, 0] + 1j * xy[:, 1]
            kept = np.concatenate([kept, w[(abs(abs(w) - 1.0) > 0.15) & (abs(w) > 0.05)]])
        yield kept[:k]
        kept = kept[k:]


def formula_residual(rf: MatrixRealForm, n_samples: int, seed: int) -> float:
    """Largest deviation of the transported coefficient from the closed form
    SU2_AMPLITUDE * (1 - |w|^4), relative to it, over seeded chart points."""
    worst = 0.0
    for w in _chart_points(uniform_stream(seed), n_samples, stack_size(rf.n)):
        _, coeff = su2_transported_coefficient(rf, chart_su2_section(w))
        expected = SU2_AMPLITUDE * (1 - np.abs(w) ** 4)
        worst = max(worst, float(np.max(np.abs(coeff - expected) / np.abs(expected))))
    return worst


# ---------------------------------------------------------------------------
# orbit geometry checks

class TangencyResult(NamedTuple):
    dim_bivector_image: int
    dim_orbit_projection: int
    residual: float


def leaf_tangency_check(rf: MatrixRealForm, u: np.ndarray) -> TangencyResult:
    """Compare the image of the quotient bivector with the projected tangent
    space of the dressing orbit through u; returns dims and the largest
    principal angle between the two subspaces. When their dimensions differ,
    a vector of the larger span is orthogonal to the smaller one, so that
    angle is pi/2."""
    _check_unitary(u)
    a_inv = rf._ip0_reader @ rf.Ad_matrix(_H(u))
    c = _T(_bivector(rf, a_inv, rf._ip0_lam))  # pi_0_at(rf, u)
    # compact part of the Iwasawa split of Ad_u x over basis_u, for every x of
    # g0 at once, carried back by Ad_u^{-1} and projected onto ip0
    orbit = a_inv @ (rf._full_pinv[:rf.dim_u] @ rf.Ad_g0(u))

    img = column_space(c)
    orb = column_space(orbit)
    same = img.shape[1] == orb.shape[1]
    residual = largest_principal_angle(img, orb) if same else math.pi / 2
    return TangencyResult(img.shape[1], orb.shape[1], residual)


def leaf_tangency_residual(rf: MatrixRealForm, n_samples: int, seed: int) -> float:
    """Largest tangency residual over seeded unitaries: pi/2 when the image
    and orbit dimensions differ at some sample."""
    rng = gaussian_stream(seed)
    return max(leaf_tangency_check(rf, u).residual
               for k in _stacks(n_samples, rf.n) for u in sample_unitaries(rng, k, rf.n))


def largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the spans of the orthonormal columns of
    a and b, as many in each: arcsin of sigma_max(b - a a^T b).  The arccos of
    a cosine near 1 would read about 1.5e-8 for equal spans."""
    s = np.linalg.svd(b - a @ (a.T @ b), compute_uv=False)
    return float(np.arcsin(min(s[0], 1.0))) if s.size else 0.0


class AnnihilatorResult(NamedTuple):
    distance: float
    dim_annihilator: int
    dim_fixed_points: int


def annihilator_check(rf: MatrixRealForm) -> AnnihilatorResult:
    """Annihilator of k0 inside the triangular factor under Im kappa, compared
    with the conjugation-fixed subspace of that factor."""
    # Im kappa(X, Y) = Im 2n tr(XY) for X in basis_k0, Y in the triangular basis
    pairing = 2 * rf.n * np.einsum("iab,jba->ij", rf.basis_k0, rf.basis_an).imag
    ann = _re_im(_columns(rf.basis_an)) @ nullspace(pairing)
    fixed = _re_im(_columns(rf.fixed_triangular))

    def orth(m: np.ndarray) -> np.ndarray:
        return np.linalg.qr(m)[0] if m.shape[1] else m

    qa, qf = orth(ann), orth(fixed)
    pa = qa @ qa.T
    pf = qf @ qf.T
    return AnnihilatorResult(
        distance=float(np.linalg.norm(pa - pf, 2)),
        dim_annihilator=qa.shape[1],
        dim_fixed_points=qf.shape[1],
    )


def stabilizer_dim(rf: MatrixRealForm, u: np.ndarray | Sequence[np.ndarray],
                   include_torus: bool | tuple[bool, ...] = False,
                   threshold: float = RANK_THRESHOLD) -> int | list[int] | tuple:
    """dim { X in g0 : Ad_u X lies in the triangular factor }, the Lie algebra
    of the action stabilizer; include_torus adds the compact torus directions.
    For a stack or a list of unitaries, one dimension per matrix, computed in
    stacks of stack_size(n).  A tuple of include_torus flags gives a tuple of
    such results, one per flag, from one pass: each stack is checked and
    conjugated once, and read in each frame."""
    flags = include_torus if isinstance(include_torus, tuple) else (include_torus,)
    us = np.asarray(u)
    frames = [rf.triangular_frames[t] for t in flags]
    flat, size = us.reshape(-1, rf.n, rf.n), stack_size(rf.n)
    dims: list[list[int]] = [[] for _ in flags]
    for start in range(0, len(flat), size):
        stack = flat[start:start + size]
        _check_unitary(stack)
        m = rf.Ad_g0(stack)
        for q, out in zip(frames, dims):
            resid = m - q @ (q.T @ m)
            out += (m.shape[-1] - numerical_rank(resid, threshold)[0]).tolist()
    found = tuple(d[0] if us.ndim == 2 else d for d in dims)
    return found if isinstance(include_torus, tuple) else found[0]


# ---------------------------------------------------------------------------
# representatives of twisted involutions

def induced_weyl_matrix(rf: MatrixRealForm, u: np.ndarray) -> tuple[list[int] | None, float]:
    """Extract the Weyl-group class of u tau(u)^{-1} as the permutation
    e_j -> e_{perm[j]} of the diagonal; returns (None, residual) off the
    normalizer."""
    m = u @ np.linalg.inv(rf.tau_group(u))
    n = rf.n
    perm = [int(np.argmax(np.abs(m[:, j]))) for j in range(n)]
    off = m.copy()
    off[perm, range(n)] = 0  # the entries off the permutation pattern
    residual = float(np.linalg.norm(off))
    if residual > TOL_NORMALIZER or sorted(perm) != list(range(n)):
        return None, residual
    return perm, residual


def _weyl_permutation(word: Sequence[int], n: int) -> list[int]:
    """The Weyl element of a word as the permutation e_j -> e_{perm[j]} of
    the diagonal."""
    perm = list(range(n))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def _sl_real_representative(perm: list[int]) -> np.ndarray:
    """Direct construction for the split realization: the permutation of psi
    is a product of disjoint transpositions, each realized by a Cayley block."""
    n = len(perm)
    u = np.eye(n, dtype=complex)
    seen = set()
    for j in range(n):
        k = perm[j]
        if k == j or j in seen:
            continue
        if perm[k] != j:
            raise ValueError("word is not an involution")
        seen |= {j, k}
        block = np.eye(n, dtype=complex)
        block[j, j] = block[k, k] = math.cos(math.pi / 4)
        block[j, k] = block[k, j] = 1j * math.sin(math.pi / 4)
        u = u @ block
    return u


def _su_pq_representative(rf: MatrixRealForm, perm: list[int]) -> np.ndarray | None:
    """Construction from the (p, q)-clan of psi, or None when there is none.

    For unitary u, u tau(u)^{-1} = (u J u^dagger) J, so psi is realized exactly
    when H = P J (P the permutation matrix of psi) is, up to signs, a
    Hermitian involution of signature (p, q): P J must be an involution with
    k <= q two-cycles.  Each two-cycle carries one +1 and one -1 eigenvalue;
    the first p - k fixed points get +1 and the rest -1.  u then maps the
    eigenbasis of J onto that of H, eigenvalues in the same order, so that
    u J u^dagger = H."""
    n = rf.n
    h = np.eye(n)[:, perm] @ rf.J
    if not np.array_equal(h, h.T):
        return None
    fixed = np.flatnonzero(np.diag(h))
    pairs = (n - len(fixed)) // 2
    if pairs > rf.q:
        return None
    minus = fixed[rf.p - pairs:]
    h[minus, minus] = -1.0
    _, qh = np.linalg.eigh(h)
    qj, det_qj = rf._j_eigenbasis
    if np.linalg.det(qh) * det_qj < 0:
        qh[:, 0] = -qh[:, 0]
    return (qh @ qj.T).astype(complex)


def representative_for(rf: MatrixRealForm, word: Sequence[int]) -> np.ndarray | None:
    """A unitary u of determinant 1 whose normalizer-valued invariant
    u tau(u)^{-1} induces exactly the Weyl element psi of `word`, or None
    when no orbit realizes psi (possible for su(p, q) only).

    The constructed u is self-verified: the off-normalizer residual must be
    below tolerance and the induced permutation of the diagonal must be
    psi's, on which S_n acts faithfully; a failure is a bug and raises
    RuntimeError."""
    if len(word) == 0:
        return np.eye(rf.n, dtype=complex)

    perm = _weyl_permutation(word, rf.n)
    if rf.kind == "sl_real":
        u = _sl_real_representative(perm)
    else:
        u = _su_pq_representative(rf, perm)
        if u is None:
            return None
    got, residual = induced_weyl_matrix(rf, u)
    if got != perm:
        raise RuntimeError(
            f"{rf.label}: constructed representative of word {tuple(word)} fails "
            f"the self-check (residual {residual:.2e})"
        )
    return u


# ---------------------------------------------------------------------------
# Jacobi identity in exponential charts

def _eigh_ip0(rf: MatrixRealForm, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with xi = V diag(i lam) V^dagger at coordinates x over
    basis_ip0, or at each point of a stack x."""
    return np.linalg.eigh(-1j * np.tensordot(x, rf.basis_ip0, axes=1))


def _exp(lam: np.ndarray, v: np.ndarray) -> np.ndarray:  # exp xi from (lam, V)
    return (v * np.exp(1j * lam)[..., None, :]) @ _H(v)


def _exp_chart(rf: MatrixRealForm, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp xi, J) at exponential coordinates x over basis_ip0, or at each
    point of a stack x: J holds the ip0 coordinates of the differential of
    exp, phi(ad xi)(Y) = ((1 - exp(-ad xi)) / ad xi)(Y), at each Y of basis_ip0.

    Both come from one eigh, xi = V diag(i lam) V^dagger: phi(ad xi) is
    diagonal in the basis V (x) conj(V), scaling entry (a, b) of V^dagger Y V
    by phi(z) = -expm1(-z)/z at z = i(lam_a - lam_b), with phi(0) = 1."""
    lam, v = _eigh_ip0(rf, x)
    z = 1j * (lam[..., :, None] - lam[..., None, :])
    zero = z == 0
    phi = np.where(zero, 1.0, -np.expm1(-z) / np.where(zero, 1.0, z))
    # vec(V^dagger Y V) = K(V)^dagger vec(Y): conjugate only the small factors
    w = _T(_conjugator(v, rf._rows)) @ _columns(rf.basis_ip0).conj()
    w = w.conj() * phi.reshape(phi.shape[:-2] + (-1, 1))
    dexp = _re_im(_conjugator(v, rf._upper) @ w)
    return _exp(lam, v), rf._ip0_upper @ dexp


def _chart_inverse(jac: np.ndarray) -> np.ndarray:
    """J^-1 of a chart Jacobian, or of each of a stack; raises unless every
    J passes the condition limit."""
    try:
        jinv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        raise ChartSingularityError("exponential chart is singular here") from None
    # ||J||_F ||J^-1||_F bounds the condition number of J from above
    bound = np.linalg.norm(jac, axis=(-2, -1)) * np.linalg.norm(jinv, axis=(-2, -1))
    if not np.all(bound <= 1e8):
        raise ChartSingularityError("exponential chart is singular here")
    return jinv


def chart_bivector(rf: MatrixRealForm, x: np.ndarray) -> np.ndarray:
    """Quotient bivector in exponential coordinates x over basis_ip0, or at
    each point of a stack x.  Every point must pass the condition limit."""
    u, jac = _exp_chart(rf, x)
    c = pi_0_at(rf, u)
    jinv = _chart_inverse(jac)
    return jinv @ c @ _T(jinv)


def _offsets(m: int, h: float) -> np.ndarray:  # the stencil: 0, each h e_l, each -h e_l
    return h * np.concatenate([np.zeros((1, m)), np.eye(m), -np.eye(m)])


def _jacobiator(pis: np.ndarray, h: float) -> float:
    """Max cyclic Jacobiator component over i < j < k, by central differences
    of step h, from the (p, 2m + 1, m, m) coefficients of p stencils."""
    p, m = len(pis), pis.shape[-1]
    dpi = (pis[:, 1:m + 1] - pis[:, m + 1:]) / (2 * h)
    # t[a, b, c] = sum_l pi[a, l] d_l pi[b, c]; the Jacobiator is its cyclic sum
    t = (pis[:, 0] @ dpi.reshape(p, m, m * m)).reshape(p, m, m, m)
    a, b, c = np.ogrid[:m, :m, :m]
    i, j, k = np.nonzero((a < b) & (b < c))
    return float(np.abs(t[:, i, j, k] + t[:, k, i, j] + t[:, j, k, i]).max(initial=0.0))


def _stencil(rf: MatrixRealForm, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(R, J^-1) on the stencil of step h of the charts y -> u0 exp xi(y) K
    centred at any u0.  With E_s = exp xi(s) at the 2m + 1 offsets s,
    Ad((u0 E_s)^{-1}) = Ad(E_s^{-1}) Ad(u0^{-1}): R stacks the ip0 rows of
    Ad(E_s^{-1}) as one matrix, and J^-1 holds the inverse Jacobians."""
    e, jac = _exp_chart(rf, _offsets(rf.dim_ip0, h))
    _check_unitary(e)
    return (rf._ip0_reader @ rf.Ad_matrix(_H(e))).reshape(-1, rf.dim_u), _chart_inverse(jac)


def _centred_bivectors(rf: MatrixRealForm, u0: np.ndarray,
                       stencil: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The (p, 2m + 1, m, m) quotient bivectors on the stencil of the charts
    centred at the p unitaries u0: one adjoint matrix and one product each."""
    rows, jinv = stencil
    _check_unitary(u0)
    a = (rows @ rf.Ad_matrix(_H(u0))).reshape(len(u0), len(jinv), rf.dim_ip0, rf.dim_u)
    return jinv @ _T(_bivector(rf, a, rf._ip0_lam)) @ _T(jinv)  # pi_0_at, read by J^-1


def jacobi_check(rf: MatrixRealForm, n_points: int = 10, h: float = 1e-4,
                 seed: int = 0, radius: float = 0.4) -> float:
    """Max Jacobiator residual of the quotient bivector over seeded points
    u0 = exp xi(x), each in the chart centred at it, as many points per stack
    as fit in the form's stack with their 2m neighbours each (at least one);
    0.0 for dim ip0 < 3.  The stencil is built once per call and not kept:
    held by the realization, it would stay in memory after the check."""
    m = rf.dim_ip0
    if m < 3:
        return 0.0
    points = uniform_stream(seed).uniform(-radius, radius, size=(n_points, m))
    per_call = max(1, stack_size(rf.n) // (2 * m + 1))
    stencil = _stencil(rf, h)
    residual = 0.0
    for start in range(0, n_points, per_call):
        u0 = _exp(*_eigh_ip0(rf, points[start:start + per_call]))
        residual = max(residual, _jacobiator(_centred_bivectors(rf, u0, stencil), h))
    return residual


# ---------------------------------------------------------------------------
# multiplicativity and invariance checks

def _sl_exp(x: np.ndarray) -> np.ndarray:
    """exp(0.4 X) for X the traceless part of x, or of each matrix of a
    stack x: an element of SL(n, C).

    Scaling and squaring, per matrix, so that a matrix takes the same steps
    alone as in a stack: A = 0.4 X is halved s times, to Frobenius norm at
    most 1/2, its Taylor series of degree 15 (remainder < 2^-16 / 16!) is
    summed in powers of A^4 (Paterson-Stockmeyer), and squared s times."""
    a = 0.4 * _traceless(x)
    s = np.maximum(np.frexp(2 * np.linalg.norm(a, axis=(-2, -1)))[1], 0)
    a = a * np.exp2(-s)[..., None, None]  # exact: a power of two
    a2 = a @ a
    powers = (np.eye(a.shape[-1]), a, a2, a @ a2)
    blocks = [sum(p / math.factorial(4 * j + i) for i, p in enumerate(powers))
              for j in range(4)]
    a4, g = a2 @ a2, blocks[3]
    for block in blocks[2::-1]:
        g = block + a4 @ g
    for step in range(int(s.max(initial=0))):
        g = np.where((s > step)[..., None, None], g @ g, g)
    return g


def _unitary(z: np.ndarray) -> np.ndarray:
    """The element of SU(n) that a complex Gaussian z, or each matrix of a
    stack z, stands for: the Q of its QR with the phases of R's diagonal
    moved into Q and the determinant divided out."""
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1).real + 1e-300)[..., None, :]
    # q is unitary up to roundoff, so its determinant is a pure phase
    return q * np.exp(-1j * (np.angle(np.linalg.det(q)) / z.shape[-1]))[..., None, None]


def sample_unitaries(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """The stack of the next k samples of SU(n) from the Gaussian stream rng."""
    return _unitary(complex_normals(rng, k, (n, n))[0])


def multiplicativity_residual(rf: MatrixRealForm, n_pairs: int = 100,
                              seed: int = 0) -> float:
    """Residual of pi(uv) = Ad_u pi(v) Ad_u^T + pi(u) over seeded pairs."""
    rng = gaussian_stream(seed)
    worst = 0.0
    for k in _stacks(n_pairs, rf.n):
        u, v = _unitary(np.array(complex_normals(rng, k, (rf.n, rf.n), (rf.n, rf.n))))
        _check_unitary(u)
        a = rf.Ad_matrix(u)
        lhs = pi_U_at(rf, u @ v)
        rhs = a @ pi_U_at(rf, v) @ _T(a) + _bivector(rf, a, rf.lam)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def t_invariance_residual(rf: MatrixRealForm, n_samples: int = 50,
                          seed: int = 1) -> float:
    """Invariance of the group bivector under left and right torus shifts."""
    rng, phase_rng = gaussian_stream(seed), uniform_stream(seed)
    worst = 0.0
    for k in _stacks(n_samples, rf.n):
        u = sample_unitaries(rng, k, rf.n)
        phases = phase_rng.uniform(0, 2 * math.pi, size=(k, rf.n))
        phases -= phases.mean(axis=-1, keepdims=True)
        t = np.exp(1j * phases)[..., None] * np.eye(rf.n)
        at = rf.Ad_matrix(t)
        pi_u = pi_U_at(rf, u)
        right = pi_U_at(rf, u @ t) - pi_u
        left = pi_U_at(rf, t @ u) - at @ pi_u @ _T(at)
        worst = max(worst, float(np.abs(right).max()), float(np.abs(left).max()))
    return worst


def max_sampled_rank(rf: MatrixRealForm, n_samples: int = 200, seed: int = 0,
                     threshold: float = RANK_THRESHOLD) -> tuple[int, int]:
    """(largest quotient-bivector rank over seeded samples, number of
    samples whose rank was borderline)."""
    rng = gaussian_stream(seed)
    best, n_borderline = 0, 0
    for k in _stacks(n_samples, rf.n):
        u = sample_unitaries(rng, k, rf.n)
        rank, borderline = numerical_rank(pi_0_at(rf, u), threshold)
        best = max(best, int(rank.max()))
        n_borderline += int(borderline.sum())
    return best, n_borderline


# ---------------------------------------------------------------------------
# Hermitian decomposition

class HermitianFitResult(NamedTuple):
    b: float
    max_residual: float
    invariant_rank: int


class HermitianFrame(NamedTuple):
    """The seed-independent part of hermitian_fit, built once per realization."""

    flag_ad: np.ndarray  # the flag reader (basis_u -> basis_ip0) times Ad(u0)
    flag_lam: np.ndarray  # the seed read by the flag reader (_read_seed)
    c_inv: np.ndarray  # see invariant_bivector
    rank_inv: int


def _levi_across(rf: MatrixRealForm) -> np.ndarray:
    """Indices of basis_u across the (p, q) block Levi subalgebra: X and Y
    of each root e_j - e_k, j < k, with exactly one of j, k below p."""
    j, k = np.triu_indices(rf.n, 1)
    x = np.arange(rf.n - 1, rf.dim_u, 2)[(j < rf.p) != (k < rf.p)]
    return np.stack([x, x + 1], axis=1).ravel()


def _block_alignment(rf: MatrixRealForm) -> np.ndarray:
    """Unitary u0 conjugating the realization's isotropy algebra onto the
    block Levi: u0 J u0^dagger equals the diagonal signature matrix.  Only
    Ad(u0) is used, so its determinant is left at +-1."""
    vals, vecs = np.linalg.eigh(rf.J)
    order = np.argsort(-vals)  # +1 eigenvalues first
    return vecs[:, order].conj().T


def invariant_bivector(rf: MatrixRealForm) -> np.ndarray:
    """The isotropy-invariant bivector over basis_ip0, normalized to Frobenius
    norm sqrt(dim_ip0) with positive leading entry.

    k0 = s(u(p) + u(q)) has the centre spanned by Z = i(J - tr J / n), so
    ad Z commutes with ad k0 on i p0.  With D the matrix of ad Z there and G
    the Gram matrix of basis_ip0, for which each A of ad k0 has A^T G + G A
    = 0, C = D G^-1 is antisymmetric and A C + C A^T = [A, D] G^-1 = 0.  The
    construction is checked: a residual of A C + C A^T over ad k0 raises."""
    if rf.kind != "su_pq":
        raise NotHermitianError(f"{rf.label} is not Hermitian symmetric here")
    n, m = rf.n, rf.dim_ip0
    z = 1j * (rf.J - np.trace(rf.J) / n * np.eye(n))
    # ad X on ip0, projected back onto ip0, for Z and each X of basis_k0
    k0 = np.concatenate([z[None], rf.basis_k0])[:, None]
    ads = rf._ip0_reader @ rf.coeffs(k0 @ rf.basis_ip0 - rf.basis_ip0 @ k0)
    ip0 = _re_im(_columns(rf.basis_ip0))
    c_inv = ads[0] @ np.linalg.inv(ip0.T @ ip0)
    c_inv = (c_inv - c_inv.T) / 2
    c_inv *= math.sqrt(m) / np.linalg.norm(c_inv)
    if next(x for x in c_inv[np.triu_indices(m, 1)] if abs(x) > 1e-9) < 0:
        c_inv = -c_inv
    residual = np.abs(ads[1:] @ c_inv + c_inv @ _T(ads[1:])).max(initial=0.0)
    if not residual <= 1e-9:
        raise NotHermitianError(
            f"{rf.label}: ad of the centre of k0 gives no invariant bivector "
            f"(residual {residual:.2e})")
    return c_inv


def _hermitian_frame(rf: MatrixRealForm) -> HermitianFrame:
    c_inv = invariant_bivector(rf)  # raises NotHermitianError off su(p, q)
    across = _levi_across(rf)
    ad_u0 = rf.Ad_matrix(_block_alignment(rf))
    # the flag part keeps the entries across the Levi block and carries them
    # back by the inverse differential of u K -> u u0^{-1} (left-trivialized)
    reader = np.zeros((rf.dim_ip0, rf.dim_u))
    reader[:, across] = np.linalg.inv((ad_u0 @ rf.coeffs(rf.basis_ip0))[across])
    return HermitianFrame(reader @ ad_u0, _read_seed(rf, reader), c_inv,
                          int(numerical_rank(c_inv, 1e-9)[0]))


def hermitian_fit(rf: MatrixRealForm, n_samples: int = 100,
                  seed: int = 11) -> HermitianFitResult:
    """Least-squares scalar b in: quotient bivector = flag part + b * invariant.

    The flag part is the left-trivialized group bivector at u u0^{-1},
    projected off the Levi block and pulled back to the symmetric space
    through the identification u K -> u u0^{-1} (parabolic coset).

    The fitted b depends on the documented normalization of the invariant
    bivector and is reported, not asserted against any external convention."""
    frame = rf.hermitian_frame
    c_inv = frame.c_inv
    # the residual d - b c_inv peaks at an entrywise extreme of the
    # differences d, so their running max and min replace the samples
    rng = gaussian_stream(seed)
    terms, hi, lo = [], -np.inf, np.inf
    for k in _stacks(n_samples, rf.n):
        u = sample_unitaries(rng, k, rf.n)
        _check_unitary(u)
        a_inv = rf.Ad_matrix(_H(u))
        # each part is minus the kernel at its point's inverse: u^{-1} for the
        # quotient bivector, u0 u^{-1} for the flag part
        d = (_bivector(rf, frame.flag_ad @ a_inv, frame.flag_lam)
             - _bivector(rf, rf._ip0_reader @ a_inv, rf._ip0_lam))
        terms.extend(np.sum(d * c_inv, axis=(1, 2)).tolist())  # b is free of the stacks
        hi, lo = np.maximum(hi, d.max(axis=0)), np.minimum(lo, d.min(axis=0))

    b = math.fsum(terms) / (float(np.sum(c_inv * c_inv)) * n_samples)
    max_residual = float(max(np.max(hi - b * c_inv), np.max(b * c_inv - lo)))
    return HermitianFitResult(b=b, max_residual=max_residual, invariant_rank=frame.rank_inv)


# ---------------------------------------------------------------------------
# consistency with the exact engine

def tau_root_action(rf: MatrixRealForm) -> tuple[IntVector, ...]:
    """The involution induced on the roots by the concrete conjugation, as
    the images of the simple roots in simple-root coordinates, extracted from
    its action on the real split torus."""
    n = rf.n
    # action on diagonal coordinates: column k is the diagonal of tau(E_kk)
    units = np.eye(n)[:, None] * np.eye(n, dtype=complex)
    t = np.diagonal(rf.tau(units), axis1=-2, axis2=-1).real.T
    # row i: the functional x -> alpha_i(tau x), alpha_i = e_i - e_{i+1},
    # whose partial sums are its simple-root coordinates
    g = (np.eye(n - 1, n) - np.eye(n - 1, n, 1)) @ t
    images = np.cumsum(g, axis=1)[:, : n - 1]
    out = np.rint(images).astype(int)
    assert np.abs(images - out).max() < 1e-9
    return tuple(tuple(int(x) for x in row) for row in out)


def cartan_consistency(rf: MatrixRealForm, n_samples: int = 20, seed: int = 3) -> dict[str, float]:
    """Residuals of the defining identities of the realization."""
    n = rf.n
    rng = gaussian_stream(seed)
    res = dict.fromkeys(("tau_sq", "theta_sq", "commute", "h_stable"), 0.0)
    for k in _stacks(n_samples, rf.n):
        x, h = complex_normals(rng, k, (n, n), (n,))
        x = _traceless(x)
        h = _traceless(h[..., None] * np.eye(n))
        for key, err in (("tau_sq", rf.tau(rf.tau(x)) - x),
                         ("theta_sq", rf.theta(rf.theta(x)) - x),
                         ("commute", rf.tau(rf.theta(x)) - rf.theta(rf.tau(x))),
                         ("h_stable", rf.tau(h) * (1 - np.eye(n)))):
            res[key] = max(res[key], float(np.abs(err).max()))

    # the fixed subspace of the triangular factor must be upper triangular
    # with real diagonal (Iwasawa compatibility of the chosen Borel)
    ms = rf.fixed_triangular
    res["iwasawa_borel"] = max(
        float(np.abs(np.tril(ms, k=-1)).max(initial=0.0)),
        float(np.abs(np.diagonal(ms, axis1=-2, axis2=-1).imag).max(initial=0.0)))
    return res

