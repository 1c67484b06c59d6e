"""Numerical engine on SU(n) matrix realizations.

Builds the multiplicative bivector on SU(n) from normalized root vectors,
pushes it to the symmetric-space quotient, implements the triangular-times-
unitary right action, and runs the independent checks (closed-form example,
Poisson identities, annihilator identity, stabilizer dimensions, Hermitian
decomposition) against the exact combinatorial engine.  The per-form
identities (the Cartan identities of tau, the annihilator identity,
the Poisson identities) are decided in integers on su_lattice(n), basis_u
without its root scale, by exact_rank where a rank is needed; the sampled
checks and the stabilizer and leaf ranks stay in floating point.

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
from typing import NamedTuple, Sequence

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
# rank: exact on integer rows, under one floored cutoff on float ones

def exact_rank(m: np.ndarray) -> int:
    """Rank of a matrix of integers (ints or integral floats), exactly, by
    elimination on sparse rows {column: value} over Python ints.  Each row is
    reduced against the pivot rows kept so far at its leading column, scaled
    by the pivot over their gcd and then divided by the gcd of its entries,
    so that entries stay small; a row that does not reduce to zero becomes the
    pivot row of its leading column.  Only the row being reduced changes."""
    pivots: dict[int, dict[int, int]] = {}
    for r in _integral(m).astype(np.int64).tolist():
        row = {c: x for c, x in enumerate(r) if x}
        while row:
            lead = min(row)
            top = pivots.get(lead)
            if top is None:
                pivots[lead] = row
                break
            g = math.gcd(top[lead], row[lead])
            p, f = top[lead] // g, row[lead] // g
            if p != 1:
                row = {c: p * x for c, x in row.items()}
            for c, y in top.items():
                x = row.get(c, 0) - f * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = math.gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
    return len(pivots)


def _floored_rank(s: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(rank, borderline) from singular values in descending order along the
    last axis, one pair per leading index.

    Values at or below the cutoff threshold * max(s_max, 1) count as zero;
    a value within (0.999, 10) times the cutoff flags the rank as borderline."""
    cutoff = threshold * np.maximum(s[..., :1], 1.0)
    rank = np.sum(s > cutoff, axis=-1)
    borderline = np.any((s > cutoff * 0.999) & (s < cutoff * 10), axis=-1)
    return rank, borderline


def numerical_rank(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rank, borderline) of m, or of each matrix of a stack m, under the
    floored cutoff at RANK_THRESHOLD."""
    return _floored_rank(np.linalg.svd(m, compute_uv=False), RANK_THRESHOLD)


def column_space(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Orthonormal columns spanning the numerical column space of m, and
    whether its rank is borderline."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank, borderline = _floored_rank(s, RANK_THRESHOLD)
    return u[:, :rank], bool(borderline)


_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's Weyl increment, 2^64 / phi rounded to odd
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK = 2**64 - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array."""
    z ^= z >> 30
    z *= _MIX[0]
    z ^= z >> 27
    z *= _MIX[1]
    z ^= z >> 31
    return z


def _mix_int(z: int) -> int:
    """_mix on one Python int below 2^64: a stream's key, for which numpy
    calls on a one-element array would cost ten times as much."""
    z = (z ^ z >> 30) * _MIX[0] & _MASK
    z = (z ^ z >> 27) * _MIX[1] & _MASK
    return z ^ z >> 31


class SampleStream:
    """The stream of a sampled check's Gaussian draws: a counter-based stream
    of 64-bit words, word j of the stream with key K SplitMix64's finalizer
    of K + (j + 1) * 0x9E3779B97F4A7C15 mod 2^64 (Steele, Lea and Flood,
    OOPSLA 2014).  `drawn` counts the words read so far; setting it moves
    the stream to any word without reading those before it.  Each normal
    takes one word."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"sample stream seeds are non-negative, got {seed}")
        key = _GOLDEN
        while True:  # fold in the whole seed, 64 bits at a time, low first
            key = _mix_int(key ^ (seed & _MASK))
            seed >>= 64
            if not seed:
                break
        self.key, self.drawn = key, 0

    def _words(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        # little-endian words, so a "<u4" view reads (low, high) halves on any host
        z = np.arange(self.drawn + 1, self.drawn + 1 + count, dtype="<u8").reshape(size)
        self.drawn += count
        z *= _GOLDEN
        z += self.key
        return _mix(z)

    def standard_normal(self, size) -> np.ndarray:
        """Box-Muller, one normal per word: sqrt(-2 ln u) sin(pi v) with
        u = (high 32 bits + 1) / 2^32 in (0, 1] and v = (low 32 bits, read
        as a signed integer) / 2^32 in [-1/2, 1/2).  The sine of a uniform
        angle on that half turn has the law of the cosine on a whole turn,
        and costs less."""
        z = self._words(size)
        r = np.multiply(z.view("<u4")[..., 1::2], 2.0**-32)  # exact
        r += 2.0**-32
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle = np.multiply(z.view("<i4")[..., ::2], math.pi / 2**32)
        r *= np.sin(angle, out=angle)
        return r


def stack_size(n: int) -> int:
    """Most samples that one stack of a sampled check on an n x n form holds."""
    return max(16, STACK_BUDGET // n**4)


def _stacks(count: int, n: int) -> list[int]:
    """Sizes of the consecutive stacks of count samples of an n x n form:
    stack_size(n) each, then the rest."""
    size = stack_size(n)
    return [min(size, count - start) for start in range(0, count, size)]


def complex_normals(rng: SampleStream, k: int, *shapes) -> list[np.ndarray]:
    """The next k samples of complex Gaussians from rng, one stack per shape.

    One standard_normal((k, D)) call: row i holds sample i's real then
    imaginary parts, shape by shape, in the order that per-sample
    rng.standard_normal(s) calls would give them.  So sample i of a check
    is block i of its stream, words iD to (i + 1)D - 1, whatever the stack
    sizes, and is replayed alone by a fresh stream of the same seed with
    `drawn` set to iD."""
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


def _root_scale(n: int) -> np.ndarray:
    """The scale of each element of su_basis(n) over su_lattice(n): 1 on the
    torus, 1/sqrt(2n) on the root vectors."""
    return np.where(np.arange(n * n - 1) < n - 1, 1.0, 1.0 / math.sqrt(2 * n))


def su_lattice(n: int) -> np.ndarray:
    """su_basis(n) without its 1/sqrt(2n) root scale, as one (n^2 - 1, n, n)
    stack with entries 0, +-1 and +-i: the torus iH_1..iH_{n-1}, then
    E_jk - E_kj and i(E_jk + E_kj) for each j < k."""
    an = _triangular_basis(n)
    e = an[n - 1::2]
    roots = np.stack([e - _T(e), 1j * (e + _T(e))], axis=1).reshape(-1, n, n)
    return np.concatenate([1j * an[: n - 1], roots])


def su_basis(n: int) -> np.ndarray:
    """Ordered real basis of su(n) as one (n^2 - 1, n, n) stack: the torus
    iH_1..iH_{n-1}, then X and Y for each positive root e_j - e_k, j < k.

    The root vector E = E_jk / sqrt(2n) is scaled so that kappa(E, theta(E))
    = -1 with theta(X) = -X^dagger; with F = -theta(E) = E_kj / sqrt(2n),
    X = E - F and Y = i(E + F) lie in su(n)."""
    basis = su_lattice(n)
    basis[n - 1:] *= 1.0 / math.sqrt(2 * n)
    return basis


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


def _integral(x: np.ndarray) -> np.ndarray:  # x rounded to the integers it holds up to roundoff
    out = np.rint(x)
    assert np.abs(x - out).max(initial=0.0) < 1e-9
    return out


def _check_unitary(u: np.ndarray) -> None:
    """Raise unless u, and every matrix of a stack u, is unitary (NaN is not)."""
    res = np.max(np.linalg.norm(u @ _H(u) - np.eye(u.shape[-1]), axis=(-2, -1)))
    if not res <= TOL_UNITARY:
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
    when it raises the exact rank of candidates 0..j on their integer columns.
    A tau that mixes the torus and the roots raises ValueError."""
    torus, roots = tau[:n - 1, :n - 1], tau[n - 1:, n - 1:]
    if tau[:n - 1, n - 1:].any() or tau[n - 1:, :n - 1].any():
        raise ValueError("tau's integer matrix mixes the torus and the root vectors")
    assert np.array_equal(np.abs(roots).sum(axis=0), np.ones(len(roots)))
    cols = np.arange(len(roots))
    image = np.abs(roots).argmax(axis=0)
    first, fixed, sign = image > cols, image == cols, roots[image, cols]
    split = []
    for side in (1, -1):
        ranks = [exact_rank((np.eye(n - 1) + side * torus)[:, :j + 1]) for j in range(n - 1)]
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
        self._upper = np.triu_indices(n)
        self._lower = self._upper[::-1]
        # the reader: basis_u coordinates of a skew-Hermitian matrix from its
        # upper triangle, the pinv folded by (j, i) = -conj (i, j)
        fold = np.linalg.pinv(_re_im(_columns(self.basis_u))).reshape(-1, 2, n, n)
        fold = fold + np.array([-1.0, 1.0])[:, None, None] * _T(fold)
        fold[:, 1, range(n), range(n)] /= 2  # a diagonal entry counts once
        self._reader = fold[..., self._upper[0], self._upper[1]].reshape(self.dim_u, -1)
        # a traceless M is K + B, K in su(n) and B in a + n: K_ij = -conj M_ji
        # for i < j and K_ii = i Im M_ii.  So K is the reader on M's lower
        # triangle (Re rows, then Im) with the signs below, and M lies in
        # a + n (a + n + t) when its rows off a + n (a + n + t) vanish: all
        # but the Re diagonal (all but the diagonal)
        strict = self._upper[0] != self._upper[1]
        signs = np.concatenate([np.where(strict, -1.0, 0.0), np.ones(len(strict))])
        self._compact_reader = self._reader * signs
        self._off_triangular = (signs != 0, np.tile(strict, 2))
        self.lam = lambda_matrix(n)
        upper = np.triu(self.lam, 1)
        self._seed = np.nonzero(upper)  # lam = sum lam[x, y] e_x ^ e_y
        # every bivector is _bivector's lam - a lam a^T, read over the seed's
        # pairs: so pi_U is multiplicative once the pairs cover lam
        if not np.array_equal(self.lam, upper - upper.T):
            raise ValueError("lam has entries off the pairs (x, y), x < y, of its seed")

        tb = self.tau(self.basis_u)
        # tau's matrix on basis_u, integral in every realization
        self._tau = _integral(self.coeffs(tb))
        self._k0, ip0 = _tau_split(self._tau, n)
        self.basis_k0 = ((self.basis_u + tb) / 2)[self._k0]
        self.basis_ip0 = ((self.basis_u - tb) / 2)[ip0]
        self.dim_k0 = len(self.basis_k0)
        self.dim_ip0 = len(self.basis_ip0)
        assert self.dim_k0 + self.dim_ip0 == self.dim_u
        # basis_u -> basis_ip0: the ip0 rows of the inverse of the k0 + ip0
        # change of basis, which drop the k0 components
        change = self.coeffs(np.concatenate([self.basis_k0, self.basis_ip0]))
        self._ip0_reader = np.linalg.inv(change)[self.dim_k0:]
        self._ip0_lam = _read_seed(self, self._ip0_reader)
        self.basis_g0 = np.concatenate([self.basis_k0, -1j * self.basis_ip0])

        self.basis_an = _triangular_basis(n)

    @property
    def diagram(self) -> SatakeDiagram:
        """The Satake diagram of the realized form."""
        if self.kind == "sl_real":
            return sl_real_diagram(self.n)
        return su_pq_diagram(self.p, self.q)

    @cached_property
    def _j_eigh(self) -> tuple[np.ndarray, np.ndarray, float]:
        """eigh(J): its eigenvalues, its eigenvectors (an n x n matrix) and
        their determinant."""
        vals, vecs = np.linalg.eigh(self.J)
        return vals, vecs, np.linalg.det(vecs)

    # -- conjugations ------------------------------------------------------

    def tau(self, x: np.ndarray) -> np.ndarray:
        """Antilinear conjugation with fixed points the real form."""
        if self.kind == "sl_real":
            return x.conj()
        return -self.J @ _H(x) @ self.J

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
        """The lower triangle of u X u^dagger for each X of basis_g0, as real
        columns: all that the split into su(n) and a + n reads."""
        return _re_im(_conjugator(u, self._lower) @ _columns(self.basis_g0))


@lru_cache(maxsize=None)
def realization(label: str) -> MatrixRealForm:
    """Matrix realization for a catalog label; sl(n,R) and su(p,q) only."""
    import re

    m = re.fullmatch(r"sl\(([0-9]+),R\)", label)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise RealizationError(f"no matrix realization for {label}")
        return MatrixRealForm(label, "sl_real", n)
    m = re.fullmatch(r"su\(([0-9]+),([0-9]+)\)", label)
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

def iwasawa(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an invertible matrix, or each matrix of a stack, as b u with b
    upper triangular, positive real diagonal, and u unitary: Householder QR
    of J m^dagger J = q r (J reverses the order), b = J r^dagger J and
    u = J q^dagger J once r's diagonal phases are moved into q.  u is unitary
    to roundoff, so cond_2(m) = cond_2(r) <= ||r||_F ||r^-1||_F, and every
    matrix must pass the condition limit on that bound; a singular or NaN
    matrix fails it."""
    q, r = np.linalg.qr(_H(m)[..., ::-1, ::-1])
    try:
        bound = np.linalg.norm(r, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(r), axis=(-2, -1))
    except np.linalg.LinAlgError:
        raise IllConditionedError("matrix is singular to working precision") from None
    if not np.all(bound <= COND_LIMIT):
        raise IllConditionedError(
            f"condition bound {np.max(bound):.2e} exceeds {COND_LIMIT:.0e}")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    q, r = q * phase[..., None, :], r * phase.conj()[..., :, None]
    return _H(r)[..., ::-1, ::-1], _H(q)[..., ::-1, ::-1]


def g_act(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Right action of the complex group: the unitary factor of u g (of each
    product, for stacks)."""
    _, u1 = iwasawa(u @ g)
    return u1


def iwasawa_residual(rf: MatrixRealForm, n_samples: int, seed: int) -> float:
    """Largest entry of b u - m over seeded random m in SL(n, C)."""
    rng = SampleStream(seed)
    worst = 0.0
    for k in _stacks(n_samples, rf.n):
        (m,) = complex_normals(rng, k, (rf.n, rf.n))
        m = m / (np.linalg.det(m) ** (1.0 / rf.n))[:, None, None]
        b, u1 = iwasawa(m)
        worst = max(worst, float(np.abs(b @ u1 - m).max()))
    return worst


def action_residual(rf: MatrixRealForm, n_samples: int, seed: int) -> float:
    """Residual of the action axiom (u.g).h = u.(gh) over seeded samples
    of u in SU(n) and g, h in SL(n, C)."""
    rng = SampleStream(seed)
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


def formula_residual(rf: MatrixRealForm, n_samples: int, seed: int) -> tuple[float, int]:
    """(largest deviation of the transported coefficient from the closed form
    SU2_AMPLITUDE * (1 - |w|^4), relative to it, number of points kept): over
    seeded Haar points of SU(2), those off the origin and away from the zero
    circle |w| = 1, where the closed form vanishes."""
    rng = SampleStream(seed)
    worst, kept = 0.0, 0
    for k in _stacks(n_samples, rf.n):
        w, coeff = su2_transported_coefficient(rf, sample_unitaries(rng, k, rf.n))
        r = np.abs(w)
        off = (np.abs(r - 1.0) > 0.15) & (r > 0.05)
        expected = SU2_AMPLITUDE * (1 - r[off] ** 4)
        worst = max(worst, float(np.max(np.abs(coeff[off] - expected) / np.abs(expected),
                                        initial=0.0)))
        kept += int(off.sum())
    return worst, kept


# ---------------------------------------------------------------------------
# orbit geometry checks

class TangencyResult(NamedTuple):
    dim_bivector_image: int
    dim_orbit_projection: int
    residual: float
    borderline: bool  # either rank is borderline


def leaf_tangency_check(rf: MatrixRealForm, u: np.ndarray) -> TangencyResult:
    """Compare the image of the quotient bivector with the projected tangent
    space of the dressing orbit through u; returns dims, the largest
    principal angle between the two subspaces and whether either rank was
    borderline. When their dimensions differ, a vector of the larger span is
    orthogonal to the smaller one, so that angle is pi/2."""
    _check_unitary(u)
    a_inv = rf._ip0_reader @ rf.Ad_matrix(_H(u))
    c = _T(_bivector(rf, a_inv, rf._ip0_lam))  # pi_0_at(rf, u)
    # compact part of the Iwasawa split of Ad_u x over basis_u, for every x of
    # g0 at once, carried back by Ad_u^{-1} and projected onto ip0
    orbit = a_inv @ (rf._compact_reader @ rf.Ad_g0(u))

    img, img_borderline = column_space(c)
    orb, orb_borderline = column_space(orbit)
    same = img.shape[1] == orb.shape[1]
    residual = largest_principal_angle(img, orb) if same else math.pi / 2
    return TangencyResult(img.shape[1], orb.shape[1], residual, img_borderline or orb_borderline)


def leaf_tangency_residual(rf: MatrixRealForm, n_samples: int, seed: int) -> tuple[float, int]:
    """(largest tangency residual over seeded unitaries, number of samples
    with a borderline rank): pi/2 when the image and orbit dimensions differ
    at some sample."""
    rng = SampleStream(seed)
    results = [leaf_tangency_check(rf, u)
               for k in _stacks(n_samples, rf.n) for u in sample_unitaries(rng, k, rf.n)]
    return max(r.residual for r in results), sum(r.borderline for r in results)


def largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the spans of the orthonormal columns of
    a and b, as many in each: arcsin of sigma_max(b - a a^T b).  The arccos of
    a cosine near 1 would read about 1.5e-8 for equal spans."""
    s = np.linalg.svd(b - a @ (a.T @ b), compute_uv=False)
    return float(np.arcsin(min(s[0], 1.0))) if s.size else 0.0


class AnnihilatorResult(NamedTuple):
    dim_annihilator: int
    dim_fixed_points: int
    dim_intersection: int


def annihilator_check(rf: MatrixRealForm) -> AnnihilatorResult:
    """Dimensions of the annihilator of k0 inside the triangular factor under
    Im kappa, of its conjugation-fixed subspace, and of their intersection: the
    nullities, by exact_rank, of integer rows P and T on the coordinates over
    basis_an and of [P; T].  P pairs 2 X / scale, X of basis_k0, with basis_an
    under Im tr, and T is re/im(tau A - A) over A of basis_an."""
    k0 = 2 * rf.basis_k0 / _root_scale(rf.n)[rf._k0, None, None]
    pairing = np.einsum("iab,jba->ij", k0, rf.basis_an).imag
    fixed = _re_im(_columns(rf.tau(rf.basis_an) - rf.basis_an))
    return AnnihilatorResult(*(len(rf.basis_an) - exact_rank(m)
                               for m in (pairing, fixed, np.concatenate([pairing, fixed]))))


def stabilizer_dim(rf: MatrixRealForm,
                   us: np.ndarray | Sequence[np.ndarray]) -> tuple[list[int], list[int], int]:
    """For each unitary u of a stack or a list: dim { X in g0 : Ad_u X lies in
    the triangular factor a + n }, the Lie algebra of the action stabilizer,
    and the same with the compact torus directions added (a + n + t); then
    the number of unitaries with a borderline rank in either.  One pass in
    stacks of stack_size(n) checks and conjugates each stack once.
    Ad_u X lies in a + n (a + n + t) exactly when its lower triangle rows off
    a + n (a + n + t) vanish, so each dimension is the nullity of those rows."""
    flat, size = np.asarray(us).reshape(-1, rf.n, rf.n), stack_size(rf.n)
    dims: tuple[list[int], list[int]] = [], []
    n_borderline = 0
    for start in range(0, len(flat), size):
        stack = flat[start:start + size]
        _check_unitary(stack)
        m = rf.Ad_g0(stack)
        marked = np.zeros(len(stack), dtype=bool)
        for torus, out in enumerate(dims):
            rank, borderline = numerical_rank(m[..., rf._off_triangular[torus], :])
            out += (m.shape[-1] - rank).tolist()
            marked |= borderline
        n_borderline += int(marked.sum())
    return dims[0], dims[1], n_borderline


# ---------------------------------------------------------------------------
# representatives of twisted involutions

def induced_weyl_matrix(rf: MatrixRealForm, u: np.ndarray) -> tuple[list[int], float]:
    """(perm, residual): the largest entry of each column of u tau(u)^{-1},
    read as the map e_j -> e_{perm[j]} of the diagonal, and the norm of the
    entries off that pattern.  For unitary u, u tau(u)^{-1} is u u^T on
    sl(n, R) and u J u^dagger J on su(p, q)."""
    m = u @ _T(u) if rf.kind == "sl_real" else u @ rf.J @ _H(u) @ rf.J
    n = rf.n
    perm = [int(np.argmax(np.abs(m[:, j]))) for j in range(n)]
    off = m.copy()
    off[perm, range(n)] = 0  # the entries off the permutation pattern
    return perm, float(np.linalg.norm(off))


def _weyl_permutation(word: Sequence[int], n: int) -> list[int]:
    """The Weyl element of a word as the permutation e_j -> e_{perm[j]} of
    the diagonal."""
    perm = list(range(n))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def _sl_real_representative(perm: list[int]) -> np.ndarray:
    """Direct construction for the split realization: the permutation of psi
    is a product of disjoint transpositions, each realized by a Cayley block
    built from its smaller index."""
    n = len(perm)
    u = np.eye(n, dtype=complex)
    for j, k in enumerate(perm):
        if k <= j:
            continue
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
    _, qj, det_qj = rf._j_eigh
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
    if got != perm or residual > TOL_NORMALIZER:
        raise RuntimeError(
            f"{rf.label}: constructed representative of word {tuple(word)} fails "
            f"the self-check (residual {residual:.2e})"
        )
    return u


# ---------------------------------------------------------------------------
# the Poisson property and torus invariance: three identities in the Lie
# algebra (see README)

def _cyclic(t: np.ndarray) -> np.ndarray:  # t[i, j, k] + t[j, k, i] + t[k, i, j]
    out = t + t.transpose(1, 2, 0)
    out += t.transpose(2, 0, 1)
    return out


def poisson_identities(rf: MatrixRealForm) -> tuple[float, float, float]:
    """(mcybe, k0_coisotropic, t_invariance): the largest entries of
    ad_X [lam, lam] over X and Y of the simple roots, which generate u, of the
    i p0 ^ i p0 part of ad_X lam over X of basis_k0, and of ad_H lam over H of
    the torus T.  The last vanishes exactly when Ad_t lam Ad_t^T = lam on T,
    that is pi_U(ut) = pi_U(u) and pi_U(tu) = Ad_t pi_U(u) Ad_t^T.  All three
    are integers: over su_lattice(n), basis_u without its root scale, ad[a]
    (the matrix of ad B_a), 8n lam and tau are integral, and each identity is
    homogeneous in lam (see README)."""
    n, d = rf.n, rf.dim_u
    scale, basis = _root_scale(n), su_lattice(n)
    ad = np.empty((d, d, d))
    for rows in np.split(np.arange(d), n + 1):  # all at once would take 0.9 MiB on n = 5
        b = basis[rows, None]
        ad[rows] = _integral(scale[:, None] * rf.coeffs(b @ basis - basis @ b))
    lam = _integral(8 * n * scale[:, None] * rf.lam * scale)
    # 1 - tau = 2 (projection onto i p0 along k0); A lam + lam A^T projects to w - w^T
    ip0, k0 = np.eye(d) - rf._tau, (np.eye(d) + rf._tau)[:, rf._k0].T
    coisotropic = max(np.abs(w - w.T).max()
                      for w in ip0 @ np.tensordot(k0, ad, 1) @ lam @ ip0.T)
    invariance = max(np.abs(w - w.T).max() for w in ad[:n - 1] @ lam)
    t = _cyclic(np.tensordot(lam, ad @ lam, (0, 0)))  # -[lam, lam], alternating
    j, k = np.triu_indices(n, 1)
    x = n - 1 + 2 * np.flatnonzero(k == j + 1)  # X of each simple root; Y follows it
    gens = ad[np.concatenate([x, x + 1])]
    del ad  # the peak would hold it beside t and two products of t
    # ad_X of an alternating t is the cyclic sum of ad_X on t's first index
    mcybe = max(np.abs(_cyclic((a @ t.reshape(d, -1)).reshape(t.shape))).max() for a in gens)
    return float(mcybe), float(coisotropic), float(invariance)


# ---------------------------------------------------------------------------
# sampled unitaries and the quotient rank

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


def sample_unitaries(rng: SampleStream, k: int, n: int) -> np.ndarray:
    """The stack of the next k samples of SU(n) from the Gaussian stream rng."""
    return _unitary(complex_normals(rng, k, (n, n))[0])


def max_sampled_rank(rf: MatrixRealForm, n_samples: int, seed: int) -> tuple[int, int]:
    """(largest quotient-bivector rank over seeded samples, number of
    samples whose rank was borderline)."""
    rng = SampleStream(seed)
    best, n_borderline = 0, 0
    for k in _stacks(n_samples, rf.n):
        u = sample_unitaries(rng, k, rf.n)
        rank, borderline = numerical_rank(pi_0_at(rf, u))
        best = max(best, int(rank.max()))
        n_borderline += int(borderline.sum())
    return best, n_borderline


# ---------------------------------------------------------------------------
# Hermitian decomposition

class HermitianFitResult(NamedTuple):
    b: float
    max_residual: float


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
    vals, vecs, _ = rf._j_eigh
    return vecs[:, np.argsort(-vals)].conj().T  # +1 eigenvalues first


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


def hermitian_fit(rf: MatrixRealForm, n_samples: int, seed: int) -> HermitianFitResult:
    """Least-squares scalar b in: quotient bivector = flag part + b * invariant.

    The flag part is the left-trivialized group bivector at u u0^{-1},
    projected off the Levi block and pulled back to the symmetric space
    through the identification u K -> u u0^{-1} (parabolic coset).

    The fitted b depends on the documented normalization of the invariant
    bivector and is reported, not asserted against any external convention."""
    c_inv = invariant_bivector(rf)  # raises NotHermitianError off su(p, q)
    across = _levi_across(rf)
    ad_u0 = rf.Ad_matrix(_block_alignment(rf))
    # the flag part keeps the entries across the Levi block and carries them
    # back by the inverse differential of u K -> u u0^{-1} (left-trivialized)
    reader = np.zeros((rf.dim_ip0, rf.dim_u))
    reader[:, across] = np.linalg.inv((ad_u0 @ rf.coeffs(rf.basis_ip0))[across])
    flag_ad, flag_lam = reader @ ad_u0, _read_seed(rf, reader)
    # the residual d - b c_inv peaks at an entrywise extreme of the
    # differences d, so their running max and min replace the samples
    rng = SampleStream(seed)
    terms, hi, lo = [], -np.inf, np.inf
    for k in _stacks(n_samples, rf.n):
        u = sample_unitaries(rng, k, rf.n)
        _check_unitary(u)
        a_inv = rf.Ad_matrix(_H(u))
        # each part is minus the kernel at its point's inverse: u^{-1} for the
        # quotient bivector, u0 u^{-1} for the flag part
        d = (_bivector(rf, flag_ad @ a_inv, flag_lam)
             - _bivector(rf, rf._ip0_reader @ a_inv, rf._ip0_lam))
        terms.extend(np.sum(d * c_inv, axis=(1, 2)).tolist())  # b is free of the stacks
        hi, lo = np.maximum(hi, d.max(axis=0)), np.minimum(lo, d.min(axis=0))

    b = math.fsum(terms) / (float(np.sum(c_inv * c_inv)) * n_samples)
    max_residual = float(max(np.max(hi - b * c_inv), np.max(b * c_inv - lo)))
    return HermitianFitResult(b=b, max_residual=max_residual)


# ---------------------------------------------------------------------------
# consistency with the exact engine

def tau_root_action(rf: MatrixRealForm) -> tuple[IntVector, ...]:
    """The involution induced on the roots by the concrete conjugation, as the
    images of the simple roots in simple-root coordinates: tau's block t on the
    torus iH_1..iH_{n-1} of basis_u is -tau on the real torus, so row i of
    -c t c^-1, c the Cartan matrix (alpha_i(H_k) = c[i, k]), is alpha_i o tau."""
    m = rf.n - 1
    c = 2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    images = _integral(-c @ rf._tau[:m, :m] @ np.linalg.inv(c))
    return tuple(tuple(int(x) for x in row) for row in images)


def cartan_consistency(rf: MatrixRealForm) -> dict[str, float]:
    """Integer residuals of the defining identities on L = su_lattice(n):
    tau's matrix rf._tau on basis_u squares to 1 (tau_sq), and is tau's
    matrix on L too, tau(L_b) = sum_a rf._tau[a, b] L_a (commute: tau
    preserves su(n), the fixed space of theta(X) = -X^dagger).  L drops the
    root scale of basis_u, so the second holds only if rf._tau keeps the
    torus and the roots apart."""
    lat, tau = su_lattice(rf.n), rf._tau
    residuals = (("tau_sq", tau @ tau - np.eye(rf.dim_u)),
                 ("commute", rf.tau(lat) - np.tensordot(tau.T, lat, 1)))
    return {key: float(np.abs(r).max(initial=0.0)) for key, r in residuals}
