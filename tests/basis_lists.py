"""Per-matrix lists: the differential reference for the subspace stacks of
`leafatlas.matrixlie.MatrixRealForm`.

Each basis is built one matrix at a time, as a Python list, in the order and
with the arithmetic the stacks must reproduce bit for bit: the normalized
root vectors, su(n), the tau split by a greedy that restacks its growing
list for each candidate, the triangular factor and g0.  `vec` and `coeffs`
are the single-matrix vectorization and coordinates, the latter by the
pseudo-inverse that `MatrixRealForm` folds into its upper-triangle reader.

Imported by the test modules; pytest does not collect it.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from leafatlas import matrixlie as ml


def elementary(n: int, j: int, k: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[j, k] = 1.0
    return m


def root_vectors(n: int) -> dict[tuple[int, int], dict[str, np.ndarray]]:
    """Normalized root vectors of sl(n, C) for positive roots e_j - e_k, j < k.

    E is scaled so that kappa(E, theta(E)) = -1 with theta(X) = -X^dagger;
    then F = -theta(E), X = E - F and Y = i(E + F) lie in su(n).
    """
    c = 1.0 / math.sqrt(2 * n)
    out = {}
    for j in range(n):
        for k in range(j + 1, n):
            e = c * elementary(n, j, k)
            f = c * elementary(n, k, j)  # -theta(e)
            out[(j, k)] = {"E": e, "F": f, "X": e - f, "Y": 1j * (e + f)}
    return out


def su_basis(n: int) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """Ordered real basis of su(n): torus H_1..H_{n-1}, then X, Y per root."""
    e = np.eye(n, dtype=complex)
    basis = [1j * np.diag(e[j] - e[j + 1]) for j in range(n - 1)]
    pairs = []
    rv = root_vectors(n)
    for j in range(n):
        for k in range(j + 1, n):
            pairs.append((j, k))
            basis.append(rv[(j, k)]["X"])
            basis.append(rv[(j, k)]["Y"])
    return basis, pairs


def lambda_matrix(n: int) -> np.ndarray:
    """The bivector seed over su_basis(n): 1/4 on each (X_alpha, Y_alpha)."""
    lam = np.zeros((n * n - 1, n * n - 1))
    for idx in range(n * (n - 1) // 2):
        x = n - 1 + 2 * idx
        lam[x, x + 1] = 0.25
        lam[x + 1, x] = -0.25
    return lam


def vec(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


@lru_cache(maxsize=None)
def _su_pinv(n: int) -> np.ndarray:
    return np.linalg.pinv(np.stack([vec(b) for b in su_basis(n)[0]], axis=1))


def coeffs(rf, m: np.ndarray) -> np.ndarray:
    """Coordinates of one matrix over basis_u: the pseudo-inverse of the
    vectorized su(n) basis, the least-squares fit over all n^2 entries."""
    return _su_pinv(rf.n) @ vec(m)


def split_tau(rf, basis_u: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(k0, ip0): (b + tau b)/2 and (b - tau b)/2 for each b in turn, each
    kept when it is nonzero and raises the rank of its bucket."""
    k0: list[np.ndarray] = []
    ip0: list[np.ndarray] = []
    kvecs: list[np.ndarray] = []
    pvecs: list[np.ndarray] = []

    def try_add(m: np.ndarray, bucket: list, vecs: list) -> None:
        v = vec(m)
        if np.linalg.norm(v) < 1e-12:
            return
        if vecs:
            stack = np.stack(vecs + [v], axis=1)
            if ml.numerical_rank(stack, 1e-9)[0] == len(vecs):
                return
        bucket.append(m)
        vecs.append(v)

    for b in basis_u:
        tb = rf.tau(b)
        try_add((b + tb) / 2, k0, kvecs)
        try_add((b - tb) / 2, ip0, pvecs)
    assert len(k0) + len(ip0) == len(basis_u)
    return k0, ip0


def an_basis(n: int) -> list[np.ndarray]:
    """The triangular factor: the real split torus, then E_jk and i E_jk."""
    e = np.eye(n, dtype=complex)
    torus = [np.diag(e[j] - e[j + 1]) for j in range(n - 1)]
    return torus + [c * elementary(n, j, k)
                    for j in range(n) for k in range(j + 1, n) for c in (1, 1j)]


def g0_basis(k0: list[np.ndarray], ip0: list[np.ndarray]) -> list[np.ndarray]:
    """Real basis of the noncompact real form: k0 plus -i * (i p0)."""
    return list(k0) + [-1j * b for b in ip0]
