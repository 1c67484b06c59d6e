"""The Weyl group as integer matrices on simple-root coordinates: the
differential reference for the root permutations of `leafatlas.rootsys`, for
the involution data of `leafatlas.satake`, and for the twisted-involution
walk of `leafatlas.atlas` and the classes it carries.

Every matrix is a tuple of tuples of Python ints, so every computation here
is exact. Imported by the test modules; pytest does not collect it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from leafatlas.atlas import _recorder
from leafatlas.rootsys import DEFAULT_WEYL_CAP, IntMatrix, IntVector, Perm, RootSystem, WeylCapError
from leafatlas.satake import RealFormData, SatakeDiagram, real_form_data

FracVector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# small exact matrix helpers

def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def mat_vec(a: IntMatrix, v: Sequence[int]) -> IntVector:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def mat_transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def is_positive(v: Sequence[int]) -> bool:
    return any(x != 0 for x in v) and all(x >= 0 for x in v)


def is_negative(v: Sequence[int]) -> bool:
    return any(x != 0 for x in v) and all(x <= 0 for x in v)


# ---------------------------------------------------------------------------
# Weyl elements as matrices

@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element: an integer matrix with a word as witness.

    Identity of elements is matrix equality; the word is one expression in
    simple reflections (1-based indices) and is not itself canonical.
    """

    word: tuple[int, ...] = field(compare=False)
    matrix: IntMatrix

    def apply(self, v: Sequence[int]) -> IntVector:
        return mat_vec(self.matrix, v)


def identity_element(rs: RootSystem) -> WeylElement:
    return WeylElement(word=(), matrix=identity_matrix(rs.rank))


def reflect(rs: RootSystem, i: int) -> WeylElement:
    """Simple reflection s_i (1-based), acting on simple-root coordinates."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    k, n, a = i - 1, rs.rank, rs.cartan_matrix
    matrix = tuple(tuple(int(r == c) - (a[c][k] if r == k else 0) for c in range(n))
                   for r in range(n))
    return WeylElement(word=(i,), matrix=matrix)


def multiply(rs: RootSystem, *elements: WeylElement) -> WeylElement:
    """Product of Weyl elements; the first factor acts last on root vectors."""
    word: tuple[int, ...] = ()
    matrix = identity_matrix(rs.rank)
    for w in elements:
        word = word + w.word
        matrix = mat_mul(matrix, w.matrix)
    return WeylElement(word=word, matrix=matrix)


def inverse(rs: RootSystem, w: WeylElement) -> WeylElement:
    rev = tuple(reversed(w.word))
    matrix = identity_matrix(rs.rank)
    for i in rev:
        matrix = mat_mul(matrix, reflect(rs, i).matrix)
    inv = WeylElement(word=rev, matrix=matrix)
    if mat_mul(inv.matrix, w.matrix) != identity_matrix(rs.rank):
        raise ValueError("word is not a valid witness for this element")
    return inv


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    return multiply(rs, *(reflect(rs, i) for i in word))


def length(rs: RootSystem, w: WeylElement) -> int:
    """Coxeter length: the number of positive roots sent to negative ones."""
    return sum(1 for beta in rs.positive_roots if is_negative(w.apply(beta)))


def longest_element(rs: RootSystem, subset: Iterable[int] | None = None) -> WeylElement:
    """Longest element of the parabolic subgroup generated by `subset`.

    `subset` holds 1-based simple indices; None or the full set gives the
    longest element of the whole group. The returned word is reduced.
    """
    indices = sorted(set(subset)) if subset is not None else list(range(1, rs.rank + 1))
    for i in indices:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    w = identity_element(rs)
    while True:
        i = next((j for j in indices if is_positive(w.apply(rs.simple_roots[j - 1]))), None)
        if i is None:
            return w
        w = multiply(rs, w, reflect(rs, i))


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_WEYL_CAP) -> Iterator[WeylElement]:
    """Yield every Weyl-group element exactly once, in breadth-first order.

    Elements are canonicalized by their matrices; breadth-first search from
    the identity guarantees each carried word is reduced. Raises WeylCapError
    as soon as more than `cap` elements are discovered.
    """
    gens = [reflect(rs, i) for i in range(1, rs.rank + 1)]
    start = identity_element(rs)
    seen = {start.matrix}
    queue = [start]
    count = 0
    while queue:
        nxt: list[WeylElement] = []
        for w in queue:
            count += 1
            if count > cap:
                raise WeylCapError(
                    f"Weyl group of {rs.family}{rs.rank} exceeds cap {cap}", partial_count=cap
                )
            yield w
            for g in gens:
                prod = multiply(rs, w, g)
                if prod.matrix not in seen:
                    seen.add(prod.matrix)
                    nxt.append(prod)
        queue = nxt


def root_lengths(family: str, rank: int) -> tuple[int, ...]:
    """Half squared lengths (alpha_i, alpha_i)/2, short roots normalized to 2."""
    if family == "B":
        return tuple([2] * (rank - 1) + [1])
    if family == "C":
        return tuple([1] * (rank - 1) + [2])
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return tuple([1] * rank)


def form(rs: RootSystem) -> IntMatrix:
    """The symmetrized Cartan pairing, short roots of squared length 2."""
    lengths = root_lengths(rs.family, rs.rank)
    return tuple(tuple(a * lengths[j] for j, a in enumerate(row)) for row in rs.cartan_matrix)


def preserves_form(rs: RootSystem, w: WeylElement) -> bool:
    """Check w^T * form * w == form (Weyl invariance of the pairing)."""
    m = mat_mul(mat_transpose(w.matrix), mat_mul(form(rs), w.matrix))
    return m == form(rs)


# ---------------------------------------------------------------------------
# between the two models

def matrix_of(rs: RootSystem, p: Perm) -> IntMatrix:
    """The matrix of a root permutation: its columns are the images of the
    simple roots."""
    return mat_transpose(rs.permutations.images(p))


def perm_of(rs: RootSystem, w: WeylElement) -> Perm:
    """The root permutation of w, root by root."""
    k = rs.permutations
    return tuple(k.index[w.apply(r)] for r in k.roots)


def reduced_word(rs: RootSystem, p: Perm) -> tuple[int, ...]:
    """The lexicographically least reduced word of p, by the greedy on whole
    permutations: the reference for `RootPermutations.word_from_heights`. The least
    left descent s_i of p (p^-1 sends alpha_i to a negative root) comes first,
    then the word of s_i·p, whose inverse is p^-1·s_i."""
    k = rs.permutations
    inv = [0] * len(p)
    for j, x in enumerate(p):
        inv[x] = j
    word: list[int] = []
    while True:
        i = next((i for i, a in enumerate(k.simple) if inv[a] >= k.npos), None)
        if i is None:
            return tuple(word)
        word.append(i + 1)
        inv = k.compose(inv, k.reflections[i])


def element(rs: RootSystem, p: Perm) -> WeylElement:
    """p as a matrix element carrying its lexicographically least reduced word."""
    return WeylElement(word=reduced_word(rs, p), matrix=matrix_of(rs, p))


# ---------------------------------------------------------------------------
# the involution data and the classes, from matrices

class MatrixForm(NamedTuple):
    tau_star: IntMatrix
    w_b: WeylElement
    w0: WeylElement
    restricted: dict[FracVector, int]
    real_rank: int


def _sigma_matrix(perm: Sequence[int]) -> IntMatrix:
    n = len(perm)
    return tuple(tuple(1 if r == perm[c] else 0 for c in range(n)) for r in range(n))


def project_restricted(tau_star: IntMatrix, alpha: Sequence[int]) -> FracVector:
    """Projection (1 + tau*)/2 of a root onto the +1 eigenspace, exact."""
    img = mat_vec(tau_star, alpha)
    return tuple(Fraction(a + b, 2) for a, b in zip(alpha, img))


@lru_cache(maxsize=None)
def matrix_form(sd: SatakeDiagram) -> MatrixForm:
    """tau* = w_b . sigma as a matrix product, with the restricted roots (both
    signs, with multiplicities) and the real rank it gives; sigma is the node
    permutation of `real_form_data`."""
    rs = sd.root_system()
    wb = longest_element(rs, sd.black)
    tau = mat_mul(wb.matrix, _sigma_matrix(real_form_data(sd).sigma))
    mult: dict[FracVector, int] = {}
    for alpha in rs.positive_roots:
        for root in (alpha, tuple(-x for x in alpha)):
            lam = project_restricted(tau, root)
            if any(x != 0 for x in lam):
                mult[lam] = mult.get(lam, 0) + 1
    return MatrixForm(tau, wb, longest_element(rs), mult, (rs.rank + mat_trace(tau)) // 2)


class NotTwistedInvolutionError(ValueError):
    """Raised when a Weyl element w does not satisfy (w tau*)^2 = 1."""


def twisted_matrix(rf: RealFormData, psi: WeylElement) -> IntMatrix:
    return mat_mul(psi.matrix, matrix_form(rf.diagram).tau_star)


def orbit_class(rf: RealFormData, rs: RootSystem, psi: WeylElement) -> dict:
    """The class of one twisted involution, computed from psi alone: the
    reference for the invariants that `twisted_involutions` carries."""
    m = twisted_matrix(rf, psi)
    if mat_mul(m, m) != identity_matrix(rs.rank):
        raise NotTwistedInvolutionError(
            f"word {psi.word} is not a twisted involution for {rf.diagram.label}"
        )
    mf = matrix_form(rf.diagram)
    codim_y = length(rs, multiply(rs, psi, mf.w_b, mf.w0))
    v = perm_of(rs, multiply(rs, psi, mf.w_b))
    return _recorder(rf, rs)(v, codim_y, (rs.rank + mat_trace(m)) // 2)


def upward_walk(rf: RealFormData, rs: RootSystem) -> Iterator[tuple[Perm, int, int]]:
    """(v, codim_Y, a) for every twisted involution psi = v w_b, by the walk
    that keeps every child: the reference for the canonical-parent walk of
    `twisted_involutions`.

    It walks v = psi w_b up from the identity by v -> s v sigma(s), or
    v -> s v when s v sigma(s) = v, along every simple s that is not a left
    descent of v, and drops a v reached before. Classes are visited in order
    of l(v), so only the two layers above the current one are remembered.
    """
    k = rs.permutations
    npos = k.npos
    twisted = [(k.reflections[i], k.reflections[j], k.simple[i], k.simple[j])
               for i, j in enumerate(rf.sigma)]
    a_identity = sum(1 for i, j in enumerate(rf.sigma) if i <= j)
    # layers[d] maps each v of length ell + d found so far to its a
    layers: list[dict[Perm, int]] = [{k.identity: a_identity}, {}, {}]
    ell = 0
    while any(layers):
        current = layers.pop(0)
        layers.append({})
        for v, a in current.items():
            yield v, npos - ell, a
            for s, s_sigma, alpha, alpha_sigma in twisted:
                # s_i is a left descent of v iff v^-1 = sigma v sigma sends
                # alpha_i to a negative root, iff v does so to alpha_sigma(i)
                image = v[alpha_sigma]
                if image >= npos:
                    continue
                sv = k.compose(s, v)
                # s v sigma(s) = v iff v sigma(s) v^-1, the reflection in
                # v(alpha_sigma(i)) > 0, is s_i, iff v(alpha_sigma(i)) = alpha_i
                if image == alpha:
                    layers[0].setdefault(sv, a - 1)
                else:
                    layers[1].setdefault(k.compose(sv, s_sigma), a)
        ell += 1


def upward_walk_records(rf: RealFormData, rs: RootSystem) -> list[dict]:
    """The class records of `upward_walk`, sorted as `atlas` sorts them."""
    record = _recorder(rf, rs)
    records = (record(v, codim_y, a) for v, codim_y, a in upward_walk(rf, rs))
    return sorted(records, key=lambda c: (c["codim_Y"], c["psi_word"]))


def open_class_element(rf: RealFormData, rs: RootSystem) -> WeylElement:
    """The unique psi with codim_Y = 0, namely w_0 w_b."""
    mf = matrix_form(rf.diagram)
    return multiply(rs, mf.w0, mf.w_b)


def open_leaf_test(rf: RealFormData, rs: RootSystem) -> bool:
    """True iff open leaves exist: the codimension-zero class has a = 0."""
    cls = orbit_class(rf, rs, open_class_element(rf, rs))
    return cls["is_open"]
