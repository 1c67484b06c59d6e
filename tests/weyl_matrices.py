"""The Weyl group as integer matrices on simple-root coordinates: the
differential reference for the root permutations of `leafatlas.rootsys` and
for the tables they are built from (`root_tables`, `automorphism`), for
the involution data of `leafatlas.satake`, and for the twisted-involution
walk of `leafatlas.atlas` and the classes it carries, whose 11 fields are
built here directly from each v = psi w_b (`reference_recorder`), as the
reference for `atlas.class_fields`.

Every matrix is a tuple of tuples of Python ints, so every computation here
is exact. Imported by the test modules; pytest does not collect it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from leafatlas.rootsys import IntMatrix, IntVector, RootSystem
from leafatlas.satake import RealFormData, SatakeDiagram, real_form_data

FracVector = tuple[Fraction, ...]

#: Most elements `enumerate_weyl` yields before it raises; |W(E7)| = 2,903,040
#: exceeds it.
DEFAULT_WEYL_CAP = 10**6


class WeylCapError(RuntimeError):
    """Raised when `enumerate_weyl` visits more elements than its cap."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


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
# the root tables by brute force

def reflect_vector(a: IntMatrix, k: int, v: IntVector) -> IntVector:
    """s_k(v) in simple-root coordinates, paired over every coordinate of v."""
    pairing = sum(x * a[c][k] for c, x in enumerate(v))
    return v[:k] + (v[k] - pairing,) + v[k + 1:]


def root_tables(rs: RootSystem) -> tuple[tuple[IntVector, ...], tuple[tuple[int, ...], ...],
                                         tuple[int, ...]]:
    """(roots, reflections, heights) by two passes of `reflect_vector`: the
    closure of the simple roots under every simple reflection, keeping the
    images with nonnegative coordinates, sorted, then with their negatives
    appended; then every one of those roots reflected again to fill each
    s_k's table. The reference for `build_root_system` and the tables of
    `RootPermutations`, which pair each positive root once with each coroot."""
    a, rank = rs.cartan_matrix, rs.rank
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    positive, frontier = set(simple), simple
    while frontier:
        new: list[IntVector] = []
        for v in frontier:
            for k in range(rank):
                w = reflect_vector(a, k, v)
                if min(w) >= 0 and w not in positive:
                    positive.add(w)
                    new.append(w)
        frontier = new
    ordered = tuple(sorted(positive))
    roots = ordered + tuple(tuple(-x for x in r) for r in ordered)
    index = {r: j for j, r in enumerate(roots)}
    reflections = tuple(tuple(index[reflect_vector(a, k, r)] for r in roots)
                        for k in range(rank))
    return roots, reflections, tuple(sum(r) for r in roots)


def automorphism(roots: Sequence[IntVector], sigma: Sequence[int]) -> tuple[int, ...]:
    """The permutation of `roots` by the diagram automorphism sigma (alpha_i
    to alpha_sigma(i), 0-based), root by root: the reference for
    `RootPermutations.automorphism`."""
    index = {r: j for j, r in enumerate(roots)}
    inv = sorted(range(len(sigma)), key=sigma.__getitem__)
    return tuple(index[tuple(r[i] for i in inv)] for r in roots)


# ---------------------------------------------------------------------------
# between the two models

def matrix_of(rs: RootSystem, p: Sequence[int]) -> IntMatrix:
    """The matrix of a root permutation: its columns are the images of the
    simple roots."""
    return mat_transpose(rs.permutations.images(p))


def perm_of(rs: RootSystem, w: WeylElement) -> tuple[int, ...]:
    """The root permutation of w, root by root, as a tuple."""
    k = rs.permutations
    return tuple(k.index[w.apply(r)] for r in k.roots)


def product(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The product p·q (q acts first) as a tuple, index by index: the
    reference for `RootPermutations.compose`, independent of its bytes
    tables."""
    return tuple(p[i] for i in q)


def reduced_word(rs: RootSystem, p: Sequence[int]) -> tuple[int, ...]:
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
        inv = product(inv, k.reflections[i])


def element(rs: RootSystem, p: Sequence[int]) -> WeylElement:
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


def reference_recorder(rf: RealFormData, rs: RootSystem):
    """record(v, codim_y, a): the fields of the class of psi = v w_b as one
    dict, each computed from v and the form, with the trace read off
    v(alpha_sigma(i)): the reference for `atlas.class_fields`."""
    k = rs.permutations
    rank, roots, dim_x = rs.rank, k.roots, rf.dim_x
    tau_heights = [k.heights[t] for t in rf.tau_star]  # the height of tau*(root j)
    alpha_sigma = [k.simple[j] for j in rf.sigma]
    # an orbit has dimension 2N - codim_Y, and each of its leaves dim k0 - t less
    leaf_dim_at_codim_0 = 2 * k.npos - rf.dim_k0

    def record(v: Sequence[int], codim_y: int, a: int) -> dict:
        t = rank - a
        images = [v[x] for x in alpha_sigma]  # v(alpha_sigma(i))
        # psi tau* = v w_b w_b sigma = v sigma is an involution, so a - t is its trace
        assert a - t == sum(roots[x][i] for i, x in enumerate(images))
        # psi^-1(alpha_j) = w_b sigma v sigma(alpha_j) = tau*(v(alpha_sigma(j)))
        word = k.word_from_heights([tau_heights[x] for x in images])
        leaf_dim = leaf_dim_at_codim_0 - codim_y + t
        leaf_codim = dim_x - leaf_dim
        assert leaf_codim == a + codim_y
        return {
            "a": a,
            "codim_Y": codim_y,
            "dims_in_range": 0 <= leaf_dim <= dim_x,
            "family_dim": a,
            "is_closed_class": not word,
            "is_open": codim_y == 0 and a == 0,
            "leaf_codim": leaf_codim,
            "leaf_dim": leaf_dim,
            "parity_ok": leaf_dim % 2 == 0,
            "psi_word": word,
            "t": t,
        }

    return record


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
    return reference_recorder(rf, rs)(v, codim_y, (rs.rank + mat_trace(m)) // 2)


def upward_walk(rf: RealFormData, rs: RootSystem) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(v, codim_Y, a) for every twisted involution psi = v w_b, by the walk
    that keeps every child: the reference for the canonical-parent walk of
    `twisted_involutions`.

    It walks v = psi w_b up from the identity by v -> s v sigma(s), or
    v -> s v when s v sigma(s) = v, along every simple s that is not a left
    descent of v, and drops a v reached before. Classes are visited in order
    of l(v), so only the two layers above the current one are remembered.
    Permutations are tuples, multiplied by `product`.
    """
    k = rs.permutations
    npos = k.npos
    twisted = [(tuple(k.reflections[i]), tuple(k.reflections[j]), k.simple[i], k.simple[j])
               for i, j in enumerate(rf.sigma)]
    a_identity = sum(1 for i, j in enumerate(rf.sigma) if i <= j)
    # layers[d] maps each v of length ell + d found so far to its a
    layers: list[dict[tuple[int, ...], int]] = [{tuple(k.identity): a_identity}, {}, {}]
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
                sv = product(s, v)
                # s v sigma(s) = v iff v sigma(s) v^-1, the reflection in
                # v(alpha_sigma(i)) > 0, is s_i, iff v(alpha_sigma(i)) = alpha_i
                if image == alpha:
                    layers[0].setdefault(sv, a - 1)
                else:
                    layers[1].setdefault(product(sv, s_sigma), a)
        ell += 1


def upward_walk_records(rf: RealFormData, rs: RootSystem) -> list[dict]:
    """The class fields of `upward_walk` (`reference_recorder`), sorted as `atlas`
    sorts its classes."""
    record = reference_recorder(rf, rs)
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
