"""Exact root-system and Weyl-group engine over the integers.

Roots are stored as integer coordinate vectors in the simple-root basis.
All matrices are tuples of tuples of Python ints, so every computation in
this module is exact; no floating point enters the combinatorics. Where many
Weyl elements are handled, as in the twisted-involution walk, they are held
as permutations of the root list instead (`RootPermutations`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
Perm = tuple[int, ...]  # images of root indices, see RootPermutations

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

DEFAULT_RANK_CAP = 8
DEFAULT_WEYL_CAP = 10**6


class UnsupportedCartanTypeError(ValueError):
    """Raised for (family, rank) pairs that are not a supported finite type."""


class WeylCapError(RuntimeError):
    """Raised when a walk over Weyl-group elements exceeds the configured cap:
    all of W for `enumerate_weyl`, the twisted involutions for
    `atlas.twisted_involutions`."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


# ---------------------------------------------------------------------------
# small exact matrix helpers

def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, m = len(a), len(b[0])
    k = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a: IntMatrix, v: Sequence[int]) -> IntVector:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def mat_transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# Cartan data

def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family == "B":
        # last simple root short
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)
    elif family == "C":
        # last simple root long
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)
    elif family == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4 (1-based)
        chain = [0] + list(range(2, rank))
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -1, -3)
    return a


def _root_lengths(family: str, rank: int) -> tuple[int, ...]:
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


_VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


@dataclass(frozen=True)
class RootSystem:
    """A finite irreducible root system in simple-root coordinates."""

    family: str
    rank: int
    cartan_matrix: IntMatrix
    positive_roots: tuple[IntVector, ...]
    form: IntMatrix  # symmetrized Cartan pairing, short roots of squared length 2

    @property
    def cartan_type(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def simple_roots(self) -> tuple[IntVector, ...]:
        return tuple(
            tuple(1 if i == j else 0 for j in range(self.rank))
            for i in range(self.rank)
        )

    def is_positive(self, v: Sequence[int]) -> bool:
        return any(x != 0 for x in v) and all(x >= 0 for x in v)

    def is_negative(self, v: Sequence[int]) -> bool:
        return any(x != 0 for x in v) and all(x <= 0 for x in v)

    @cached_property
    def permutations(self) -> RootPermutations:
        """The root-permutation tables, built on first use."""
        return RootPermutations(self)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element: an integer matrix with a word as witness.

    Identity of elements is matrix equality; the word is one expression in
    simple reflections (1-based indices) and is not itself canonical.
    """

    word: tuple[int, ...]
    matrix: IntMatrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def apply(self, v: Sequence[int]) -> IntVector:
        return mat_vec(self.matrix, v)


def build_root_system(family: str, rank: int, rank_cap: int = DEFAULT_RANK_CAP) -> RootSystem:
    """Construct a root system with positive roots from reflection closure.

    Positive roots are generated by repeatedly applying simple reflections to
    the simple roots and keeping the images with nonnegative coordinates; the
    resulting list is frozen in lexicographic order.
    """
    family = family.upper()
    if family not in _VALID_RANKS or not isinstance(rank, int) or not _VALID_RANKS[family](rank):
        raise UnsupportedCartanTypeError(f"unsupported Cartan type {family}{rank}")
    if rank > rank_cap:
        raise UnsupportedCartanTypeError(
            f"unsupported Cartan type {family}{rank}: rank exceeds cap {rank_cap}"
        )

    cartan = _cartan_matrix(family, rank)
    lengths = _root_lengths(family, rank)
    form = tuple(
        tuple(cartan[i][j] * lengths[j] for j in range(rank)) for i in range(rank)
    )

    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    positive = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[IntVector] = []
        for v in frontier:
            for i in range(rank):
                pairing = sum(v[j] * cartan[j][i] for j in range(rank))
                w = tuple(v[j] - (pairing if j == i else 0) for j in range(rank))
                if all(x >= 0 for x in w) and w not in positive:
                    positive.add(w)
                    new.append(w)
        frontier = new

    return RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(sorted(positive)),
        form=form,
    )


def identity_element(rs: RootSystem) -> WeylElement:
    return WeylElement(word=(), matrix=identity_matrix(rs.rank))


def reflect(rs: RootSystem, i: int) -> WeylElement:
    """Simple reflection s_i (1-based), acting on simple-root coordinates."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    k = i - 1
    n = rs.rank
    a = rs.cartan_matrix
    matrix = tuple(
        tuple(
            (1 if r == c else 0) - (a[c][k] if r == k else 0)
            for c in range(n)
        )
        for r in range(n)
    )
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
    return sum(1 for beta in rs.positive_roots if rs.is_negative(w.apply(beta)))


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
        i = next(
            (j for j in indices if rs.is_positive(w.apply(rs.simple_roots[j - 1]))),
            None,
        )
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
                    f"Weyl group of {rs.cartan_type} exceeds cap {cap}", partial_count=cap
                )
            yield w
            for g in gens:
                prod = multiply(rs, w, g)
                if prod.matrix not in seen:
                    seen.add(prod.matrix)
                    nxt.append(prod)
        queue = nxt


def preserves_form(rs: RootSystem, w: WeylElement) -> bool:
    """Check w^T * form * w == form (Weyl invariance of the pairing)."""
    m = mat_mul(mat_transpose(w.matrix), mat_mul(rs.form, w.matrix))
    return m == rs.form


# ---------------------------------------------------------------------------
# Weyl elements as permutations of the roots

class RootPermutations:
    """Weyl elements of one root system as permutations of its roots.

    `roots` lists the positive roots in the order of `RootSystem.positive_roots`
    and then their negatives in the same order, so index j is a positive root
    iff j < npos, and -roots[j] is roots[j + npos] or roots[j - npos]. A
    permutation p sends roots[j] to roots[p[j]]. Products are index lookups
    and the length is a count: no matrix arithmetic runs on this path.
    """

    def __init__(self, rs: RootSystem):
        a = rs.cartan_matrix
        positive = rs.positive_roots
        self.npos = len(positive)
        self.roots = positive + tuple(tuple(-x for x in r) for r in positive)
        self.index = {r: j for j, r in enumerate(self.roots)}
        self.simple = tuple(self.index[r] for r in rs.simple_roots)
        self.identity: Perm = tuple(range(len(self.roots)))
        self.reflections: tuple[Perm, ...] = tuple(
            tuple(self.index[_reflect_vector(a, k, r)] for r in self.roots)
            for k in range(rs.rank)
        )
        # Each positive root as (index of root - alpha_i, i), or (-1, i) for
        # alpha_i itself, so that w(root) = w(root - alpha_i) + w(alpha_i).
        # Lexicographic order puts root - alpha_i first.
        self._steps: list[tuple[int, int]] = []
        for r in positive:
            if sum(r) == 1:
                self._steps.append((-1, r.index(1)))
                continue
            i = next(i for i in range(rs.rank) if _minus(r, i) in self.index)
            self._steps.append((self.index[_minus(r, i)], i))

    def compose(self, p: Perm, q: Perm) -> Perm:
        """The product p·q: q acts first, as in `multiply`."""
        return tuple(map(p.__getitem__, q))

    def length(self, p: Perm) -> int:
        """The number of positive roots that p sends to negative ones."""
        npos = self.npos
        return sum(1 for x in p[:npos] if x >= npos)

    def perm(self, w: WeylElement) -> Perm:
        """The permutation of w, from the images of the simple roots (the
        columns of its matrix) by linearity."""
        columns = tuple(zip(*w.matrix))
        images: list[IntVector] = []
        for parent, i in self._steps:
            images.append(columns[i] if parent < 0
                          else tuple(x + y for x, y in zip(images[parent], columns[i])))
        npos = self.npos
        head = tuple(self.index[v] for v in images)
        return head + tuple(x + npos if x < npos else x - npos for x in head)

    def reduced_word(self, p: Perm) -> tuple[int, ...]:
        """The lexicographically least reduced word of p (1-based indices),
        built greedily: the least left descent s_i of p (p^-1 sends alpha_i to
        a negative root) comes first, then the word of s_i·p."""
        inv = [0] * len(p)
        for j, x in enumerate(p):
            inv[x] = j
        word: list[int] = []
        while True:
            i = next((i for i, a in enumerate(self.simple) if inv[a] >= self.npos), None)
            if i is None:
                return tuple(word)
            word.append(i + 1)
            inv = self.compose(inv, self.reflections[i])  # (s_i·p)^-1 = p^-1·s_i

    def element(self, p: Perm) -> WeylElement:
        """p as a WeylElement: its matrix and its lexicographically least
        reduced word."""
        matrix = tuple(zip(*(self.roots[p[a]] for a in self.simple)))
        return WeylElement(word=self.reduced_word(p), matrix=matrix)


def _reflect_vector(a: IntMatrix, k: int, v: IntVector) -> IntVector:
    """s_k(v) in simple-root coordinates, as the matrix of `reflect` acts."""
    pairing = sum(v[c] * a[c][k] for c in range(len(v)))
    return tuple(x - pairing if t == k else x for t, x in enumerate(v))


def _minus(v: IntVector, i: int) -> IntVector:
    return tuple(x - 1 if t == i else x for t, x in enumerate(v))
