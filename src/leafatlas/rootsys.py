"""Exact root-system and Weyl-group engine over the integers.

Roots are stored as integer coordinate vectors in the simple-root basis, so
every computation in this module is exact; no floating point enters the
combinatorics. A Weyl element is a permutation of the root list
(`RootPermutations`): products are index lookups, reduced words come from
root heights, and the images of the simple roots, which are the columns of
its matrix on simple-root coordinates, are read off the permutation as a
view.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
Perm = tuple[int, ...]  # images of root indices, see RootPermutations

RANK_CAP = 8
DEFAULT_WEYL_CAP = 10**6


class UnsupportedCartanTypeError(ValueError):
    """Raised for (family, rank) pairs that are not a supported finite type."""


class WeylCapError(RuntimeError):
    """Raised when the twisted-involution walk (`atlas.twisted_involutions`)
    visits more elements than its configured cap."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


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


_VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


class RootSystem(NamedTuple):
    """A finite irreducible root system in simple-root coordinates."""

    family: str
    rank: int
    cartan_matrix: IntMatrix
    positive_roots: tuple[IntVector, ...]

    @property
    def simple_roots(self) -> tuple[IntVector, ...]:
        return tuple(
            tuple(1 if i == j else 0 for j in range(self.rank))
            for i in range(self.rank)
        )

    @property
    def permutations(self) -> RootPermutations:
        """The root-permutation tables, built on first use and shared by
        every RootSystem of the same type, which determines its roots."""
        key = self.family, self.rank
        k = _PERMUTATIONS.get(key)
        if k is None:
            k = _PERMUTATIONS[key] = RootPermutations(self)
        return k


class WeylElement(NamedTuple):
    """A Weyl-group element: its permutation of the roots (`RootPermutations`)
    with a word as witness.

    Identity of elements is equality of permutations; the word is one
    expression in simple reflections (1-based indices) and is not itself
    canonical, so equality and the hash read `perm` alone.
    """

    word: tuple[int, ...]
    perm: Perm

    def __eq__(self, other: object) -> bool:
        return type(other) is WeylElement and self.perm == other.perm

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.perm)


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct a root system with positive roots from reflection closure.

    Positive roots are generated by repeatedly applying simple reflections to
    the simple roots and keeping the images with nonnegative coordinates; the
    resulting list is frozen in lexicographic order.
    """
    family = family.upper()
    if family not in _VALID_RANKS or not isinstance(rank, int) or not _VALID_RANKS[family](rank):
        raise UnsupportedCartanTypeError(f"unsupported Cartan type {family}{rank}")
    if rank > RANK_CAP:
        raise UnsupportedCartanTypeError(
            f"unsupported Cartan type {family}{rank}: rank exceeds cap {RANK_CAP}"
        )

    cartan = _cartan_matrix(family, rank)

    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    positive = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[IntVector] = []
        for v in frontier:
            for i in range(rank):
                w = _reflect_vector(cartan, i, v)
                if min(w) >= 0 and w not in positive:
                    positive.add(w)
                    new.append(w)
        frontier = new

    return RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(sorted(positive)),
    )


def longest_element(rs: RootSystem, subset: Iterable[int] | None = None) -> WeylElement:
    """Longest element of the parabolic subgroup generated by `subset`.

    `subset` holds 1-based simple indices; None or the full set gives the
    longest element of the whole group. The word is built greedily, each
    step appending the least s_i of the subset with w(alpha_i) > 0, so it is
    reduced.
    """
    indices = sorted(set(subset)) if subset is not None else list(range(1, rs.rank + 1))
    for i in indices:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    k = rs.permutations
    w, word = k.identity, []
    while True:
        i = next((j for j in indices if w[k.simple[j - 1]] < k.npos), None)
        if i is None:
            return WeylElement(word=tuple(word), perm=w)
        word.append(i)
        w = k.compose(w, k.reflections[i - 1])


# ---------------------------------------------------------------------------
# Weyl elements as permutations of the roots

_PERMUTATIONS: dict[tuple[str, int], RootPermutations] = {}  # by (family, rank)


class RootPermutations:
    """Weyl elements of one root system as permutations of its roots.

    `roots` lists the positive roots in the order of `RootSystem.positive_roots`
    and then their negatives in the same order, so index j is a positive root
    iff j < npos, and -roots[j] is roots[j + npos] or roots[j - npos]. A
    permutation p sends roots[j] to roots[p[j]]. Products are index lookups:
    no matrix arithmetic runs on this path.
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
        self.heights = tuple(sum(r) for r in self.roots)
        # (j, a_ji) for each Cartan neighbour j of each node i
        self._neighbours = tuple(
            tuple((j, a[j][i]) for j in range(rs.rank) if j != i and a[j][i])
            for i in range(rs.rank)
        )

    def compose(self, p: Perm, q: Perm) -> Perm:
        """The product p·q: q acts first."""
        return tuple(map(p.__getitem__, q))

    def word_from_heights(self, heights: list[int]) -> tuple[int, ...]:
        """The lexicographically least reduced word of the p with heights[j]
        the height of p^-1(alpha_j), built greedily: the least left descent
        s_i of p (a negative h_i) first, then the word of s_i·p. Since
        (s_i·p)^-1(alpha_j) = p^-1(alpha_j - a_ji alpha_i), a step negates h_i
        and subtracts a_ji·h_i from each Cartan neighbour h_j, in place; below
        i only those can turn negative, so the search resumes at the least of
        them."""
        word, i = [], 0
        while i < len(heights):
            h = heights[i]
            if h >= 0:
                i += 1
                continue
            word.append(i + 1)
            heights[i] = -h
            after = i + 1
            for j, a_ji in self._neighbours[i]:
                heights[j] -= a_ji * h
                if j < after and heights[j] < 0:
                    after = j
            i = after
        return tuple(word)

    def images(self, p: Perm) -> tuple[IntVector, ...]:
        """p(alpha_i) for each simple root alpha_i: the columns of the matrix
        of p on simple-root coordinates."""
        return tuple(self.roots[p[a]] for a in self.simple)

    def trace(self, p: Perm) -> int:
        """The trace of the matrix of p on simple-root coordinates."""
        return sum(self.roots[p[a]][i] for i, a in enumerate(self.simple))

    def automorphism(self, sigma: Sequence[int]) -> Perm:
        """The permutation of the diagram automorphism sigma, which sends
        alpha_i to alpha_sigma(i) (0-based node indices)."""
        inv = sorted(range(len(sigma)), key=sigma.__getitem__)
        return tuple(self.index[tuple(r[i] for i in inv)] for r in self.roots)


def _reflect_vector(a: Sequence[Sequence[int]], k: int, v: IntVector) -> IntVector:
    """s_k(v) in simple-root coordinates."""
    pairing = 0
    for c, x in enumerate(v):
        if x:
            pairing += x * a[c][k]
    return v[:k] + (v[k] - pairing,) + v[k + 1:]

