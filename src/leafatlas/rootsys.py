"""Exact root-system and Weyl-group engine over the integers.

Roots are stored as integer coordinate vectors in the simple-root basis, so
every computation in this module is exact; no floating point enters the
combinatorics. A Weyl element is a permutation of the root list
(`RootPermutations`), held as a `bytes` table: a product is one
`bytes.translate`, reduced words come from root heights as `bytes` too
(letter i is the byte i), and the images of the simple roots, which are the
columns of its matrix on simple-root coordinates, are read off the
permutation as a view.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
Perm = bytes  # images of root indices, see RootPermutations
Word = bytes  # 1-based simple indices, one byte a letter

# E8, with 240 roots, is the largest system of rank <= RANK_CAP, so every
# permutation of the roots is a table of at most 256 bytes
RANK_CAP = 8


class UnsupportedCartanTypeError(ValueError):
    """Raised for (family, rank) pairs that are not a supported finite type."""


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
    expression in simple reflections (a `Word`) and is not itself
    canonical, so equality and the hash read `perm` alone.
    """

    word: Word
    perm: Perm

    def __eq__(self, other: object) -> bool:
        return type(other) is WeylElement and self.perm == other.perm

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.perm)


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct a root system with positive roots from reflection closure.

    Each new root r is paired once with each simple coroot; a negative
    <r, alpha_k^vee> makes s_k(r) = r - <r, alpha_k^vee> alpha_k a higher
    positive root. The resulting list is frozen in lexicographic order.
    """
    family = family.upper()
    if family not in _VALID_RANKS or not isinstance(rank, int) or not _VALID_RANKS[family](rank):
        raise UnsupportedCartanTypeError(f"unsupported Cartan type {family}{rank}")
    if rank > RANK_CAP:
        raise UnsupportedCartanTypeError(
            f"unsupported Cartan type {family}{rank}: rank exceeds cap {RANK_CAP}"
        )

    cartan = tuple(tuple(row) for row in _cartan_matrix(family, rank))
    neighbours = _neighbours(cartan)
    frontier = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    positive = set(frontier)
    while frontier:
        new: list[IntVector] = []
        for r in frontier:
            for k, column in enumerate(neighbours):
                pairing = 2 * r[k]
                for j, a_jk in column:
                    pairing += a_jk * r[j]
                if pairing < 0:
                    w = r[:k] + (r[k] - pairing,) + r[k + 1:]
                    if w not in positive:
                        positive.add(w)
                        new.append(w)
        frontier = new

    return RootSystem(family=family, rank=rank, cartan_matrix=cartan,
                      positive_roots=tuple(sorted(positive)))


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
    w, word = k.identity, bytearray()
    while True:
        i = next((j for j in indices if w[k.simple[j - 1]] < k.npos), None)
        if i is None:
            return WeylElement(word=bytes(word), perm=w)
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
    permutation p is a `bytes` table that sends roots[j] to roots[p[j]].
    Padded with the bytes 2N..255 (`pad`), p is a translation table, so the
    product p·q is `q.translate(p + pad)`: no matrix arithmetic, and no
    Python loop over the roots, runs on this path.
    """

    def __init__(self, rs: RootSystem):
        positive = rs.positive_roots
        npos = self.npos = len(positive)
        if 2 * npos > 256:
            raise ValueError(f"{rs.family}{rs.rank} has {2 * npos} roots; a root "
                             "permutation is a bytes table of at most 256 entries")
        self.roots = positive + tuple(tuple(-x for x in r) for r in positive)
        self.index = index = {r: j for j, r in enumerate(self.roots)}
        self.simple = tuple(index[r] for r in rs.simple_roots)
        self.identity: Perm = bytes(range(2 * npos))
        self.pad = bytes(range(2 * npos, 256))
        self._neighbours = _neighbours(rs.cartan_matrix)
        negate = bytes(range(npos, 2 * npos)) + bytes(range(npos)) + self.pad  # j <-> -j
        reflections = []
        for k, column in enumerate(self._neighbours):
            images = []
            for r in positive:  # s_k(r) = r - <r, alpha_k^vee> alpha_k; s_k(alpha_k) = -alpha_k
                pairing = 2 * r[k]
                for j, a_jk in column:
                    pairing += a_jk * r[j]
                images.append(index[r[:k] + (r[k] - pairing,) + r[k + 1:]])
            reflections.append(bytes(images) + bytes(images).translate(negate))  # s(-r) = -s(r)
        self.reflections: tuple[Perm, ...] = tuple(reflections)
        self.heights = tuple(sum(r) for r in self.roots)

    def compose(self, p: Perm, q: Perm) -> Perm:
        """The product p·q: q acts first."""
        return q.translate(p + self.pad)

    def word_from_heights(self, heights: list[int]) -> Word:
        """The lexicographically least reduced word of the p with heights[j]
        the height of p^-1(alpha_j), built greedily: the least left descent
        s_i of p (a negative h_i) first, then the word of s_i·p. Since
        (s_i·p)^-1(alpha_j) = p^-1(alpha_j - a_ji alpha_i), a step negates h_i
        and subtracts a_ji·h_i from each Cartan neighbour h_j, in place; below
        i only those can turn negative, so the search resumes at the least of
        them."""
        word, i = bytearray(), 0
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
        return bytes(word)

    def images(self, p: Perm) -> tuple[IntVector, ...]:
        """p(alpha_i) for each simple root alpha_i: the columns of the matrix
        of p on simple-root coordinates."""
        return tuple(self.roots[p[a]] for a in self.simple)

    def trace(self, p: Perm) -> int:
        """The trace of the matrix of p on simple-root coordinates."""
        return sum(self.roots[p[a]][i] for i, a in enumerate(self.simple))

    def automorphism(self, sigma: Sequence[int]) -> Perm:
        """The permutation of the diagram automorphism sigma, which sends
        alpha_i to alpha_sigma(i) (0-based node indices), and -r to -sigma(r)."""
        if all(i == j for i, j in enumerate(sigma)):
            return self.identity
        inv = sorted(range(len(sigma)), key=sigma.__getitem__)
        images = [self.index[tuple(r[i] for i in inv)] for r in self.roots[:self.npos]]
        return bytes(images + [j + self.npos for j in images])


def _neighbours(a: IntMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(j, a_jk) for each Cartan neighbour j of each node k: column k off its diagonal 2."""
    return tuple(tuple((j, row[k]) for j, row in enumerate(a) if j != k and row[k])
                 for k in range(len(a)))
