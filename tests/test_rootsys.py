import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafatlas import rootsys
from leafatlas.rootsys import UnsupportedCartanTypeError, build_root_system

from leafatlas.atlas import twisted_involutions
from leafatlas.satake import builtin_catalog, real_form_data

import catalog_reference as cr
from exact_rank import rational_rank
import weyl_matrices as wm

# hand tables for the rank <= 2 systems (independent of reflection closure)
A2_POSITIVE = {(1, 0), (0, 1), (1, 1)}
B2_POSITIVE = {(1, 0), (0, 1), (1, 1), (1, 2)}
G2_POSITIVE = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}  # first node short


def test_rank_one():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)


@pytest.mark.parametrize(
    "family,rank,expected",
    [("A", 2, A2_POSITIVE), ("B", 2, B2_POSITIVE), ("G", 2, G2_POSITIVE)],
)
def test_small_positive_root_tables(family, rank, expected):
    rs = build_root_system(family, rank)
    assert set(rs.positive_roots) == expected


@pytest.mark.parametrize(
    "family,rank,count",
    [
        ("A", 3, 6), ("A", 4, 10),
        ("B", 3, 9), ("B", 4, 16),
        ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
        ("D", 4, 12),
        ("F", 4, 24),
        ("E", 6, 36),
    ],
)
def test_positive_root_counts(family, rank, count):
    # closed-form counts: r(r+1)/2, r^2, r(r-1), 24, 36
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == count


def test_positive_roots_sorted_deterministically():
    rs = build_root_system("B", 3)
    assert list(rs.positive_roots) == sorted(rs.positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 3), ("E", 5), ("H", 2), ("G", 3)])
def test_unsupported_types(family, rank):
    with pytest.raises(UnsupportedCartanTypeError):
        build_root_system(family, rank)


def test_rank_cap():
    with pytest.raises(UnsupportedCartanTypeError, match="cap"):
        build_root_system("A", 9)


def test_reflect_rank_one_is_minus_one():
    rs = build_root_system("A", 1)
    assert wm.reflect(rs, 1).matrix == ((-1,),)


def test_reflect_a2_simple_on_other_root():
    rs = build_root_system("A", 2)
    s1 = wm.reflect(rs, 1)
    assert s1.apply((0, 1)) == (1, 1)
    assert s1.apply((1, 0)) == (-1, 0)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_simple_reflections_are_involutions(family, rank):
    rs = build_root_system(family, rank)
    for i in range(1, rank + 1):
        s = wm.reflect(rs, i)
        assert wm.mat_mul(s.matrix, s.matrix) == wm.identity_matrix(rank)
        assert wm.length(rs, s) == 1


def test_length_identity_element():
    rs = build_root_system("B", 2)
    assert wm.length(rs, wm.identity_element(rs)) == 0


def _perm_of_word(n, word):
    perm = list(range(n))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def _perm_inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def test_length_matches_permutation_inversions_a3():
    # independent oracle: type A length equals inversion count of the permutation
    rs = build_root_system("A", 3)
    for word in itertools.product([1, 2, 3], repeat=4):
        w = wm.from_word(rs, word)
        assert wm.length(rs, w) == _perm_inversions(_perm_of_word(4, word))


def test_longest_element_empty_subset():
    rs = build_root_system("B", 3)
    assert wm.longest_element(rs, ()) == wm.identity_element(rs)


def test_longest_element_a1():
    rs = build_root_system("A", 1)
    assert wm.longest_element(rs) == wm.reflect(rs, 1)


def test_longest_element_a2_by_exhaustion():
    # independent oracle: brute-force closure of W(A2) under generators
    rs = build_root_system("A", 2)
    gens = [wm.reflect(rs, 1).matrix, wm.reflect(rs, 2).matrix]
    group = {wm.identity_matrix(2)}
    frontier = list(group)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                p = wm.mat_mul(m, g)
                if p not in group:
                    group.add(p)
                    new.append(p)
        frontier = new
    assert len(group) == 6

    w0 = wm.longest_element(rs)
    assert wm.length(rs, w0) == 3
    assert len(w0.word) == 3  # reduced word
    # matrix is minus the diagram flip
    assert w0.matrix == ((0, -1), (-1, 0))
    # w0 is the unique length maximizer over the whole group
    all_lengths = {m: wm.length(rs, wm.WeylElement(word=(), matrix=m)) for m in group}
    assert max(all_lengths.values()) == 3
    assert [m for m, l in all_lengths.items() if l == 3] == [w0.matrix]


def test_longest_element_parabolic_subset():
    rs = build_root_system("A", 3)
    wb = wm.longest_element(rs, {1, 3})
    assert wm.length(rs, wb) == 2
    assert wb.apply((1, 0, 0)) == (-1, 0, 0)
    assert wb.apply((0, 0, 1)) == (0, 0, -1)


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("A", 3, 24), ("B", 3, 48),
     ("G", 2, 12), ("D", 4, 192), ("F", 4, 1152)],
)
def test_weyl_group_orders(family, rank, order):
    rs = build_root_system(family, rank)
    elements = list(wm.enumerate_weyl(rs))
    assert len(elements) == order
    assert len({w.matrix for w in elements}) == order


def test_enumeration_deterministic():
    rs = build_root_system("B", 2)
    first = [w.word for w in wm.enumerate_weyl(rs)]
    second = [w.word for w in wm.enumerate_weyl(rs)]
    assert first == second


def test_enumeration_cap():
    rs = build_root_system("A", 3)
    with pytest.raises(wm.WeylCapError) as err:
        list(wm.enumerate_weyl(rs, cap=10))
    assert err.value.partial_count == 10


def test_bfs_words_are_reduced():
    rs = build_root_system("B", 2)
    for w in wm.enumerate_weyl(rs):
        assert len(w.word) == wm.length(rs, w)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_length_bounded_by_longest(family, rank):
    rs = build_root_system(family, rank)
    w0 = wm.longest_element(rs)
    lmax = wm.length(rs, w0)
    for w in wm.enumerate_weyl(rs):
        l = wm.length(rs, w)
        assert l <= lmax
        assert (l == lmax) == (w == w0)


def test_length_subadditive_and_inverse_invariant():
    rs = build_root_system("A", 3)
    elements = list(wm.enumerate_weyl(rs))
    import random

    rnd = random.Random(20240)
    for _ in range(200):
        u, v = rnd.choice(elements), rnd.choice(elements)
        assert wm.length(rs, wm.multiply(rs, u, v)) <= wm.length(rs, u) + wm.length(rs, v)
        assert wm.length(rs, wm.inverse(rs, u)) == wm.length(rs, u)


@pytest.mark.parametrize("family,rank", [("B", 2), ("G", 2), ("C", 3)])
def test_matrices_preserve_form(family, rank):
    rs = build_root_system(family, rank)
    assert wm.form(rs) == wm.mat_transpose(wm.form(rs))
    for w in wm.enumerate_weyl(rs):
        assert wm.preserves_form(rs, w)


def test_reflection_closure_permutes_root_set():
    rs = build_root_system("C", 3)
    full = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
    for i in range(1, 4):
        s = wm.reflect(rs, i)
        assert {s.apply(r) for r in full} == full


def test_dimension_count_matches_su_n():
    # dim su(n) = n^2 - 1 must equal rank + 2 * #positive for type A(n-1)
    for n in range(2, 6):
        rs = build_root_system("A", n - 1)
        assert n * n - 1 == rs.rank + 2 * len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_root_permutations_agree_with_matrices(family, rank):
    rs = build_root_system(family, rank)
    k = rs.permutations
    assert [tuple(s) for s in k.reflections] == [wm.perm_of(rs, wm.reflect(rs, i))
                                                  for i in range(1, rank + 1)]
    elements = list(wm.enumerate_weyl(rs))
    for w in elements:
        p = wm.perm_of(rs, w)
        assert sum(x >= k.npos for x in p[:k.npos]) == wm.length(rs, w)
        assert k.trace(p) == sum(w.matrix[i][i] for i in range(rank))
        back = wm.element(rs, p)
        # the lexicographically least reduced word is the breadth-first word
        assert back == w and back.word == w.word
        # and the walk over the heights of p^-1(alpha_j) reads the same word
        assert tuple(k.word_from_heights([k.heights[p.index(a)] for a in k.simple])) == w.word
    import random

    rnd = random.Random(7)
    for _ in range(100):
        u, v = rnd.choice(elements), rnd.choice(elements)
        product = wm.perm_of(rs, wm.multiply(rs, u, v))
        got = k.compose(bytes(wm.perm_of(rs, u)), bytes(wm.perm_of(rs, v)))
        assert tuple(got) == product


# every catalog form; split A5, B5, C5, D6, G2, F4 and E6; quasi-split E6 (EII)
WORD_FORMS = builtin_catalog() + tuple(
    [cr.diagram(f"{family}{rank}", family, rank) for family, rank in
     (("A", 5), ("B", 5), ("C", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6))]
    + [cr.diagram("EII", "E", 6, arrows=[(1, 6), (3, 5)])])


@pytest.mark.parametrize("sd", WORD_FORMS, ids=lambda s: s.label)
def test_reduced_words_of_every_class_match_the_permutation_greedy(sd):
    # the walk reads each class's word off the heights of psi^-1(alpha_j);
    # each equals the greedy on the whole permutation psi = v w_b, with v
    # taken from the reference walk
    rs, rf = sd.root_system(), real_form_data(sd)
    expected = sorted((codim_y, wm.reduced_word(rs, wm.product(v, rf.w_b.perm)))
                      for v, codim_y, _ in wm.upward_walk(rf, rs))
    got = sorted((codim_y, tuple(word)) for codim_y, word, _ in twisted_involutions(rf, rs))
    assert got == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([7, 8]), st.data())
def test_reduced_word_of_random_e7_e8_elements(rank, data):
    rs = build_root_system("E", rank)
    k = rs.permutations
    letters = data.draw(st.lists(st.integers(1, rank), max_size=80))
    p = k.identity
    for i in letters:
        p = k.compose(p, k.reflections[i - 1])
    # the word the walk reads off the heights of the roots p^-1(alpha_j)
    word = k.word_from_heights([k.heights[p.index(a)] for a in k.simple])
    assert tuple(word) == wm.reduced_word(rs, p)
    assert len(word) == sum(x >= k.npos for x in p[:k.npos])
    back = k.identity
    for i in word:
        back = k.compose(back, k.reflections[i - 1])
    assert back == p


IRREDUCIBLE_TYPES = [(f, r) for f in "ABCD" for r in range(1, 9)
                     if rootsys._VALID_RANKS[f](r)] + [("E", 6), ("E", 7), ("E", 8),
                                                       ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", IRREDUCIBLE_TYPES)
def test_longest_element_matches_the_matrix_greedy(family, rank):
    # every irreducible type of rank <= 8, and each black set of the catalog
    rs = build_root_system(family, rank)
    blacks = {sd.black for sd in builtin_catalog() if (sd.family, sd.rank) == (family, rank)}
    for subset in [None] + sorted(blacks, key=sorted):
        got, ref = rootsys.longest_element(rs, subset), wm.longest_element(rs, subset)
        assert tuple(got.word) == ref.word
        assert rs.permutations.images(got.perm) == wm.mat_transpose(ref.matrix)


@pytest.mark.parametrize("family,rank", IRREDUCIBLE_TYPES)
def test_tables_match_the_two_pass_reflection_closure(family, rank):
    # the roots (the positive ones first), each s_k's table and the heights,
    # against the closure that reflects every coordinate of every root twice
    rs = build_root_system(family, rank)
    roots, reflections, heights = wm.root_tables(rs)
    k = rootsys.RootPermutations(rs)
    assert k.roots == roots and k.heights == heights
    assert [tuple(s) for s in k.reflections] == list(reflections)
    for alpha, s in zip(k.simple, k.reflections):
        # an involution that sends alpha_k to -alpha_k
        assert k.compose(s, s) == k.identity
        assert s[alpha] == alpha + k.npos and s[alpha + k.npos] == alpha


# every catalog form, quasi-split E6 (EII) and D4..D8 with the arrow (n-1, n)
AUTOMORPHISM_FORMS = builtin_catalog() + tuple(
    [cr.diagram("EII", "E", 6, arrows=[(1, 6), (3, 5)])]
    + [cr.diagram(f"D{n} ({n - 1},{n})", "D", n, arrows=[(n - 1, n)]) for n in range(4, 9)])


@pytest.mark.parametrize("sd", AUTOMORPHISM_FORMS, ids=lambda s: s.label)
def test_automorphism_matches_the_root_by_root_generator(sd):
    rs, sigma = sd.root_system(), real_form_data(sd).sigma
    roots = wm.root_tables(rs)[0]
    assert tuple(rs.permutations.automorphism(sigma)) == wm.automorphism(roots, sigma)


# every type up to RANK_CAP, with C2 = B2 once
CAPACITY_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                  + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("family,rank", CAPACITY_TYPES)
def test_root_permutations_are_byte_tables(family, rank):
    # every table is bytes of length 2N (240 on E8, the largest), and the
    # translate product equals the tuple product index by index on seeded
    # random pairs of elements
    import random

    rs = build_root_system(family, rank)
    k = rootsys.RootPermutations(rs)
    size = 2 * len(rs.positive_roots)
    assert size == 240 if family == "E" and rank == 8 else size < 240
    tables = [k.identity, *k.reflections, k.automorphism(range(rank))]
    assert all(type(p) is bytes and len(p) == size for p in tables)
    assert k.automorphism(range(rank)) == k.identity
    assert len(k.identity + k.pad) == 256
    rnd = random.Random(rank)

    def element():
        p = tuple(k.identity)
        for i in rnd.choices(range(rank), k=rnd.randrange(3 * rank)):
            p = wm.product(p, tuple(k.reflections[i]))
        return p

    for _ in range(20):
        p, q = element(), element()
        got = k.compose(bytes(p), bytes(q))
        assert type(got) is bytes and tuple(got) == tuple(p[i] for i in q)


def test_more_than_256_roots_are_refused(monkeypatch):
    # A15 has 240 roots and A16 272, which no bytes table can index
    monkeypatch.setattr(rootsys, "RANK_CAP", 16)
    assert len(rootsys.RootPermutations(build_root_system("A", 15)).identity) == 240
    with pytest.raises(ValueError, match="272 roots"):
        rootsys.RootPermutations(build_root_system("A", 16))


@st.composite
def low_rank_int_matrices(draw):
    # a product (rows x k)(k x cols) has rank <= k, so zero columns, repeated
    # rows and rank deficiency all come up, not only full rank
    rows, cols, k = draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 6))
    entries = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(low_rank_int_matrices())
def test_integer_rank_equals_fraction_rank(rows):
    # Fraction entries take the Gauss-Jordan path, int entries the
    # fraction-free one
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    assert rational_rank(rows) == rational_rank(as_fractions)
