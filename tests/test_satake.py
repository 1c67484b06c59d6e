import itertools
from fractions import Fraction

import pytest

from leafatlas import rootsys, satake
from leafatlas.satake import (
    CatalogParseError,
    CompactFormError,
    InconsistentSatakeError,
    SatakeDiagram,
    SatakeError,
    builtin_catalog,
    load_catalog,
    real_form_data,
    validate,
)

import catalog_reference as cr
import weyl_matrices as wm

BY_LABEL = cr.by_label()


def diagram(label):
    return BY_LABEL[label]


# ---------------------------------------------------------------------------
# catalog text format

def test_parse_basic_stanzas():
    text = """
name=sl(2,R); type=A1; black={}; arrows={}

name=su(2,1); type=A2; black={}; arrows={(1,2)}

name=su(3,1); type=A3; black={2}; arrows={(1,3)}
"""
    entries = load_catalog(text)
    assert [e.label for e in entries] == ["sl(2,R)", "su(2,1)", "su(3,1)"]
    assert entries[1].arrows == frozenset({(1, 2)})
    assert entries[2].black == frozenset({2})


def test_parse_separate_rank_key():
    (entry,) = load_catalog("name=x; type=B; rank=3; black={3}")
    assert (entry.family, entry.rank, entry.black) == ("B", 3, frozenset({3}))


def test_parse_unknown_key_reports_line():
    with pytest.raises(CatalogParseError, match="line 3.*color"):
        load_catalog("\n\nname=x; type=A2; color=red")


def test_parse_duplicate_label():
    with pytest.raises(CatalogParseError, match="duplicate label"):
        load_catalog("name=x; type=A1\n\nname=x; type=A2")


def test_parse_rank_mismatch():
    with pytest.raises(CatalogParseError) as err:
        load_catalog("name=x; type=A2; rank=3")
    assert str(err.value) == "line 1: rank=3 disagrees with type=A2"


@pytest.mark.parametrize("stanza,message", [
    ("name=x; type=A", "line 3: missing rank (use type=A2 or rank=2)"),
    ("name=x; type=Q2", "line 3: bad type 'Q2'"),
    ("name=x; type=A; rank=two", "line 3: bad rank 'two'"),
    ("name= ; type=A2; black={}; arrows={}", "line 3: empty name"),
])
def test_parse_type_and_rank_messages(stanza, message):
    with pytest.raises(CatalogParseError) as err:
        load_catalog("\n\n" + stanza)
    assert str(err.value) == message


def test_parse_bad_arrows():
    with pytest.raises(CatalogParseError, match="line 1: bad arrow pair"):
        load_catalog("name=x; type=A3; arrows={(1,2,3)}")
    # items are separated by single commas, as in a node set
    for arrows in ("{(1,2)(3,4)}", "{(1,2),,(3,4)}", "{,(1,2)}", "{(1,2),}"):
        with pytest.raises(CatalogParseError) as err:
            load_catalog(f"\n\nname=x; type=A4; arrows={arrows}")
        assert str(err.value) == f"line 3: bad arrow set {arrows!r}"
    for black in ("{1,,2}", "{1,}", "{,1}"):
        with pytest.raises(CatalogParseError) as err:
            load_catalog(f"name=x; type=A4; black={black}")
        assert str(err.value) == f"line 1: bad node set {black!r}"


def test_parse_empty_source():
    assert load_catalog("# nothing here\n") == ()


def test_render_parse_roundtrip():
    entries = builtin_catalog()
    assert load_catalog(cr.render_catalog(entries)) == entries


def test_shipped_file_is_the_rendered_generator():
    # byte for byte, so a comment line, which would change the built-in
    # catalog_hash of every document, fails here
    with open(satake.BUILTIN_CATALOG, encoding="utf-8") as fh:
        text = fh.read()
    assert text == cr.render_catalog(cr.generated_catalog())
    assert builtin_catalog() == cr.generated_catalog()


# ---------------------------------------------------------------------------
# the induced involution

def tau_matrix(sd):
    """The matrix view of the tau* that real_form_data builds."""
    return wm.matrix_of(sd.root_system(), real_form_data(sd).tau_star)


def test_tau_star_split_form_is_identity():
    sd = diagram("sl(2,R)")
    assert tau_matrix(sd) == wm.identity_matrix(1)


def test_tau_star_su21_is_node_swap():
    assert tau_matrix(diagram("su(2,1)")) == ((0, 1), (1, 0))


def test_tau_star_su31_values():
    tau = tau_matrix(diagram("su(3,1)"))
    assert wm.mat_vec(tau, (0, 1, 0)) == (0, -1, 0)
    assert wm.mat_vec(tau, (1, 0, 0)) == (0, 1, 1)


def test_wb_empty_black_is_identity():
    sd = diagram("su(2,1)")
    assert wm.matrix_of(sd.root_system(), real_form_data(sd).w_b.perm) == wm.identity_matrix(2)


def test_wb_single_black_node():
    sd = diagram("su(3,1)")
    rs = sd.root_system()
    wb = real_form_data(sd).w_b
    assert wm.length(rs, wm.element(rs, wb.perm)) == 1
    assert wm.mat_vec(wm.matrix_of(rs, wb.perm), (0, 1, 0)) == (0, -1, 0)


def test_wb_full_black_equals_longest():
    # real_form_data rejects an all-black (compact) diagram, so w_b is built
    # the way it builds it: the longest element over the black nodes
    sd = SatakeDiagram("t", "A", 2, frozenset({1, 2}), frozenset())
    rs = sd.root_system()
    assert rootsys.longest_element(rs, sd.black) == rootsys.longest_element(rs)


def test_compact_form_rejected():
    sd = SatakeDiagram("compact", "A", 2, frozenset({1, 2}), frozenset())
    with pytest.raises(CompactFormError):
        real_form_data(sd)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_arrows_must_give_a_diagram_automorphism(family, rank):
    # an arrow (1,2) swaps two nodes that no automorphism of these diagrams
    # swaps; before the check, G2 with this arrow even produced an atlas
    sd = SatakeDiagram("bad", family, rank, frozenset(), frozenset({(1, 2)}))
    with pytest.raises(InconsistentSatakeError, match="diagram automorphism"):
        real_form_data(sd)
    assert [c.name for c in validate(sd).failures()] == ["involution"]


def test_inadmissible_black_set_fails():
    # a single black end node on A2 is not a Satake diagram; the induced
    # involution would even map positive roots to positive roots, but white
    # node 2 pairs to -1/2 with rho_X^v, half the coroot of alpha_1
    sd = SatakeDiagram("bad", "A", 2, frozenset({1}), frozenset())
    with pytest.raises(InconsistentSatakeError, match="white node 2 has no arrow"):
        real_form_data(sd)
    report = validate(sd)
    assert [c.name for c in report.checks] == ["structure", "involution"]
    assert [c.name for c in report.failures()] == ["involution"]
    assert "<rho_X^v, alpha_2> = -1/2" in report.failures()[0].detail


# ---------------------------------------------------------------------------
# restricted roots and dimensions

def positive_restricted(sd):
    """The positive restricted roots of the matrix construction, with their
    multiplicities."""
    return {lam: m for lam, m in wm.matrix_form(sd).restricted.items() if wm.is_positive(lam)}


def test_restricted_split_rank_one():
    sd = diagram("sl(2,R)")
    assert real_form_data(sd).real_rank == 1
    assert wm.matrix_form(sd).restricted == {(Fraction(1),): 1, (Fraction(-1),): 1}


def test_restricted_su21_multiplicities():
    sd = diagram("su(2,1)")
    rf = real_form_data(sd)
    pos = positive_restricted(sd)
    assert rf.real_rank == 1
    assert sorted(pos.values()) == [1, 2]
    (short,) = [lam for lam, m in pos.items() if m == 2]
    (lng,) = [lam for lam, m in pos.items() if m == 1]
    assert tuple(2 * x for x in short) == lng


def test_restricted_su31_black_root_projects_to_zero():
    sd = diagram("su(3,1)")
    tau = tau_matrix(sd)
    assert all(x == 0 for x in wm.project_restricted(tau, (0, 1, 0)))
    for alpha in sd.root_system().positive_roots:
        if alpha == (0, 1, 0):
            continue
        assert any(x != 0 for x in wm.project_restricted(tau, alpha))


def test_restricted_sl3():
    sd = diagram("sl(3,R)")
    assert real_form_data(sd).real_rank == 2
    assert sorted(positive_restricted(sd).values()) == [1, 1, 1]


def test_restricted_so41_single_line_multiplicity_three():
    sd = diagram("so(4,1)")
    assert real_form_data(sd).real_rank == 1
    assert list(positive_restricted(sd).values()) == [3]


@pytest.mark.parametrize(
    "label,dims",
    [
        ("sl(2,R)", (3, 1, 2)),
        ("su(2,1)", (8, 4, 4)),
        ("sl(3,R)", (8, 3, 5)),
        ("su(3,1)", (15, 9, 6)),
    ],
)
def test_dimension_examples(label, dims):
    rf = real_form_data(diagram(label))
    assert (rf.dim_g, rf.dim_k0, rf.dim_p0) == dims
    assert rf.dim_x == rf.dim_p0


def _expected_compact_dim(label):
    """Independent oracle: closed-form dimensions of the maximal compact."""
    import re

    if m := re.fullmatch(r"sl\((\d+),R\)", label):
        n = int(m.group(1))
        return n * (n - 1) // 2  # so(n)
    if m := re.fullmatch(r"su\((\d+),(\d+)\)", label):
        p, q = map(int, m.groups())
        return p * p + q * q - 1  # s(u(p)+u(q))
    if m := re.fullmatch(r"so\((\d+),(\d+)\)", label):
        p, q = map(int, m.groups())
        return p * (p - 1) // 2 + q * (q - 1) // 2  # so(p)+so(q)
    if m := re.fullmatch(r"sp\((\d+),R\)", label):
        n = int(m.group(1))
        return n * n  # u(n)
    if m := re.fullmatch(r"sp\((\d+),(\d+)\)", label):
        p, q = map(int, m.groups())
        return p * (2 * p + 1) + q * (2 * q + 1)  # sp(p)+sp(q)
    if m := re.fullmatch(r"su\*\((\d+)\)", label):
        n = int(m.group(1)) // 2
        return n * (2 * n + 1)  # sp(n)
    if m := re.fullmatch(r"so\*\((\d+)\)", label):
        n = int(m.group(1)) // 2
        return n * n  # u(n)
    raise AssertionError(label)


@pytest.mark.parametrize("sd", builtin_catalog(), ids=lambda s: s.label)
def test_catalog_dims_against_compact_subalgebra_tables(sd):
    rf = real_form_data(sd)
    assert rf.dim_k0 == _expected_compact_dim(sd.label)
    assert rf.dim_k0 + rf.dim_p0 == rf.dim_g


# ---------------------------------------------------------------------------
# validation across the catalog

@pytest.mark.parametrize("sd", builtin_catalog(), ids=lambda s: s.label)
def test_catalog_entry_validates(sd):
    report = validate(sd)
    assert report.passed, [c.name for c in report.failures()]


@pytest.mark.parametrize("sd", builtin_catalog(), ids=lambda s: s.label)
def test_catalog_commutation_and_length_identities(sd):
    rs = sd.root_system()
    rf = real_form_data(sd)
    tau, wb, w0 = tau_matrix(sd), wm.element(rs, rf.w_b.perm), wm.element(rs, rf.w0.perm)
    assert w0 == wm.longest_element(rs)
    assert wm.mat_mul(tau, tau) == wm.identity_matrix(rs.rank)
    assert wm.mat_mul(tau, w0.matrix) == wm.mat_mul(w0.matrix, tau)
    assert wm.mat_mul(tau, wb.matrix) == wm.mat_mul(wb.matrix, tau)
    assert wm.mat_mul(w0.matrix, wb.matrix) == wm.mat_mul(wb.matrix, w0.matrix)
    assert wm.length(rs, wm.multiply(rs, wb, w0)) == wm.length(rs, w0) - wm.length(rs, wb)


@pytest.mark.parametrize("sd", builtin_catalog(), ids=lambda s: s.label)
def test_catalog_positivity_conditions(sd):
    rs = sd.root_system()
    tau = tau_matrix(sd)
    for i, alpha in enumerate(rs.simple_roots, start=1):
        negated = wm.mat_vec(tau, alpha) == tuple(-x for x in alpha)
        assert negated == (i in sd.black)
    for alpha in rs.positive_roots:
        img = wm.mat_vec(tau, alpha)
        assert img == tuple(-x for x in alpha) or wm.is_positive(img)


def test_split_forms_have_full_restricted_system():
    for sd in builtin_catalog():
        if sd.black or sd.arrows:
            continue
        rf = real_form_data(sd)
        rs = sd.root_system()
        assert rf.real_rank == rs.rank
        restricted = wm.matrix_form(sd).restricted
        assert all(m == 1 for m in restricted.values())
        assert len(restricted) == 2 * len(rs.positive_roots)


# ---------------------------------------------------------------------------
# the whole input domain: every decorated diagram of every type up to the
# rank cap

DOMAIN_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def involutive_automorphisms(family, rank):
    """Every sigma with sigma^2 = 1 that preserves the Cartan matrix, as
    0-based node images, found by extending partial maps node by node."""
    a = rootsys.build_root_system(family, rank).cartan_matrix

    def extend(images):
        i = len(images)
        if i == rank:
            yield tuple(images)
            return
        for j in range(rank):
            if j not in images and all(a[j][images[m]] == a[i][m] and a[images[m]][j] == a[m][i]
                                       for m in range(i)):
                yield from extend(images + [j])

    return [s for s in extend([]) if all(s[s[i]] == i for i in range(rank))]


def decorated_diagrams(family, rank):
    """Every black set, each with the arrows that every involutive diagram
    automorphism draws between white nodes, without repeats."""
    seen = {}
    autos = involutive_automorphisms(family, rank)
    for size in range(rank + 1):
        for black in map(frozenset, itertools.combinations(range(1, rank + 1), size)):
            for s in autos:
                arrows = frozenset((i + 1, j + 1) for i, j in enumerate(s)
                                   if i < j and {i + 1, j + 1}.isdisjoint(black))
                key = (black, arrows)
                seen.setdefault(key, SatakeDiagram(
                    f"{family}{rank} black={sorted(black)} arrows={sorted(arrows)}",
                    family, rank, black, arrows))
    return list(seen.values())


def real_form_diagram_count(family, rank):
    """The number of Satake diagrams of the non-compact real forms, from
    Araki's classification (S. Araki, J. Math. Osaka City Univ. 13, 1962;
    Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces,
    Ch. X, Table VI), counted as numbered diagrams."""
    if family == "A":  # sl(n,R), su(p,q) with p >= q >= 1, su*(n) for even n
        n = rank + 1
        return 1 if n == 2 else 1 + n // 2 + (n % 2 == 0)
    if family == "B":  # so(2n+1-q, q), 1 <= q <= n
        return rank
    if family == "C":  # sp(n,R), sp(p,q) with p >= q >= 1
        return 1 + rank // 2
    if family == "D":
        if rank == 4:  # so(8-q, q), 1 <= q <= 4, numbered up to triality: 3+3+3+1
            return 10
        # so(2n-q, q), 1 <= q <= n, and so*(2n), whose two fork labellings
        # differ for even n
        return rank + 1 + (rank % 2 == 0)
    return {("E", 6): 4, ("E", 7): 3, ("E", 8): 2, ("F", 4): 2, ("G", 2): 1}[family, rank]


def test_real_form_diagram_counts():
    # spot values: so(2,1) = sl(2,R) and su*(2) = su(2) leave A1 one form;
    # sp(2,R) = so(3,2) and sp(1,1) = so(4,1) are the two of C2
    counts = [real_form_diagram_count(*t) for t in DOMAIN_TYPES]
    assert counts[:8] == [1, 2, 4, 3, 5, 4, 6, 5]
    assert counts[15:22] == [2, 2, 3, 3, 4, 4, 5]
    assert counts[22:27] == [10, 6, 8, 8, 10]
    assert len(involutive_automorphisms("D", 4)) == 4
    assert len(involutive_automorphisms("E", 6)) == len(involutive_automorphisms("A", 8)) == 2


def _rho_pairings(sd):
    """<rho_X^v, alpha_j> for each node j (1-based keys), rho_X^v = sum c_i
    alpha_i^v solved over the rationals from <rho_X^v, alpha_k> = 1 for k in
    X, where <alpha_i^v, alpha_k> = a[k][i]."""
    a = sd.root_system().cartan_matrix
    x = sorted(sd.black)
    rows = [[Fraction(a[k - 1][i - 1]) for i in x] + [Fraction(1)] for k in x]
    for col in range(len(x)):  # Gauss-Jordan; the Cartan matrix of X is invertible
        pivot = next(r for r in range(col, len(x)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(len(x)):
            if r != col and rows[r][col]:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    c = [row[-1] for row in rows]
    return {j: sum(ci * a[j - 1][i - 1] for ci, i in zip(c, x)) for j in range(1, sd.rank + 1)}


def _assert_deleted_identities(sd):
    """The checks that `validate` ran after the construction until they were
    found to hold by construction, on the integer-matrix model."""
    rs = sd.root_system()
    rf = real_form_data(sd)
    mf = wm.matrix_form(sd)
    tau, wb, w0 = mf.tau_star, mf.w_b.matrix, mf.w0.matrix
    # tau* is an involution that negates exactly the black simple roots and
    # sends each positive root to a positive root or to its own negative
    assert wm.mat_mul(tau, tau) == wm.identity_matrix(rs.rank)
    for i, alpha in enumerate(rs.simple_roots, start=1):
        assert (wm.mat_vec(tau, alpha) == tuple(-x for x in alpha)) == (i in sd.black)
    for alpha in rs.positive_roots:
        img = wm.mat_vec(tau, alpha)
        assert img == tuple(-x for x in alpha) or wm.is_positive(img)
    # tau*, w_b and w_0 commute, and l(w_b w_0) = l(w_0) - l(w_b)
    for p, q in ((tau, w0), (tau, wb), (w0, wb)):
        assert wm.mat_mul(p, q) == wm.mat_mul(q, p)
    assert (wm.length(rs, wm.multiply(rs, mf.w_b, mf.w0))
            == wm.length(rs, mf.w0) - wm.length(rs, mf.w_b))
    # dimensions: g = rank + 2N, k0 = (rank - real rank) + N + N_X, and p0
    # the real rank plus the positive restricted multiplicities
    n = len(rs.positive_roots)
    n_x = sum(1 for r in rs.positive_roots if all(r[i - 1] == 0 for i in range(1, rs.rank + 1)
                                                  if i not in sd.black))
    restricted = sum(m for lam, m in mf.restricted.items() if wm.is_positive(lam))
    assert rf.real_rank == mf.real_rank > 0
    assert (rf.dim_g, rf.dim_p0) == (rs.rank + 2 * n, mf.real_rank + restricted)
    assert rf.dim_k0 == rs.rank - mf.real_rank + n + n_x == rf.dim_g - rf.dim_p0
    if not sd.black and not sd.arrows:
        assert mf.real_rank == rs.rank and set(mf.restricted.values()) == {1}


@pytest.mark.parametrize("family,rank", DOMAIN_TYPES)
def test_accepted_diagrams_are_the_real_forms(family, rank):
    # the construction accepts exactly Araki's diagrams: their number is the
    # count of real forms, the parity rule agrees with the rational pairing
    # <rho_X^v, alpha_j>, and each checked identity holds on the matrices
    accepted = []
    for sd in decorated_diagrams(family, rank):
        try:
            real_form_data(sd)
        except SatakeError as exc:
            if "has no arrow" in str(exc):
                j = int(str(exc).split("white node ")[1].split()[0])
                assert _rho_pairings(sd)[j].denominator == 2
            continue
        pairings = _rho_pairings(sd)
        fixed = [j for j in range(1, rank + 1) if j not in sd.black
                 and not any(j in pair for pair in sd.arrows)]
        assert all(pairings[j].denominator == 1 for j in fixed)
        assert validate(sd).passed
        accepted.append(sd)
    assert len(accepted) == real_form_diagram_count(family, rank)
    for sd in accepted:
        _assert_deleted_identities(sd)


@pytest.mark.parametrize("family,rank", DOMAIN_TYPES)
def test_dim_p0_from_the_length_of_w_b(family, rank):
    # dim p0 - real rank, read from N - l(w_b), is the count of positive
    # restricted roots with multiplicity, from the matrix projections
    rs = rootsys.build_root_system(family, rank)
    n = len(rs.positive_roots)
    for sd in decorated_diagrams(family, rank):
        try:
            rf = real_form_data(sd)
        except SatakeError:
            continue
        n_x = sum(1 for r in rs.positive_roots
                  if all(r[i - 1] == 0 for i in range(1, rank + 1) if i not in sd.black))
        assert len(rf.w_b.word) == n_x
        assert (rf.dim_p0 - rf.real_rank == n - len(rf.w_b.word)
                == sum(positive_restricted(sd).values()))
