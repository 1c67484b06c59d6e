import ast
import re
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leafatlas
from leafatlas import satake
from leafatlas.atlas import atlas, class_fields, realizable_candidate, twisted_involutions
from leafatlas.rootsys import build_root_system
from leafatlas.satake import (
    SatakeDiagram,
    SatakeError,
    builtin_catalog,
    real_form_data,
    validate,
)

import catalog_reference as cr
from exact_rank import eigenspace_dim
from test_rootsys import WORD_FORMS
from test_satake import DOMAIN_TYPES
from test_satake import decorated_diagrams as domain_diagrams
import weyl_matrices as wm

BY_LABEL = cr.by_label()


def setup_form(label):
    sd = BY_LABEL[label]
    return sd.root_system(), real_form_data(sd)


def psi_of(rs, cls):
    """The matrix element of a class's psi, from its word."""
    return wm.from_word(rs, cls["psi_word"])


def walked_fields(rf, rs):
    """The fields (`class_fields`) of every class the walk yields."""
    return [class_fields(rf, record) for record in twisted_involutions(rf, rs)]


def report_fields(report):
    """The fields of a report's classes, in report order."""
    return [class_fields(report.form, record) for record in report.classes]


# ---------------------------------------------------------------------------
# twisted involutions

def test_twisted_involutions_rank_one():
    rs, rf = setup_form("sl(2,R)")
    words = sorted(tuple(word) for _, word, _ in twisted_involutions(rf, rs))
    assert words == [(), (1,)]


def test_twisted_involutions_su21():
    rs, rf = setup_form("su(2,1)")
    words = sorted(tuple(word) for _, word, _ in twisted_involutions(rf, rs))
    assert words == [(), (1, 2), (1, 2, 1), (2, 1)]


def test_twisted_involutions_sl3_are_ordinary_involutions():
    # independent oracle: with trivial involution these are the involutions
    # of the symmetric group on three letters
    rs, rf = setup_form("sl(3,R)")
    got = {psi_of(rs, c).matrix for c in walked_fields(rf, rs)}
    expected = {
        w.matrix
        for w in wm.enumerate_weyl(rs)
        if wm.multiply(rs, w, w).matrix == wm.from_word(rs, ()).matrix
    }
    assert got == expected
    assert len(got) == 4


@lru_cache(maxsize=None)
def _weyl_group(family, rank):
    return tuple(wm.enumerate_weyl(build_root_system(family, rank)))


def _brute_force(rf, rs):
    """Reference: every w in W with (w tau*)^2 = 1, with the breadth-first
    word of enumerate_weyl, keyed by matrix."""
    one = wm.identity_matrix(rs.rank)
    found = {}
    for w in _weyl_group(rs.family, rs.rank):
        m = wm.twisted_matrix(rf, w)
        if wm.mat_mul(m, m) == one:
            found[w.matrix] = w.word
    return found


def _walked(rf, rs):
    walked = {}
    for cls in walked_fields(rf, rs):
        matrix = psi_of(rs, cls).matrix
        assert matrix not in walked
        walked[matrix] = tuple(cls["psi_word"])
    return walked


def _assert_carried_invariants_match(rf, rs):
    # tau*, w_b, w_0 and the real rank equal those of
    # the matrix construction w_b . sigma; every field of each walked class
    # equals the single-psi orbit_class, and its a and t equal the exact
    # ranks of the eigenspaces of psi tau*
    mf = wm.matrix_form(rf.diagram)
    assert wm.matrix_of(rs, rf.tau_star) == mf.tau_star
    for w, ref in ((rf.w_b, mf.w_b), (rf.w0, mf.w0)):
        assert (tuple(w.word), wm.matrix_of(rs, w.perm)) == (ref.word, ref.matrix)
    assert rf.real_rank == mf.real_rank
    for cls in walked_fields(rf, rs):
        psi = psi_of(rs, cls)
        assert cls == wm.orbit_class(rf, rs, psi)
        m = wm.twisted_matrix(rf, psi)
        assert (cls["a"], cls["t"]) == (eigenspace_dim(m, 1), eigenspace_dim(m, -1))


def _plain(family, rank, arrows=()):
    return cr.diagram(f"{family}{rank} {sorted(arrows)}", family, rank, arrows=arrows)


SPLIT_AND_QUASI_SPLIT = (
    [_plain("A", n) for n in range(1, 6)]
    + [_plain("B", n) for n in range(2, 6)]
    + [_plain("C", n) for n in range(3, 6)]
    + [_plain("D", n) for n in (4, 5)]
    + [_plain("G", 2), _plain("F", 4)]
    + [_plain("A", n, [(i, n + 1 - i) for i in range(1, n // 2 + 1)])
       for n in range(2, 6)]
    + [_plain("D", n, [(n - 1, n)]) for n in (4, 5)]
)


@pytest.mark.parametrize("sd", builtin_catalog() + tuple(SPLIT_AND_QUASI_SPLIT),
                         ids=lambda s: s.label)
def test_walk_matches_brute_force(sd):
    # the walk gives the same elements as filtering all of W, each with the
    # breadth-first word, which is the lexicographically least reduced word
    rs = sd.root_system()
    rf = real_form_data(sd)
    assert _walked(rf, rs) == _brute_force(rf, rs)


# every catalog form; split A5, B5, C5, D5, D6, G2, F4, E6 and E7; quasi-split E6
@pytest.mark.parametrize("sd", WORD_FORMS + (_plain("E", 7), _plain("D", 5)),
                         ids=lambda s: s.label)
def test_walk_matches_the_upward_walk(sd):
    # the canonical-parent walk gives the same classes as the walk that keeps
    # every child and drops the v it has already seen, and the fields read
    # off each (codim_Y, psi_word, a) equal the 11-field record that the
    # reference builds from v = psi w_b
    rs, rf = sd.root_system(), real_form_data(sd)
    got = [class_fields(rf, record) for record in sorted(twisted_involutions(rf, rs))]
    assert got == wm.upward_walk_records(rf, rs)


def _telephone(n):
    """The number of involutions of the symmetric group on n letters."""
    t = [1, 1]
    for m in range(2, n + 1):
        t.append(t[-1] + (m - 1) * t[-2])
    return t[n]


def _hyperoctahedral(n):
    """The number of involutions of the signed permutations of n letters."""
    b = [1, 2]
    for m in range(2, n + 1):
        b.append(2 * b[-1] + 2 * (m - 1) * b[-2])
    return b[n]


INVOLUTION_COUNTS = (
    [(("A", n), _telephone(n + 1)) for n in range(1, 9)]
    + [(("B", n), _hyperoctahedral(n)) for n in range(2, 9)]
    + [(("G", 2), 8), (("F", 4), 140), (("E", 6), 892), (("E", 7), 10_208)]
)


def test_involution_count_oracles():
    # two spot values of the recurrences
    assert (_telephone(9), _hyperoctahedral(5), _hyperoctahedral(8)) == (2_620, 312, 32_400)


@pytest.mark.parametrize("cartan_type,count", INVOLUTION_COUNTS,
                         ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else None)
def test_split_form_class_count_is_the_number_of_involutions(cartan_type, count):
    # for a split form sigma and w_b are trivial, so the classes are the
    # involutions of W
    sd = _plain(*cartan_type)
    assert sum(1 for _ in twisted_involutions(real_form_data(sd), sd.root_system())) == count


RANK_EIGHT_WALKS = [
    (("A", 8, ()), 2_620),
    (("A", 8, ((1, 8), (2, 7), (3, 6), (4, 5))), 2_620),
    (("B", 8, ()), 32_400),
    (("C", 8, ()), 32_400),
    (("D", 8, ()), 17_040),
    (("D", 8, ((7, 8),)), 15_360),
]


def test_walk_sizes_at_the_rank_cap():
    """The walk visits the v with sigma v sigma = v^-1, so its size depends on
    the arrows alone, and each classical family's largest comes at rank 8.
    With the exceptional types below them (E7's 10,208 classes the most),
    these pins bound the walk of every supported diagram but E8's. E8 admits
    only sigma = id, so every E8 form walks split E8's 199,952 classes, which
    the slow SHA-256 pin of the split E8 document fixes."""
    for (family, rank, arrows), count in RANK_EIGHT_WALKS:
        sd = _plain(family, rank, arrows)
        assert sum(1 for _ in twisted_involutions(real_form_data(sd), sd.root_system())) == count


def test_split_e7_atlas_peak_memory():
    # 10,208 class records: the traced peak was 7,963 KiB when each record
    # was a dict with a tuple word, 5,955 KiB with a bytes word, and is
    # 1,319 KiB for (codim_Y, psi_word, a) triples
    sd = _plain("E", 7)
    atlas(sd)  # warm the root-system and real-form caches
    tracemalloc.start()
    try:
        atlas(sd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1024 <= 2000


# split A5, B5, C5, D5, D6, G2, F4 and E6; quasi-split E6 (EII); and the
# non-split EIII, EIV and FII (nodes numbered as in _cartan_matrix)
CARRIED_INVARIANT_FORMS = (
    [_plain(family, rank) for family, rank in
     (("A", 5), ("B", 5), ("C", 5), ("D", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6))]
    + [cr.diagram("EII", "E", 6, arrows=[(1, 6), (3, 5)]),
       cr.diagram("EIII", "E", 6, black=[3, 4, 5], arrows=[(1, 6)]),
       cr.diagram("EIV", "E", 6, black=[2, 3, 4, 5]),
       cr.diagram("FII", "F", 4, black=[1, 2, 3])]
)


@pytest.mark.parametrize("sd", builtin_catalog() + tuple(CARRIED_INVARIANT_FORMS),
                         ids=lambda s: s.label)
def test_carried_invariants_match_the_references(sd):
    assert validate(sd).passed
    _assert_carried_invariants_match(real_form_data(sd), sd.root_system())


# the decorated diagrams of rank at most 4, and the Satake diagrams among them
SMALL_DOMAIN = [sd for family, rank in DOMAIN_TYPES if rank <= 4
                for sd in domain_diagrams(family, rank)]
SMALL_SATAKE = [sd for sd in SMALL_DOMAIN if validate(sd).passed]


def decorated_diagrams():
    """Half the draws are Satake diagrams, the rest any diagram of the domain."""
    return st.one_of(st.sampled_from(SMALL_SATAKE), st.sampled_from(SMALL_DOMAIN))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(decorated_diagrams())
def test_random_diagrams_rejected_or_consistent(sd):
    try:
        rf = real_form_data(sd)
    except SatakeError:
        return
    rs = sd.root_system()
    assert _walked(rf, rs) == _brute_force(rf, rs)
    for cls in walked_fields(rf, rs):
        assert len(cls["psi_word"]) == wm.length(rs, psi_of(rs, cls))
    _assert_carried_invariants_match(rf, rs)
    report = atlas(sd)
    assert sum(c["is_closed_class"] for c in report_fields(report)) == 1
    assert sum(c["codim_Y"] == 0 for c in report_fields(report)) == 1


# the Satake diagrams of every type of rank at most 6: up to 4,152 classes
# (split B6 and C6), so that each example stays under a tenth of a second
SATAKE_UP_TO_6 = [sd for family, rank in DOMAIN_TYPES if rank <= 6
                  for sd in domain_diagrams(family, rank) if validate(sd).passed]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(SATAKE_UP_TO_6))
def test_random_satake_diagrams_walk_as_the_tuple_reference(sd):
    # the translate products of the canonical-parent walk give the records
    # of the reference walk, whose products are tuples, and their fields
    # equal the reference's
    rs, rf = sd.root_system(), real_form_data(sd)
    got = [class_fields(rf, record) for record in sorted(twisted_involutions(rf, rs))]
    assert got == wm.upward_walk_records(rf, rs)


def test_atlas_builds_classes_without_matrix_products():
    # the Weyl group has one model in the package, root permutations, so no
    # module defines or imports the integer-matrix model, which lives on in
    # tests/weyl_matrices.py as the reference
    banned = {"mat_mul", "multiply", "enumerate_weyl", "reflect"}
    for path in sorted(Path(leafatlas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in banned, f"{path.name} defines {node.name}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
                assert not names & banned, f"{path.name} imports {names & banned}"
            if isinstance(node, ast.ClassDef) and node.name == "WeylElement":
                fields = {t.target.id for t in node.body if isinstance(t, ast.AnnAssign)}
                assert "matrix" not in fields, f"{path.name}: WeylElement.matrix"


def test_validate_then_atlas_builds_the_involution_data_once(monkeypatch):
    built = []
    original = satake.longest_element

    def counting(rs, subset=None):
        built.append(subset)
        return original(rs, subset)

    monkeypatch.setattr(satake, "longest_element", counting)
    satake._longest_element.cache_clear()
    sd = SatakeDiagram(label="once(su(3,1))", family="A", rank=3,
                       black=frozenset({2}), arrows=frozenset({(1, 3)}))
    assert validate(sd).passed
    atlas(sd)
    assert built == [frozenset({2}), None]  # w_b and w_0, by the one real_form_data call
    # w_0 is built once per root system: another A3 diagram builds only its w_b
    split = SatakeDiagram(label="once(sl(4,R))", family="A", rank=3,
                          black=frozenset(), arrows=frozenset())
    atlas(split)
    assert built == [frozenset({2}), None, frozenset()]
    assert real_form_data(split).w0 is real_form_data(sd).w0


def test_not_twisted_involution_rejected():
    rs, rf = setup_form("su(2,1)")
    with pytest.raises(wm.NotTwistedInvolutionError):
        wm.orbit_class(rf, rs, wm.reflect(rs, 1))


# ---------------------------------------------------------------------------
# per-class invariants

def test_orbit_class_sl2_open():
    rs, rf = setup_form("sl(2,R)")
    cls = wm.orbit_class(rf, rs, wm.reflect(rs, 1))
    assert (cls["codim_Y"], cls["a"], cls["t"]) == (0, 0, 1)
    assert cls["leaf_dim"] == 2 and cls["is_open"] and cls["family_dim"] == 0


def test_orbit_class_sl2_closed():
    rs, rf = setup_form("sl(2,R)")
    cls = wm.orbit_class(rf, rs, wm.from_word(rs, ()))
    assert (cls["codim_Y"], cls["a"], cls["t"]) == (1, 1, 0)
    assert cls["leaf_dim"] == 0 and cls["family_dim"] == 1 and cls["is_closed_class"]


def test_orbit_class_su21_middle():
    rs, rf = setup_form("su(2,1)")
    cls = wm.orbit_class(rf, rs, wm.from_word(rs, (1, 2)))
    assert (cls["codim_Y"], cls["a"], cls["t"]) == (1, 1, 1)
    assert cls["leaf_dim"] == 2 and cls["leaf_codim"] == 2


def test_orbit_class_sl3_longest():
    rs, rf = setup_form("sl(3,R)")
    cls = wm.orbit_class(rf, rs, wm.longest_element(rs))
    assert cls["codim_Y"] == 0 and cls["a"] == 1
    assert cls["leaf_codim"] == 1 and not cls["is_open"]


# ---------------------------------------------------------------------------
# open-leaf criterion with the compact-rank oracle

def _compact_rank(label):
    """Independent oracle: rank of the maximal compact subalgebra."""
    if m := re.fullmatch(r"sl\((\d+),R\)", label):
        return int(m.group(1)) // 2  # so(n)
    if m := re.fullmatch(r"su\((\d+),(\d+)\)", label):
        p, q = map(int, m.groups())
        return p + q - 1  # s(u(p)+u(q))
    if m := re.fullmatch(r"so\((\d+),(\d+)\)", label):
        p, q = map(int, m.groups())
        return p // 2 + q // 2  # so(p)+so(q)
    if m := re.fullmatch(r"sp\((\d+),R\)", label):
        return int(m.group(1))  # u(n)
    if m := re.fullmatch(r"sp\((\d+),(\d+)\)", label):
        p, q = map(int, m.groups())
        return p + q  # sp(p)+sp(q)
    if m := re.fullmatch(r"su\*\((\d+)\)", label):
        return int(m.group(1)) // 2  # sp(n)
    if m := re.fullmatch(r"so\*\((\d+)\)", label):
        return int(m.group(1)) // 2  # u(n)
    raise AssertionError(label)


@pytest.mark.parametrize("sd", builtin_catalog(), ids=lambda s: s.label)
def test_open_leaf_criterion_against_rank_oracle(sd):
    # open leaves exist iff the compact rank equals the absolute rank
    rs = sd.root_system()
    rf = real_form_data(sd)
    expected = _compact_rank(sd.label) == rs.rank
    assert wm.open_leaf_test(rf, rs) == expected


def test_open_leaf_named_examples():
    for label, expected in [
        ("sl(2,R)", True), ("su(2,1)", True), ("su(1,1)", True), ("sl(3,R)", False),
    ]:
        rs, rf = setup_form(label)
        assert wm.open_leaf_test(rf, rs) == expected


# ---------------------------------------------------------------------------
# full reports

def test_atlas_sl2():
    report = atlas(BY_LABEL["sl(2,R)"])
    assert len(report.classes) == 2 and report.has_open_leaves
    assert report_fields(report)[report.largest_leaf_class]["is_open"]


def test_atlas_su21():
    report = atlas(BY_LABEL["su(2,1)"])
    assert len(report.classes) == 4 and report.has_open_leaves
    top = report_fields(report)[report.largest_leaf_class]
    assert top["leaf_dim"] == 4 == report.form.dim_x and top["family_dim"] == 0


def test_atlas_sl3():
    report = atlas(BY_LABEL["sl(3,R)"])
    assert len(report.classes) == 4 and not report.has_open_leaves
    top = report_fields(report)[report.largest_leaf_class]
    assert top["leaf_codim"] == 1
    rs = BY_LABEL["sl(3,R)"].root_system()
    assert psi_of(rs, top) == wm.longest_element(rs)


@pytest.mark.parametrize("sd", WORD_FORMS, ids=lambda s: s.label)
def test_largest_leaf_class_is_the_least_leaf_codim_that_can_carry_leaves(sd):
    report = atlas(sd)
    classes = report_fields(report)
    if classes[0]["is_open"]:
        assert realizable_candidate(classes[0]) and report.largest_leaf_class == 0
    candidates = [i for i, c in enumerate(classes) if realizable_candidate(c)]
    assert report.largest_leaf_class == min(candidates, key=lambda i: classes[i]["leaf_codim"])


def test_atlas_sorted_and_unique_closed():
    report = atlas(BY_LABEL["su(2,1)"])
    keys = [(c["codim_Y"], c["psi_word"]) for c in report_fields(report)]
    assert keys == sorted(keys)
    assert sum(c["is_closed_class"] for c in report_fields(report)) == 1


@pytest.mark.parametrize("label", ["sl(2,R)", "su(2,1)", "sl(3,R)", "so(4,1)", "so*(8)"])
def test_unique_codim_zero_class_and_max_at_identity(label):
    rs, rf = setup_form(label)
    classes = walked_fields(rf, rs)
    zero = [c for c in classes if c["codim_Y"] == 0]
    assert len(zero) == 1
    assert psi_of(rs, zero[0]) == wm.open_class_element(rf, rs)
    # the identity class attains the maximal codimension among classes that
    # can carry leaves (flagged classes may formally exceed it)
    wmax = wm.length(rs, wm.longest_element(rs)) - wm.length(rs, wm.from_word(rs, rf.w_b.word))
    closed = [c for c in classes if c["is_closed_class"]]
    assert closed[0]["codim_Y"] == wmax
    assert wmax == max(c["codim_Y"] for c in classes if realizable_candidate(c))


@pytest.mark.parametrize("label", ["su(2,1)", "sl(3,R)", "sp(1,1)", "su*(4)"])
def test_trace_cross_check(label):
    rs, rf = setup_form(label)
    for cls in walked_fields(rf, rs):
        assert cls["a"] - cls["t"] == wm.mat_trace(wm.twisted_matrix(rf, psi_of(rs, cls)))
        assert cls["a"] + cls["t"] == rs.rank
        assert cls["leaf_codim"] == cls["a"] + cls["codim_Y"]


def test_flagged_classes_are_retained():
    report = atlas(BY_LABEL["su(3,1)"])
    classes = report_fields(report)
    flagged = [c for c in classes if not realizable_candidate(c)]
    assert any(tuple(c["psi_word"]) == (2,) and c["leaf_dim"] == -2 for c in flagged)
    assert not classes[report.largest_leaf_class] in flagged


def test_open_implies_full_dimension():
    for sd in builtin_catalog():
        report = atlas(sd)
        for c in report_fields(report):
            if c["is_open"]:
                assert c["leaf_dim"] == report.form.dim_x and c["family_dim"] == 0


# the rank of each form's maximal compact subgroup K (Helgason, Ch. X,
# Table V): the classical families by their parameters, then E6, E7, F4, G2
EXCEPTIONAL_RANK_K = {
    "EI": 4,  # Sp(4)
    "EII": 6,  # SU(6) x SU(2)
    "EIII": 6,  # Spin(10) x U(1)
    "EIV": 4,  # F4
    "EV": 7,  # SU(8)
    "EVI": 7,  # Spin(12) x SU(2)
    "EVII": 7,  # E6 x U(1)
    "FI": 4,  # Sp(3) x SU(2)
    "FII": 4,  # Spin(9)
    "G": 2,  # SU(2) x SU(2)
}


def helgason_rank_k(label: str) -> int:
    if label in EXCEPTIONAL_RANK_K:
        return EXCEPTIONAL_RANK_K[label]
    family, args = label[:-1].split("(")
    a, _, b = args.partition(",")
    if b == "R":  # sl(n,R): SO(n); sp(n,R): U(n)
        return {"sl": int(a) // 2, "sp": int(a)}[family]
    if not b:  # su*(2n): Sp(n); so*(2n): U(n)
        return int(a) // 2
    p, q = int(a), int(b)
    # su(p,q): S(U(p) x U(q)); so(p,q): SO(p) x SO(q); sp(p,q): Sp(p) x Sp(q)
    return {"su": p + q - 1, "so": p // 2 + q // 2, "sp": p + q}[family]


# item 6's E6, E7, F4 and G2 diagrams, in _cartan_matrix numbering
EXCEPTIONAL_FORMS = (
    cr.diagram("EI", "E", 6), cr.diagram("EII", "E", 6, arrows=[(1, 6), (3, 5)]),
    cr.diagram("EIII", "E", 6, black=[3, 4, 5], arrows=[(1, 6)]),
    cr.diagram("EIV", "E", 6, black=[2, 3, 4, 5]), cr.diagram("EV", "E", 7),
    cr.diagram("EVI", "E", 7, black=[2, 5, 7]), cr.diagram("EVII", "E", 7, black=[2, 3, 4, 5]),
    cr.diagram("FI", "F", 4), cr.diagram("FII", "F", 4, black=[1, 2, 3]),
    cr.diagram("G", "G", 2),
)


@pytest.mark.parametrize("sd", builtin_catalog() + EXCEPTIONAL_FORMS, ids=lambda s: s.label)
def test_an_a0_class_exists_exactly_on_the_equal_rank_forms(sd):
    # rank K = rank U exactly when a class with a = 0 exists; it is then the
    # one open class, of codim_Y 0 and leaf_dim dim X, which is even
    assert validate(sd).passed
    report = atlas(sd)
    equal_rank = helgason_rank_k(sd.label) == sd.rank
    a0 = [class_fields(report.form, c) for c in report.classes if c[2] == 0]
    assert bool(a0) == equal_rank == report.has_open_leaves
    if equal_rank:
        (cls,) = a0
        assert cls["codim_Y"] == 0 and cls["is_open"]
        assert cls["leaf_dim"] == report.form.dim_x and cls["leaf_dim"] % 2 == 0


def test_the_forms_without_equal_rank():
    unequal = [sd.label for sd in builtin_catalog() + EXCEPTIONAL_FORMS
               if helgason_rank_k(sd.label) != sd.rank]
    assert unequal == ["sl(3,R)", "sl(4,R)", "sl(5,R)", "su*(4)", "so(7,1)", "so(5,3)",
                       "EI", "EIV"]
