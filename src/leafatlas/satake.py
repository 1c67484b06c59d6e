"""Satake diagrams, the induced root-space involution, restricted roots and
dimension bookkeeping for the real forms they encode.

The dimensions are integers, dim p0 = real rank + N - l(w_b) (see
`real_form_data`). The restricted roots, as `Fraction` vectors, are built
only on request (`RealFormData.restricted`), so the atlas and catalog paths
never import `fractions`.

The involution is never stored in a catalog: it is always reconstructed as
w_b composed with the node permutation sigma (arrows on white nodes, the
opposition involution of the black subdiagram on black nodes). Building
sigma is the one admissibility rule: `node_permutation` tests Araki's
conditions, so a decorated diagram has `RealFormData` iff it is a Satake
diagram. What tau* = w_b . sigma then satisfies (it is an involution, it
negates exactly the black simple roots, it sends each positive root to a
positive root or to its own negative) follows from those conditions and is
not checked again.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .rootsys import (
    Perm,
    RootSystem,
    UnsupportedCartanTypeError,
    WeylElement,
    build_root_system,
    longest_element,
)

if TYPE_CHECKING:
    from fractions import Fraction

    FracVector = tuple[Fraction, ...]


class SatakeError(ValueError):
    """Base class for malformed or inadmissible diagram data."""


class InconsistentSatakeError(SatakeError):
    """The decorated diagram does not define a valid involution."""


class CompactFormError(SatakeError):
    """All-black diagrams encode compact forms, which have no leaf geometry here."""


class CatalogParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SatakeDiagram(NamedTuple):
    """A Dynkin diagram decorated with black nodes and an arrow involution."""

    label: str
    family: str
    rank: int
    black: frozenset[int]
    arrows: frozenset[tuple[int, int]]  # sorted pairs of white nodes

    def root_system(self) -> RootSystem:
        return _root_system(self.family, self.rank)

    def describe(self) -> str:
        """The diagram in the catalog's key=value format, without its name."""
        black = "{" + ",".join(str(i) for i in sorted(self.black)) + "}"
        arrows = "{" + ",".join(f"({a},{b})" for a, b in sorted(self.arrows)) + "}"
        return f"type={self.family}{self.rank}; black={black}; arrows={arrows}"


@lru_cache(maxsize=None)
def _root_system(family: str, rank: int) -> RootSystem:
    return build_root_system(family, rank)


class RealFormData(NamedTuple):
    """Derived data of a real form: the involution and the dimensions, all
    integers; the restricted roots are built the first time they are read."""

    diagram: SatakeDiagram
    tau_star: Perm  # w_b . sigma, a permutation of the roots
    sigma: tuple[int, ...]  # node permutation, 0-based images
    w_b: WeylElement
    w0: WeylElement
    real_rank: int
    dim_g: int
    dim_k0: int
    dim_p0: int

    @property
    def dim_x(self) -> int:
        return self.dim_p0

    @property
    def restricted(self) -> dict[FracVector, int]:
        """The restricted roots, both signs, with multiplicities: each root
        alpha restricts to its projection (alpha + tau* alpha)/2 onto the +1
        eigenspace of tau*."""
        return _restricted_roots(self)

    def positive_restricted(self) -> dict[FracVector, int]:
        return {lam: m for lam, m in self.restricted.items() if all(x >= 0 for x in lam)}


@lru_cache(maxsize=None)
def _restricted_roots(rf: RealFormData) -> dict[FracVector, int]:
    """RealFormData.restricted, built once per real form."""
    from fractions import Fraction

    k = rf.diagram.root_system().permutations
    mult: dict[FracVector, int] = {}
    for j in range(k.npos):
        for root in (j, j + k.npos):
            lam = tuple(Fraction(a + b, 2)
                        for a, b in zip(k.roots[root], k.roots[rf.tau_star[root]]))
            if any(x != 0 for x in lam):
                mult[lam] = mult.get(lam, 0) + 1
    return mult


def _structural_check(sd: SatakeDiagram) -> None:
    try:
        sd.root_system()
    except UnsupportedCartanTypeError as exc:
        raise SatakeError(f"{sd.label}: {exc}") from None
    nodes = set(range(1, sd.rank + 1))
    if not sd.black <= nodes:
        raise SatakeError(f"{sd.label}: black nodes {sorted(sd.black)} outside diagram")
    touched: set[int] = set()
    for a, b in sd.arrows:
        if a == b or not {a, b} <= nodes:
            raise SatakeError(f"{sd.label}: invalid arrow ({a},{b})")
        if {a, b} & sd.black:
            raise SatakeError(f"{sd.label}: arrow ({a},{b}) touches a black node")
        if {a, b} & touched:
            raise SatakeError(f"{sd.label}: node paired by more than one arrow")
        touched |= {a, b}
    if sd.black == nodes and not sd.arrows:
        raise CompactFormError(
            f"{sd.label}: all-black diagram encodes a compact real form"
        )


def node_permutation(sd: SatakeDiagram, wb: WeylElement) -> tuple[int, ...]:
    """The permutation sigma, 0-based, after testing Araki's conditions on a
    Satake diagram with black set X (Kolb's admissible pairs, which for
    finite type are exactly Araki's diagrams):

    - on X, sigma is -w_X, read off the longest element w_b = w_X; this
      holds by construction;
    - with the arrows on the white nodes, sigma is an automorphism of the
      Dynkin diagram;
    - each white node j that sigma fixes pairs to an integer with rho_X^v,
      half the sum of the positive coroots of X. Since w_X rho_X^v = -rho_X^v
      and <rho_X^v, alpha_i> = 1 for i in X, <rho_X^v, alpha_j> is
      -(ht w_b(alpha_j) - 1)/2, so the height must be odd.

    A failed condition raises InconsistentSatakeError naming it."""
    k = sd.root_system().permutations
    perm = list(range(sd.rank))
    for a, b in sd.arrows:
        perm[a - 1] = b - 1
        perm[b - 1] = a - 1
    for j in sd.black:  # -w_b(alpha_j) is the simple root alpha_sigma(j)
        perm[j - 1] = k.simple.index(wb.perm[k.simple[j - 1]] - k.npos)
    cartan = sd.root_system().cartan_matrix
    if any(cartan[perm[i]][perm[j]] != cartan[i][j]
           for i in range(sd.rank) for j in range(sd.rank)):
        raise InconsistentSatakeError(
            f"{sd.label}: arrows and black nodes do not give a diagram automorphism"
        )
    for j in range(sd.rank):
        height = k.heights[wb.perm[k.simple[j]]]
        if perm[j] == j and height % 2 == 0:  # a black node has height -1
            raise InconsistentSatakeError(
                f"{sd.label}: white node {j + 1} has no arrow, but "
                f"<rho_X^v, alpha_{j + 1}> = {1 - height}/2 is not an integer "
                f"for the black nodes X = {sorted(sd.black)}"
            )
    return tuple(perm)


@lru_cache(maxsize=None)
def real_form_data(sd: SatakeDiagram) -> RealFormData:
    """The one construction of a diagram's involution data: w_b, sigma,
    tau* = w_b . sigma and w_0, then the real rank and the dimensions, from
    integers alone. tau* negates the l(w_b) positive roots of the black
    subsystem and keeps every other positive root positive, so the positive
    restricted roots number N - l(w_b) with multiplicity and
    dim p0 = real rank + N - l(w_b). Consumers read these fields instead of
    rebuilding them; the result is built once per diagram and shared, so no
    caller may modify it.
    """
    _structural_check(sd)
    rs = sd.root_system()
    k = rs.permutations
    wb = longest_element(rs, sd.black)
    perm = node_permutation(sd, wb)
    tau = k.compose(wb.perm, k.automorphism(perm))

    real_rank = (rs.rank + k.trace(tau)) // 2  # tau* is an involution
    dim_g = rs.rank + 2 * k.npos
    dim_p0 = real_rank + k.npos - len(wb.word)

    return RealFormData(
        diagram=sd,
        tau_star=tau,
        sigma=perm,
        w_b=wb,
        w0=longest_element(rs),
        real_rank=real_rank,
        dim_g=dim_g,
        dim_k0=dim_g - dim_p0,
        dim_p0=dim_p0,
    )


# ---------------------------------------------------------------------------
# validation

class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    label: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate(sd: SatakeDiagram) -> ValidationReport:
    """The two records of a diagram: `structure` (a supported Cartan type,
    nodes and arrows in range, not all black) and `involution` (Araki's
    conditions, tested by `node_permutation`). The second runs only after the
    first passes.

    Failures are reported as data, not exceptions: a catalog entry that is
    not a Satake diagram gets a report with a failed record.
    """
    checks: list[CheckResult] = []
    for name, step in (("structure", _structural_check), ("involution", real_form_data)):
        try:
            step(sd)
        except SatakeError as exc:
            checks.append(CheckResult(name, False, str(exc)))
            break
        checks.append(CheckResult(name, True))
    return ValidationReport(sd.label, tuple(checks))


# ---------------------------------------------------------------------------
# built-in catalog of classical real forms, instantiated up to rank 4

CATALOG_MAX_RANK = 4


def _diagram(label: str, family: str, rank: int,
             black: Iterable[int] = (), arrows: Iterable[tuple[int, int]] = ()) -> SatakeDiagram:
    pairs = frozenset(tuple(sorted(p)) for p in arrows)
    return SatakeDiagram(
        label=label, family=family, rank=rank,
        black=frozenset(black), arrows=pairs,
    )


def sl_real_diagram(n: int) -> SatakeDiagram:
    """sl(n,R): type A(n-1), plain."""
    return _diagram(f"sl({n},R)", "A", n - 1)


def su_pq_diagram(p: int, q: int) -> SatakeDiagram:
    """su(p,q), p >= q: type A(p+q-1), arrows (i, p+q-i) for i <= q, middle
    nodes black."""
    n = p + q
    arrows = [(i, n - i) for i in range(1, q + 1) if i != n - i]
    return _diagram(f"su({p},{q})", "A", n - 1, black=range(q + 1, n - q), arrows=arrows)


def builtin_catalog() -> tuple[SatakeDiagram, ...]:
    """Classical families generated parametrically, up to rank CATALOG_MAX_RANK.

    sl(n,R), su(p,q): `sl_real_diagram`, `su_pq_diagram`.
    su*(2n): type A(2n-1), odd nodes black.
    so(p,q), p+q odd: type B, nodes beyond q black.
    so(p,q), p+q even: type D; split, fork arrow, or black tail.
    sp(n,R): type C, plain.
    sp(p,q): type C(p+q), alternating black from node 1, black tail if p > q.
    so*(2n): type D(n), odd chain nodes black (n even).
    """
    max_rank = CATALOG_MAX_RANK
    out: list[SatakeDiagram] = [sl_real_diagram(n) for n in range(2, max_rank + 2)]

    # su*(2n), rank 2n-1
    for n in range(2, max_rank // 2 + 2):
        r = 2 * n - 1
        if r <= max_rank:
            out.append(_diagram(f"su*({2 * n})", "A", r, black=range(1, r + 1, 2)))

    # su(p,q), rank p+q-1
    for total in range(2, max_rank + 2):
        out += [su_pq_diagram(total - q, q) for q in range(1, total // 2 + 1)]

    # so(p,q) with p+q = 2n+1, rank n
    for n in range(2, max_rank + 1):
        for q in range(1, n + 1):
            p = 2 * n + 1 - q
            out.append(_diagram(f"so({p},{q})", "B", n, black=range(q + 1, n + 1)))

    # sp(n,R), rank n
    for n in range(2, max_rank + 1):
        out.append(_diagram(f"sp({n},R)", "C", n))

    # sp(p,q), rank p+q
    for total in range(2, max_rank + 1):
        for q in range(1, total // 2 + 1):
            p = total - q
            black = set(range(1, 2 * q, 2)) | set(range(2 * q + 1, total + 1))
            out.append(_diagram(f"sp({p},{q})", "C", total, black=black))

    # so(p,q) with p+q = 2n, rank n
    for n in range(4, max_rank + 1):
        for q in range(1, n + 1):
            p = 2 * n - q
            if q == n:
                out.append(_diagram(f"so({p},{q})", "D", n))
            elif q == n - 1:
                out.append(_diagram(f"so({p},{q})", "D", n, arrows=[(n - 1, n)]))
            else:
                out.append(_diagram(f"so({p},{q})", "D", n, black=range(q + 1, n + 1)))

    # so*(2n), rank n, n even here
    for n in range(4, max_rank + 1, 2):
        out.append(_diagram(f"so*({2 * n})", "D", n, black=range(1, n, 2)))

    labels = [sd.label for sd in out]
    assert len(labels) == len(set(labels))
    return tuple(out)


def catalog_by_label(
    catalog: Sequence[SatakeDiagram] | None = None,
) -> dict[str, SatakeDiagram]:
    entries = builtin_catalog() if catalog is None else catalog
    return {sd.label: sd for sd in entries}


# ---------------------------------------------------------------------------
# catalog text format: stanzas of `key=value;` entries separated by blank lines

_KNOWN_KEYS = {"name", "type", "rank", "black", "arrows"}
_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d*)$")
_SET_RE = re.compile(r"^\{(.*)\}$")
_PAIR_RE = re.compile(r"^\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def _parse_type(text: str, rank: int | str | None, line: int | None = None,
                keys: tuple[str, str] = ("type=", "rank=")) -> tuple[str, int]:
    """(family, rank) from a Cartan type such as A2, or a bare family such as
    A with the rank given apart; a rank given in both places must agree.
    Messages name the type and the rank by keys, as their source spells them."""
    type_key, rank_key = keys
    tm = _TYPE_RE.match(text)
    if tm is None:
        raise CatalogParseError(f"bad type {text!r}", line)
    if rank is not None:
        try:
            rank = int(rank)
        except ValueError:
            raise CatalogParseError(f"bad rank {rank!r}", line) from None
    if tm.group(2):
        if rank is not None and rank != int(tm.group(2)):
            raise CatalogParseError(f"{rank_key}{rank} disagrees with {type_key}{text}", line)
        rank = int(tm.group(2))
    elif rank is None:
        raise CatalogParseError(f"missing rank (use {type_key}A2 or {rank_key}2)", line)
    return tm.group(1).upper(), rank


def _parse_node_set(text: str, line: int | None = None) -> frozenset[int]:
    m = _SET_RE.match(text.strip())
    if m is None:
        raise CatalogParseError(f"expected a set literal, got {text!r}", line)
    body = m.group(1).strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(tok) for tok in body.split(","))
    except ValueError:
        raise CatalogParseError(f"bad node set {text!r}", line) from None


def _parse_arrow_set(text: str, line: int | None = None) -> frozenset[tuple[int, int]]:
    m = _SET_RE.match(text.strip())
    if m is None:
        raise CatalogParseError(f"expected a set literal, got {text!r}", line)
    body = m.group(1).strip()
    if not body:
        return frozenset()
    pairs = re.findall(r"\([^()]*\)", body)
    rest = re.sub(r"\([^()]*\)", "", body).replace(",", "").strip()
    if not pairs or rest:
        raise CatalogParseError(f"bad arrow set {text!r}", line)
    out = set()
    for pair in pairs:
        pm = _PAIR_RE.match(pair)
        if pm is None:
            raise CatalogParseError(f"bad arrow pair {pair!r}", line)
        a, b = int(pm.group(1)), int(pm.group(2))
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def load_catalog(source: str) -> tuple[SatakeDiagram, ...]:
    """Parse catalog text into diagrams; structure is parsed, not validated."""
    stanzas: list[tuple[int, dict[str, str]]] = []
    current: dict[str, str] = {}
    current_line = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                stanzas.append((current_line, current))
                current = {}
            continue
        if not current:
            current_line = lineno
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise CatalogParseError(f"expected key=value, got {chunk!r}", lineno)
            key, _, value = chunk.partition("=")
            key = key.strip().lower()
            if key not in _KNOWN_KEYS:
                raise CatalogParseError(f"unknown key {key!r}", lineno)
            if key in current:
                raise CatalogParseError(f"duplicate key {key!r} in stanza", lineno)
            current[key] = value.strip()
    if current:
        stanzas.append((current_line, current))

    diagrams: list[SatakeDiagram] = []
    seen_labels: set[str] = set()
    for line, fields in stanzas:
        if "name" not in fields or "type" not in fields:
            raise CatalogParseError("stanza needs at least name= and type=", line)
        label = fields["name"]
        if not label:  # an empty label could never be selected with --form
            raise CatalogParseError("empty name", line)
        if label in seen_labels:
            raise CatalogParseError(f"duplicate label {label!r}", line)
        seen_labels.add(label)
        family, rank = _parse_type(fields["type"], fields.get("rank"), line)
        black = _parse_node_set(fields.get("black", "{}"), line)
        arrows = _parse_arrow_set(fields.get("arrows", "{}"), line)
        diagrams.append(
            SatakeDiagram(
                label=label, family=family, rank=rank,
                black=black, arrows=arrows,
            )
        )
    return tuple(diagrams)


def render_catalog(diagrams: Sequence[SatakeDiagram]) -> str:
    """Render diagrams in the stanza format accepted by load_catalog."""
    return "\n\n".join(f"name={sd.label}; {sd.describe()}" for sd in diagrams) + "\n"
