"""Satake diagrams, the induced root-space involution, dimension bookkeeping
for the real forms they encode, and the catalog of diagrams.

The dimensions are integers, dim p0 = real rank + N - l(w_b) (see
`real_form_data`), so no restricted root is ever built.

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

import os
import re
from functools import lru_cache
from typing import NamedTuple

from .rootsys import (
    Perm,
    RootSystem,
    UnsupportedCartanTypeError,
    WeylElement,
    build_root_system,
    longest_element,
)


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


@lru_cache(maxsize=None)
def _longest_element(family: str, rank: int) -> WeylElement:
    """w_0, shared by every diagram of the type."""
    return longest_element(_root_system(family, rank))


class RealFormData(NamedTuple):
    """Derived data of a real form: the involution and the dimensions, all
    integers."""

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
        w0=_longest_element(sd.family, sd.rank),
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
# diagrams of the realized families

def sl_real_diagram(n: int) -> SatakeDiagram:
    """sl(n,R): type A(n-1), plain."""
    return SatakeDiagram(f"sl({n},R)", "A", n - 1, frozenset(), frozenset())


def su_pq_diagram(p: int, q: int) -> SatakeDiagram:
    """su(p,q), p >= q: type A(p+q-1), arrows (i, p+q-i) for i <= q, middle
    nodes black."""
    n = p + q
    arrows = frozenset((i, n - i) for i in range(1, q + 1) if i != n - i)
    return SatakeDiagram(f"su({p},{q})", "A", n - 1, frozenset(range(q + 1, n - q)), arrows)


# ---------------------------------------------------------------------------
# catalog text format: stanzas of `key=value;` entries separated by blank lines

_KNOWN_KEYS = {"name", "type", "rank", "black", "arrows"}
# every number of the format (a rank, a node, an arrow's ends) is ASCII digits
_NUMBER_RE = re.compile(r"[0-9]+")
_TYPE_RE = re.compile(r"^([A-Ga-g])\s*([0-9]*)$")
_SET_RE = re.compile(r"^\{(.*)\}$")
_PAIR_RE = re.compile(r"^\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)$")
_PAREN_RE = re.compile(r"^\([^()]*\)$")
_COMMA_RE = re.compile(r",(?![^()]*\))")  # a comma outside parentheses


def _parse_type(text: str, rank: str | None, line: int | None = None,
                keys: tuple[str, str] = ("type=", "rank=")) -> tuple[str, int]:
    """(family, rank) from a Cartan type such as A2, or a bare family such as
    A with the rank given apart; a rank given in both places must agree.
    Messages name the type and the rank by keys, as their source spells them."""
    type_key, rank_key = keys
    tm = _TYPE_RE.match(text)
    if tm is None:
        raise CatalogParseError(f"bad type {text!r}", line)
    if rank is not None:
        if not _NUMBER_RE.fullmatch(rank):
            raise CatalogParseError(f"bad rank {rank!r}", line)
        rank = int(rank)
    if tm.group(2):
        if rank is not None and rank != int(tm.group(2)):
            raise CatalogParseError(f"{rank_key}{rank} disagrees with {type_key}{text}", line)
        rank = int(tm.group(2))
    elif rank is None:
        raise CatalogParseError(f"missing rank (use {type_key}A2 or {rank_key}2)", line)
    return tm.group(1).upper(), rank


def _set_items(text: str, kind: str, line: int | None) -> list[str]:
    """The items of a set literal: single commas between them, and none
    inside parentheses. Every set of the catalog format is read this way."""
    m = _SET_RE.match(text.strip())
    if m is None:
        raise CatalogParseError(f"expected a set literal, got {text!r}", line)
    body = m.group(1).strip()
    if not body:
        return []
    items = [item.strip() for item in _COMMA_RE.split(body)]
    if not all(items):
        raise CatalogParseError(f"bad {kind} set {text!r}", line)
    return items


def _parse_node_set(text: str, line: int | None = None) -> frozenset[int]:
    items = _set_items(text, "node", line)
    if not all(map(_NUMBER_RE.fullmatch, items)):
        raise CatalogParseError(f"bad node set {text!r}", line)
    return frozenset(map(int, items))


def _parse_arrow_set(text: str, line: int | None = None) -> frozenset[tuple[int, int]]:
    items = _set_items(text, "arrow", line)
    if not all(map(_PAREN_RE.match, items)):
        raise CatalogParseError(f"bad arrow set {text!r}", line)
    out = set()
    for item in items:
        pm = _PAIR_RE.match(item)
        if pm is None:
            raise CatalogParseError(f"bad arrow pair {item!r}", line)
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


#: The shipped catalog: the classical real forms up to rank 4. Its
#: `catalog_hash` is the hash of its text, so the file carries no comments.
BUILTIN_CATALOG = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")


def builtin_catalog() -> tuple[SatakeDiagram, ...]:
    """The diagrams of the shipped catalog file, `BUILTIN_CATALOG`."""
    with open(BUILTIN_CATALOG, encoding="utf-8") as fh:
        return load_catalog(fh.read())
