"""The reference for the shipped catalog: the classical families generated
parametrically up to rank CATALOG_MAX_RANK, and the stanza text they render
to, which `leafatlas/data/catalog.txt` must equal byte for byte (the
built-in `catalog_hash` is the hash of that text). Also `by_label`, the
tests' lookup of the built-in catalog by label.

Imported by the test modules; pytest does not collect it.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from leafatlas.satake import SatakeDiagram, builtin_catalog, sl_real_diagram, su_pq_diagram

CATALOG_MAX_RANK = 4


def diagram(label: str, family: str, rank: int,
            black: Iterable[int] = (), arrows: Iterable[tuple[int, int]] = ()) -> SatakeDiagram:
    pairs = frozenset(tuple(sorted(p)) for p in arrows)
    return SatakeDiagram(
        label=label, family=family, rank=rank,
        black=frozenset(black), arrows=pairs,
    )


def generated_catalog() -> tuple[SatakeDiagram, ...]:
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
            out.append(diagram(f"su*({2 * n})", "A", r, black=range(1, r + 1, 2)))

    # su(p,q), rank p+q-1
    for total in range(2, max_rank + 2):
        out += [su_pq_diagram(total - q, q) for q in range(1, total // 2 + 1)]

    # so(p,q) with p+q = 2n+1, rank n
    for n in range(2, max_rank + 1):
        for q in range(1, n + 1):
            p = 2 * n + 1 - q
            out.append(diagram(f"so({p},{q})", "B", n, black=range(q + 1, n + 1)))

    # sp(n,R), rank n
    for n in range(2, max_rank + 1):
        out.append(diagram(f"sp({n},R)", "C", n))

    # sp(p,q), rank p+q
    for total in range(2, max_rank + 1):
        for q in range(1, total // 2 + 1):
            p = total - q
            black = set(range(1, 2 * q, 2)) | set(range(2 * q + 1, total + 1))
            out.append(diagram(f"sp({p},{q})", "C", total, black=black))

    # so(p,q) with p+q = 2n, rank n
    for n in range(4, max_rank + 1):
        for q in range(1, n + 1):
            p = 2 * n - q
            if q == n:
                out.append(diagram(f"so({p},{q})", "D", n))
            elif q == n - 1:
                out.append(diagram(f"so({p},{q})", "D", n, arrows=[(n - 1, n)]))
            else:
                out.append(diagram(f"so({p},{q})", "D", n, black=range(q + 1, n + 1)))

    # so*(2n), rank n, n even here
    for n in range(4, max_rank + 1, 2):
        out.append(diagram(f"so*({2 * n})", "D", n, black=range(1, n, 2)))

    labels = [sd.label for sd in out]
    assert len(labels) == len(set(labels))
    return tuple(out)


def render_catalog(diagrams: Sequence[SatakeDiagram]) -> str:
    """Render diagrams in the stanza format accepted by load_catalog."""
    return "\n\n".join(f"name={sd.label}; {sd.describe()}" for sd in diagrams) + "\n"


def by_label() -> dict[str, SatakeDiagram]:
    """The built-in catalog's diagrams by label."""
    return {sd.label: sd for sd in builtin_catalog()}
