"""Per-orbit-class leaf invariants and the full stratification report.

Classes are indexed by twisted involutions of the Weyl group. That indexing
over-approximates the true orbit set: a class may be shared by several real
orbits, and some twisted involutions are not realized by any orbit at all.
Unrealizable classes are kept in the report and flagged, never dropped.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

from .rootsys import DEFAULT_WEYL_CAP, Perm, RootSystem, WeylCapError
from .satake import RealFormData, SatakeDiagram, real_form_data


def class_record(rf: RealFormData, rs: RootSystem, psi: Perm,
                 codim_y: int, a: int) -> dict:
    """The record of the twisted involution psi, as the atlas JSON writes it,
    from its codim_Y and a, the dimension of the +1 eigenspace of the
    involution psi tau*; every other field follows.

    psi is kept as its lexicographically least reduced word. codim_Y is the
    codimension of the corresponding orbit class on the flag variety; t and a
    are the toral and vector dimensions of the attached Cartan subalgebra;
    leaf_dim is the dimension of each leaf in the family and family_dim the
    dimension of the torus parameterizing the family.
    """
    k = rs.permutations
    t = rs.rank - a
    # psi tau* is an involution, so a - t is its trace
    assert a - t == k.trace(k.compose(psi, rf.tau_star))
    word = k.reduced_word(psi)
    dim_orbit = 2 * len(rs.positive_roots) - codim_y
    leaf_dim = dim_orbit - rf.dim_k0 + t
    leaf_codim = rf.dim_x - leaf_dim
    assert leaf_codim == a + codim_y
    return {
        "a": a,
        "codim_Y": codim_y,
        "dims_in_range": 0 <= leaf_dim <= rf.dim_x,
        "family_dim": a,
        "is_closed_class": not word,
        "is_open": codim_y == 0 and a == 0,
        "leaf_codim": leaf_codim,
        "leaf_dim": leaf_dim,
        "parity_ok": leaf_dim % 2 == 0,
        "psi_word": word,
        "t": t,
    }


def realizable_candidate(record: dict) -> bool:
    """The necessary conditions for a class to carry actual leaves."""
    return record["parity_ok"] and record["dims_in_range"]


def twisted_involutions(
    rf: RealFormData, rs: RootSystem, cap: int = DEFAULT_WEYL_CAP
) -> Iterator[dict]:
    """The record (`class_record`) of every psi in W with (psi tau*)^2 = 1.

    With tau* = w_b sigma, psi is a twisted involution exactly when
    v = psi w_b satisfies sigma v sigma = v^-1. Those v are the orbit of the
    identity under the moves v -> s v sigma(s), or v -> s v when
    s v sigma(s) = v (Richardson-Springer, Geom. Dedicata 35, 1990; Hultman,
    Adv. Math. 195, 2005), and each v other than the identity is reached by
    such a move along a simple s that is not a left descent, so the walk only
    goes up: a conjugation move raises l(v) by 2, a multiplication move by 1.

    The walk carries (l(v), a) for each v. Since psi w_b w_0 = v w_0,
    codim_Y = N - l(v). a is the dimension of the +1 eigenspace of
    psi tau* = v sigma: at the identity it is the number of sigma-orbits on
    the nodes, a conjugation move keeps it, and a multiplication move turns
    the eigenvalue of alpha_s from +1 to -1. Classes are visited in order of
    l(v), so only the two layers above the current one are remembered.
    Raises WeylCapError once more than `cap` twisted involutions have been
    visited.
    """
    k = rs.permutations
    npos = k.npos
    wb = rf.w_b.perm
    twisted = [(k.reflections[i], k.reflections[j], k.simple[i], k.simple[j])
               for i, j in enumerate(rf.sigma)]
    # sigma is an involution: its orbits are its fixed points and 2-cycles
    a_identity = sum(1 for i, j in enumerate(rf.sigma) if i <= j)
    # layers[d] maps each v of length ell + d found so far to its a
    layers: list[dict[Perm, int]] = [{k.identity: a_identity}, {}, {}]
    ell = 0
    count = 0
    while any(layers):
        current = layers.pop(0)
        layers.append({})
        for v, a in current.items():
            count += 1
            if count > cap:
                raise WeylCapError(
                    f"{rf.diagram.label}: number of twisted involutions exceeds cap {cap}",
                    partial_count=cap,
                )
            yield class_record(rf, rs, k.compose(v, wb), npos - ell, a)
            for s, s_sigma, alpha, alpha_sigma in twisted:
                # s_i is a left descent of v iff v^-1 = sigma v sigma sends
                # alpha_i to a negative root, iff v does so to alpha_sigma(i)
                image = v[alpha_sigma]
                if image >= npos:
                    continue
                sv = k.compose(s, v)
                # s v sigma(s) = v iff v sigma(s) v^-1, the reflection in
                # v(alpha_sigma(i)) > 0, is s_i, iff v(alpha_sigma(i)) = alpha_i
                if image == alpha:
                    layers[0].setdefault(sv, a - 1)
                else:
                    layers[1].setdefault(k.compose(sv, s_sigma), a)
        ell += 1


NOTE_CONTRACTIBLE = "every symplectic leaf is contractible"
NOTE_OPEN_LEAVES = (
    "open leaves exist; each open leaf is diffeomorphic to the noncompact dual "
    "symmetric space, and their number equals the number of open real-group "
    "orbits on the flag variety (not computed per class)"
)
NOTE_LARGEST = (
    "largest leaves are diffeomorphic to a solvable factor A'N of an Iwasawa "
    "decomposition"
)
NOTE_CLASS_CAVEAT = (
    "classes are keyed by twisted involutions; a class may correspond to "
    "several orbits, and flagged classes (parity or dimension range) are "
    "retained but cannot be realized by leaves"
)
NOTE_OPEN_COUNT = (
    "open-leaf count equals the open-orbit count on the flag variety; "
    "per-class orbit multiplicities are not computed"
)


@dataclass(frozen=True)
class AtlasReport:
    """The complete stratification data for one real form."""

    form: RealFormData
    classes: tuple[dict, ...]  # class records in (codim_Y, psi_word) order
    largest_leaf_class: int  # index into classes
    catalog_hash: str

    @property
    def label(self) -> str:
        return self.form.diagram.label

    @property
    def has_open_leaves(self) -> bool:
        # classes[0] is the unique class with codim_Y = 0, that of w_0 w_b
        return self.classes[0]["is_open"]

    @property
    def notes(self) -> tuple[str, ...]:
        if self.has_open_leaves:
            return NOTE_CONTRACTIBLE, NOTE_OPEN_LEAVES, NOTE_CLASS_CAVEAT, NOTE_LARGEST
        return NOTE_CONTRACTIBLE, NOTE_CLASS_CAVEAT, NOTE_LARGEST


def atlas(
    sd: SatakeDiagram,
    weyl_cap: int = DEFAULT_WEYL_CAP,
    catalog_hash: str = "",
) -> AtlasReport:
    """Run the full pipeline for one diagram and assemble the report."""
    rs = sd.root_system()
    rf = real_form_data(sd)
    classes = sorted(twisted_involutions(rf, rs, cap=weyl_cap),
                     key=lambda c: (c["codim_Y"], c["psi_word"]))
    assert sum(c["is_closed_class"] for c in classes) == 1
    assert classes[0]["codim_Y"] == 0
    # the open class, when there is one, has leaf_codim 0 and comes first
    largest = min((c["leaf_codim"], i) for i, c in enumerate(classes)
                  if realizable_candidate(c))[1]
    return AtlasReport(form=rf, classes=tuple(classes),
                       largest_leaf_class=largest, catalog_hash=catalog_hash)


def catalog_text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
