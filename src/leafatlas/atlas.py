"""Per-orbit-class leaf invariants and the full stratification report.

Classes are indexed by twisted involutions of the Weyl group. That indexing
over-approximates the true orbit set: a class may be shared by several real
orbits, and some twisted involutions are not realized by any orbit at all.
Unrealizable classes are kept in the report and flagged, never dropped.
"""
from __future__ import annotations

import hashlib
from typing import Iterator, NamedTuple

from .rootsys import Perm, RootSystem, Word
from .satake import RealFormData, SatakeDiagram, real_form_data


#: A class record, (codim_Y, psi_word, a): two ints and a `bytes` word, which the
#: cyclic collector stops tracking at its first collection. Records sort natively
#: in report order, as a word identifies its class; `class_fields` gives the rest.
Record = tuple[int, Word, int]


def class_fields(rf: RealFormData, record: Record) -> dict:
    """A class record's fields, as the atlas JSON writes them: t and a are the
    toral and vector dimensions of the attached Cartan subalgebra, leaf_dim that
    of each leaf and family_dim that of the torus parameterizing the family.
    Only psi_word and is_closed_class depend on the word."""
    codim_y, word, a = record
    rank, dim_x = rf.diagram.rank, rf.dim_x
    t = rank - a
    # an orbit has dimension 2N - codim_Y = dim g - rank - codim_Y, a leaf dim k0 - t less
    leaf_dim = rf.dim_g - rank - codim_y - rf.dim_k0 + t
    leaf_codim = dim_x - leaf_dim
    assert leaf_codim == a + codim_y
    return {"a": a, "codim_Y": codim_y, "dims_in_range": 0 <= leaf_dim <= dim_x,
            "family_dim": a, "is_closed_class": not word, "is_open": codim_y == 0 and a == 0,
            "leaf_codim": leaf_codim, "leaf_dim": leaf_dim, "parity_ok": leaf_dim % 2 == 0,
            "psi_word": word, "t": t}


def realizable_candidate(fields: dict) -> bool:
    """The necessary conditions for a class (`class_fields`) to carry leaves."""
    return fields["parity_ok"] and fields["dims_in_range"]


def twisted_involutions(rf: RealFormData, rs: RootSystem) -> Iterator[Record]:
    """The record of every psi in W with (psi tau*)^2 = 1.

    With tau* = w_b sigma, psi is a twisted involution exactly when
    v = psi w_b satisfies sigma v sigma = v^-1. Those v are the orbit of the
    identity under the moves v -> s v sigma(s), or v -> s v when
    s v sigma(s) = v (Richardson-Springer, Geom. Dedicata 35, 1990; Hultman,
    Adv. Math. 195, 2005). The move along a simple s_i that is not a left
    descent of v gives a child c with s_i as a left descent, and leads back
    from c to v. So each v but e has one canonical parent, the move down
    along its least left descent: the walk keeps the child along s_i only if
    c(alpha_sigma(t)) > 0 for all t < i (c^-1 = sigma c sigma), a lookup,
    s_i[v[alpha_sigma(t)]] for c = s_i v, s_i[v[s_sigma(i)[alpha_sigma(t)]]]
    for c = s_i v sigma(s_i). Each class costs one product of permutations,
    one `bytes.translate` (two for a conjugation), with s_i padded to a
    translation table once per form as `RootPermutations.compose` pads p.

    The walk carries (l(v), a) for each v. Since psi w_b w_0 = v w_0,
    codim_Y = N - l(v). a is the dimension of the +1 eigenspace of
    psi tau* = v sigma: at the identity it is the number of sigma-orbits on
    the nodes, a conjugation move keeps it, and a multiplication move turns
    the eigenvalue of alpha_s from +1 to -1. psi is kept as its
    lexicographically least reduced word (`rootsys.Word`), read with the trace
    off v(alpha_sigma(i)). Classes come in no set order.
    """
    k = rs.permutations
    npos, pad, rank, roots = k.npos, k.pad, rs.rank, k.roots
    alpha_sigma = [k.simple[j] for j in rf.sigma]
    tau_heights = [k.heights[t] for t in rf.tau_star]  # the height of tau*(root j)
    # per node i: s_i padded to a translation table, s_sigma(i), alpha_i,
    # alpha_sigma(i), and for t < i the roots that s_i v sends to
    # c(alpha_sigma(t)), for c = s_i v and for c = s_i v sigma(s_i)
    moves = [(k.reflections[i] + pad, k.reflections[j], k.simple[i], alpha_sigma[i],
              alpha_sigma[:i], [k.reflections[j][b] for b in alpha_sigma[:i]])
             for i, j in enumerate(rf.sigma)]
    # sigma is an involution: its orbits are its fixed points and 2-cycles
    a_identity = sum(1 for i, j in enumerate(rf.sigma) if i <= j)
    todo: list[tuple[Perm, int, int]] = [(k.identity, 0, a_identity)]  # (v, l(v), a)
    while todo:
        v, ell, a = todo.pop()
        images = [v[x] for x in alpha_sigma]  # v(alpha_sigma(i))
        # psi tau* = v w_b w_b sigma = v sigma is an involution with a
        # eigenvalues +1 and t = rank - a eigenvalues -1, so a - t is its trace
        assert 2 * a - rank == sum(roots[x][i] for i, x in enumerate(images))
        # psi^-1(alpha_j) = w_b sigma v sigma(alpha_j) = tau*(v(alpha_sigma(j)))
        yield npos - ell, k.word_from_heights([tau_heights[x] for x in images]), a
        for s, s_sigma, alpha, alpha_sigma_i, earlier, earlier_conj in moves:
            # s_i is a left descent of v iff v^-1 = sigma v sigma sends
            # alpha_i to a negative root, iff v does so to alpha_sigma(i)
            image = v[alpha_sigma_i]
            if image >= npos:
                continue
            # s v sigma(s) = v iff v sigma(s) v^-1, the reflection in
            # v(alpha_sigma(i)) > 0, is s_i, iff v(alpha_sigma(i)) = alpha_i
            multiplication = image == alpha
            for b in earlier if multiplication else earlier_conj:
                if s[v[b]] >= npos:
                    break
            else:  # s_i is the least left descent of the child
                if multiplication:
                    todo.append((v.translate(s), ell + 1, a - 1))
                else:
                    todo.append((s_sigma.translate(v + pad).translate(s), ell + 2, a))


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


class AtlasReport(NamedTuple):
    """The complete stratification data for one real form."""

    form: RealFormData
    classes: tuple[Record, ...]  # class records, sorted
    largest_leaf_class: int  # index into classes
    catalog_hash: str

    @property
    def label(self) -> str:
        return self.form.diagram.label

    @property
    def has_open_leaves(self) -> bool:
        # classes[0] is the one class at codim_Y 0, that of w_0 w_b: open if a = 0
        return self.classes[0][2] == 0

    @property
    def notes(self) -> tuple[str, ...]:
        if self.has_open_leaves:
            return NOTE_CONTRACTIBLE, NOTE_OPEN_LEAVES, NOTE_CLASS_CAVEAT, NOTE_LARGEST
        return NOTE_CONTRACTIBLE, NOTE_CLASS_CAVEAT, NOTE_LARGEST


def atlas(sd: SatakeDiagram, catalog_hash: str = "") -> AtlasReport:
    """Run the full pipeline for one diagram and assemble the report."""
    rs = sd.root_system()
    rf = real_form_data(sd)
    classes = sorted(twisted_involutions(rf, rs))
    assert sum(not word for _, word, _ in classes) == 1
    assert classes[0][0] == 0
    # leaf_dim = dim X - leaf_codim, so whether a class can carry leaves rests on
    # its leaf_codim = codim_Y + a alone; the largest have the least such (0 for
    # the open class, which comes first)
    least = min(x for x in {codim_y + a for codim_y, _, a in classes}
                if realizable_candidate(class_fields(rf, (x, b"", 0))))
    largest = next(i for i, (codim_y, _, a) in enumerate(classes) if codim_y + a == least)
    return AtlasReport(form=rf, classes=tuple(classes),
                       largest_leaf_class=largest, catalog_hash=catalog_hash)


def catalog_text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
