"""Per-orbit-class leaf invariants and the full stratification report.

Classes are indexed by twisted involutions of the Weyl group. That indexing
over-approximates the true orbit set: a class may be shared by several real
orbits, and some twisted involutions are not realized by any orbit at all.
Unrealizable classes are kept in the report and flagged, never dropped.
"""
from __future__ import annotations

import hashlib
from typing import Callable, Iterator, NamedTuple

from .rootsys import DEFAULT_WEYL_CAP, Perm, RootSystem, WeylCapError
from .satake import RealFormData, SatakeDiagram, real_form_data


def _recorder(rf: RealFormData, rs: RootSystem) -> Callable[[Perm, int, int], dict]:
    """The class record builder of one form, with the form's constants bound
    once: record(v, codim_y, a) is the record of the twisted involution
    psi = v w_b, as the atlas JSON writes it, from its codim_Y and a, the
    dimension of the +1 eigenspace of the involution psi tau*; every other
    field follows.

    psi is kept as its lexicographically least reduced word, read with the
    trace off v(alpha_sigma(i)). codim_Y is the codimension of the orbit
    class on the flag variety; t and a are the toral and vector dimensions of
    the attached Cartan subalgebra; leaf_dim is the dimension of each leaf in
    the family and family_dim that of the torus parameterizing the family.
    """
    k = rs.permutations
    rank, roots, heights, tau_star, dim_x = rs.rank, k.roots, k.heights, rf.tau_star, rf.dim_x
    alpha_sigma = [k.simple[j] for j in rf.sigma]
    # an orbit has dimension 2N - codim_Y, and each of its leaves dim k0 - t less
    leaf_dim_at_codim_0 = 2 * k.npos - rf.dim_k0

    def record(v: Perm, codim_y: int, a: int) -> dict:
        t = rank - a
        images = [v[x] for x in alpha_sigma]  # v(alpha_sigma(i))
        # psi tau* = v w_b w_b sigma = v sigma is an involution, so a - t is its trace
        assert a - t == sum(roots[x][i] for i, x in enumerate(images))
        # psi^-1(alpha_j) = w_b sigma v sigma(alpha_j) = tau*(v(alpha_sigma(j)))
        word = k.word_from_heights([heights[tau_star[x]] for x in images])
        leaf_dim = leaf_dim_at_codim_0 - codim_y + t
        leaf_codim = dim_x - leaf_dim
        assert leaf_codim == a + codim_y
        return {
            "a": a,
            "codim_Y": codim_y,
            "dims_in_range": 0 <= leaf_dim <= dim_x,
            "family_dim": a,
            "is_closed_class": not word,
            "is_open": codim_y == 0 and a == 0,
            "leaf_codim": leaf_codim,
            "leaf_dim": leaf_dim,
            "parity_ok": leaf_dim % 2 == 0,
            "psi_word": word,
            "t": t,
        }

    return record


def realizable_candidate(record: dict) -> bool:
    """The necessary conditions for a class to carry actual leaves."""
    return record["parity_ok"] and record["dims_in_range"]


def twisted_involutions(
    rf: RealFormData, rs: RootSystem, cap: int = DEFAULT_WEYL_CAP
) -> Iterator[dict]:
    """The record (`_recorder`) of every psi in W with (psi tau*)^2 = 1.

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
    for c = s_i v sigma(s_i). Each class costs one product of permutations.

    The walk carries (l(v), a) for each v. Since psi w_b w_0 = v w_0,
    codim_Y = N - l(v). a is the dimension of the +1 eigenspace of
    psi tau* = v sigma: at the identity it is the number of sigma-orbits on
    the nodes, a conjugation move keeps it, and a multiplication move turns
    the eigenvalue of alpha_s from +1 to -1. Classes come in no set order.
    Raises WeylCapError once more than `cap` classes have been visited.
    """
    k = rs.permutations
    npos = k.npos
    alpha_sigma = [k.simple[j] for j in rf.sigma]
    # per node i: s_i, s_sigma(i), alpha_i, alpha_sigma(i), and for t < i the
    # roots that s_i v sends to c(alpha_sigma(t)), for c = s_i v and for
    # c = s_i v sigma(s_i)
    moves = [(k.reflections[i], k.reflections[j], k.simple[i], alpha_sigma[i], alpha_sigma[:i],
              [k.reflections[j][b] for b in alpha_sigma[:i]]) for i, j in enumerate(rf.sigma)]
    # sigma is an involution: its orbits are its fixed points and 2-cycles
    a_identity = sum(1 for i, j in enumerate(rf.sigma) if i <= j)
    todo: list[tuple[Perm, int, int]] = [(k.identity, 0, a_identity)]  # (v, l(v), a)
    record = _recorder(rf, rs)
    count = 0
    while todo:
        v, ell, a = todo.pop()
        count += 1
        if count > cap:
            raise WeylCapError(
                f"{rf.diagram.label}: number of twisted involutions exceeds cap {cap}",
                partial_count=cap,
            )
        yield record(v, npos - ell, a)
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
                    todo.append((tuple(map(s.__getitem__, v)), ell + 1, a - 1))
                else:
                    todo.append((tuple(map(s.__getitem__, map(v.__getitem__, s_sigma))),
                                 ell + 2, a))


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
