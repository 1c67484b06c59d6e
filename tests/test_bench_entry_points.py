"""Smoke test of the benchmark's entry points: `bench/onepass.py` resolves and
runs the forms of each workload through the same public API that the
benchmark times, and every atlas document it produces matches
`bench/golden.json`; every function that `bench/tracer.py` traces exists in
the package, apart from a known list of stale targets."""
import hashlib
import importlib
import json
from pathlib import Path

import pytest

from tracer_targets import tracer_targets

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def onepass():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # onepass imports its sibling `speed`
        yield importlib.import_module("onepass")


@pytest.mark.parametrize("workload", ["atlas-large", "atlas-catalog"])
def test_atlas_workloads_match_the_golden_documents(onepass, workload):
    forms, catalog_hash = onepass._load_forms(workload, seed=0)
    assert sorted(sd.label for sd in forms) == sorted(onepass.form_labels(workload))
    mismatched = []
    for sd in forms:
        out = onepass.run_form(workload, sd, catalog_hash, seed=0)
        if hashlib.sha256(out["document"].encode("utf-8")).hexdigest() != GOLDEN[sd.label]:
            mismatched.append(sd.label)
    assert mismatched == []


def test_atlas_catalog_builds_the_tables_once_per_cartan_type(onepass, monkeypatch):
    # the 32 forms fall on 11 Cartan types: each type's root system and root
    # permutations are built once, from empty caches, and shared by its forms
    from leafatlas import rootsys, satake

    built, tabled = [], []
    build, init = rootsys.build_root_system, rootsys.RootPermutations.__init__

    def counting_build(family, rank):
        built.append((family, rank))
        return build(family, rank)

    def counting_init(self, rs):
        tabled.append((rs.family, rs.rank))
        init(self, rs)

    monkeypatch.setattr(satake, "build_root_system", counting_build)
    satake._root_system.cache_clear()  # refilled by the pass, as in a fresh process
    monkeypatch.setattr(rootsys, "_PERMUTATIONS", {})
    monkeypatch.setattr(rootsys.RootPermutations, "__init__", counting_init)
    forms, catalog_hash = onepass._load_forms("atlas-catalog", seed=0)
    assert len(forms) == 32
    for sd in forms:
        onepass.run_form("atlas-catalog", sd, catalog_hash, seed=0)
    types = {(sd.family, sd.rank) for sd in forms}
    assert len(types) == 11
    assert len(built) == len(tabled) == 11
    assert set(built) == set(tabled) == types


VERIFY_FORMS = {
    "verify-split": ("sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)"),
    "verify-supq": ("su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)"),
}


@pytest.mark.parametrize("workload,label", [(workload, label)
                                            for workload, labels in VERIFY_FORMS.items()
                                            for label in labels])
def test_verify_workloads_pass_every_check(onepass, workload, label):
    # every form of both verify workloads at seeds 0-10, which cover the
    # benchmark's seeds: a draw that fails a check there fails here first
    assert set(VERIFY_FORMS[workload]) == set(onepass.form_labels(workload))
    forms, catalog_hash = onepass._load_forms(workload, seed=0)
    sd = next(sd for sd in forms if sd.label == label)
    outcomes = {seed: onepass.run_form(workload, sd, catalog_hash, seed) for seed in range(11)}
    assert outcomes == {seed: {"failed_checks": []} for seed in range(11)}


# traced functions that left the package; mending one shrinks this set
STALE_TARGETS = {
    ("rootsys", "enumerate_weyl"), ("rootsys", "multiply"), ("rootsys", "length"),
    ("satake", "tau_star_matrix"), ("satake", "w_b_element"),
    ("atlas", "orbit_class"), ("atlas", "open_leaf_test"),
    ("matrixlie", "jacobi_check"), ("matrixlie", "chart_bivector"),
    ("matrixlie", "multiplicativity_residual"), ("matrixlie", "t_invariance_residual"),
}


def test_every_tracer_target_resolves_in_the_package():
    stale = set()
    for mod_name, path in tracer_targets():
        owner = importlib.import_module(f"leafatlas.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            stale.add((mod_name, path))
        else:
            assert callable(owner), (mod_name, path)
    assert stale == STALE_TARGETS
