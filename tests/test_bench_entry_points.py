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


@pytest.mark.parametrize("workload,label", [("verify-split", "sl(2,R)"),
                                            ("verify-supq", "su(1,1)")])
def test_verify_workloads_pass_every_check(onepass, workload, label):
    forms, catalog_hash = onepass._load_forms(workload, seed=0)
    sd = next(sd for sd in forms if sd.label == label)
    assert onepass.run_form(workload, sd, catalog_hash, seed=0) == {"failed_checks": []}


# traced functions that left the package; mending one shrinks this set
STALE_TARGETS = {
    ("rootsys", "enumerate_weyl"), ("rootsys", "multiply"), ("rootsys", "length"),
    ("satake", "tau_star_matrix"), ("satake", "w_b_element"),
    ("atlas", "orbit_class"), ("atlas", "open_leaf_test"),
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
