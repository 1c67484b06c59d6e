"""Smoke test of the benchmark's entry points: `bench/onepass.py` resolves and
runs the forms of each workload through the same public API that the
benchmark times, and every atlas document it produces matches
`bench/golden.json`."""
import hashlib
import importlib
import json
from pathlib import Path

import pytest

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
