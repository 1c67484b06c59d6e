"""Tests of the benchmark's tracer and pass runner.

    python3 -m pytest bench/tests -q

The counter values were measured on the commit that introduced the
benchmark; a later change to the exact engine or to the representative
search is expected to move some of them.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import leafatlas  # noqa: E402
import onepass  # noqa: E402
from leafatlas import cli  # noqa: E402
from tracer import Tracer, _package_modules  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    return {(m.__name__, attr): value
            for m in _package_modules() for attr, value in vars(m).items()
            if callable(value)}


def _run(workload: str, traced: bool, seed: int = 0):
    forms, catalog_hash = onepass._load_forms(workload, seed)
    tracer = Tracer() if traced else None
    return onepass.run_pass(workload, seed, forms, catalog_hash, tracer), tracer


def _sd(label: str):
    forms, _ = onepass._load_forms("atlas-catalog", 0)
    return next(sd for sd in forms if sd.label == label)


def test_package_attribute_atlas_is_the_function_not_the_module():
    atlas_mod = importlib.import_module("leafatlas.atlas")
    assert isinstance(atlas_mod, types.ModuleType)
    assert not isinstance(leafatlas.atlas, types.ModuleType)
    with Tracer() as tracer:
        leafatlas.atlas(_sd("sl(3,R)"))
    assert tracer.calls["atlas.atlas"] == 1
    # one call per class of sl(3,R), plus one from open_leaf_test
    assert tracer.calls["atlas.orbit_class"] == 4 + 1


def test_every_importing_module_is_rebound_and_restored():
    rootsys = importlib.import_module("leafatlas.rootsys")
    atlas_mod = importlib.import_module("leafatlas.atlas")
    satake = importlib.import_module("leafatlas.satake")
    before = _bindings()
    original = rootsys.enumerate_weyl
    with Tracer():
        assert rootsys.enumerate_weyl is not original
        assert atlas_mod.enumerate_weyl is rootsys.enumerate_weyl
        assert satake.longest_element is rootsys.longest_element
        assert atlas_mod.longest_element is rootsys.longest_element
        assert cli.orbit_class is atlas_mod.orbit_class
        assert cli.atlas is atlas_mod.atlas is leafatlas.atlas
        assert cli.validate is satake.validate
    assert _bindings() == before


def test_self_times_add_up_to_the_outermost_span():
    with Tracer() as tracer:
        atlas_mod = importlib.import_module("leafatlas.atlas")
        atlas_mod.atlas(_sd("so(5,2)"))
    assert tracer._child_ns == [sum(tracer.self_ns.values())]
    assert all(ns >= 0 for ns in tracer.self_ns.values())


def test_sl3_atlas_counters():
    atlas_mod = importlib.import_module("leafatlas.atlas")
    with Tracer() as tracer:
        atlas_mod.atlas(_sd("sl(3,R)"))
    metrics = tracer.metrics()
    assert metrics["rootsys.enumerate_weyl.elements"] == 6
    assert tracer.items["atlas.twisted_involutions"] == 4


def test_traced_and_untraced_atlas_outputs_are_identical():
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    plain, _ = _run("atlas-catalog", traced=False, seed=5)
    traced, tracer = _run("atlas-catalog", traced=True, seed=5)
    assert [(r["label"], r["sha256"]) for r in plain] == \
        [(r["label"], r["sha256"]) for r in traced]
    assert all(r["sha256"] == golden[r["label"]] for r in traced)
    assert tracer.metrics()["cli.writers.bytes"] > 0


def test_traced_and_untraced_verify_outputs_are_identical():
    sd = _sd("su(2,1)")
    cfg = cli.RunConfig(command="verify", form=sd.label, seed=3)
    plain = cli._json_dumps(cli.run_verify_battery(sd, cfg))
    with Tracer():
        traced = cli._json_dumps(cli.run_verify_battery(sd, cfg))
    assert plain == traced


def test_atlas_large_counters():
    records, tracer = _run("atlas-large", traced=True)
    assert all(r["error"] is None for r in records)
    metrics = tracer.metrics()
    assert metrics["rootsys.enumerate_weyl.elements"] == 1152 + 1920 + 3840 == 6912
    assert tracer.items["atlas.twisted_involutions"] == 608
    assert metrics["atlas.twisted_involutions.hit_ratio"] == pytest.approx(0.088, abs=5e-4)


def test_verify_supq_search_counters():
    records, tracer = _run("verify-supq", traced=True, seed=11)
    assert all(r["error"] is None and not r["failed_checks"] for r in records)
    metrics = tracer.metrics()
    assert metrics["matrixlie.representative_for.calls"] == 78
    assert tracer.found["matrixlie.representative_for"] == 60
    assert metrics["matrixlie.induced_weyl_matrix.calls"] == 87126
