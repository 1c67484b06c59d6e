"""The value types of the package: their fields, keywords and defaults, that
they are immutable, and the equality that caches and callers rely on."""
import inspect

import numpy as np
import pytest

from leafatlas import matrixlie as ml
from leafatlas.atlas import AtlasReport, atlas
from leafatlas.cli import RunConfig
from leafatlas.rootsys import RootSystem, WeylElement, build_root_system, longest_element
from leafatlas.satake import (CheckResult, RealFormData, SatakeDiagram, ValidationReport,
                              real_form_data, validate)

import catalog_reference as cr

SU21 = cr.by_label()["su(2,1)"]

FIELDS = {
    RootSystem: ("family", "rank", "cartan_matrix", "positive_roots"),
    WeylElement: ("word", "perm"),
    SatakeDiagram: ("label", "family", "rank", "black", "arrows"),
    RealFormData: ("diagram", "tau_star", "sigma", "w_b", "w0", "real_rank", "dim_g",
                   "dim_k0", "dim_p0"),
    CheckResult: ("name", "passed", "detail"),
    ValidationReport: ("label", "checks"),
    AtlasReport: ("form", "classes", "largest_leaf_class", "catalog_hash"),
    RunConfig: ("command", "form", "inline", "output_format", "tolerances", "samples",
                "seed", "weyl_cap", "catalog_path", "out_path"),
    ml.TangencyResult: ("dim_bivector_image", "dim_orbit_projection", "residual"),
    ml.AnnihilatorResult: ("distance", "dim_annihilator", "dim_fixed_points"),
    ml.HermitianFitResult: ("b", "max_residual", "invariant_rank"),
    ml.HermitianFrame: ("flag_ad", "flag_lam", "c_inv", "rank_inv"),
}


def instances():
    rf = ml.realization("su(1,1)")
    return [
        build_root_system("A", 2),
        longest_element(build_root_system("A", 2)),
        SU21,
        real_form_data(SU21),
        validate(SU21).checks[0],
        validate(SU21),
        atlas(SU21),
        RunConfig(command="atlas"),
        ml.leaf_tangency_check(rf, np.eye(2, dtype=complex)),
        ml.annihilator_check(rf),
        ml.hermitian_fit(rf, n_samples=3),
        rf.hermitian_frame,
    ]


def test_fields_in_order_and_by_keyword():
    values = instances()
    assert [type(v) for v in values] == list(FIELDS)
    for value in values:
        names = FIELDS[type(value)]
        assert tuple(inspect.signature(type(value)).parameters) == names
        rebuilt = type(value)(**{name: getattr(value, name) for name in names})
        assert all(getattr(rebuilt, name) is getattr(value, name) for name in names)


def test_defaults():
    assert CheckResult("structure", True).detail == ""
    cfg = RunConfig(command="verify")
    assert (cfg.form, cfg.inline, cfg.output_format, dict(cfg.tolerances), cfg.samples,
            cfg.seed, cfg.catalog_path, cfg.out_path) == (None, None, "json", {}, 100, 0,
                                                          None, None)


@pytest.mark.parametrize("index", range(len(FIELDS)))
def test_assignment_raises(index):
    value = instances()[index]
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[type(value)][0], None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_run_configs_share_no_mutable_default():
    first, second = RunConfig(command="atlas"), RunConfig(command="catalog")
    with pytest.raises(TypeError):
        first.tolerances["jacobi"] = 1.0
    assert dict(second.tolerances) == {}
    given = {"jacobi": 1e-4}
    assert RunConfig(command="verify", tolerances=given).tolerances is given


def test_weyl_elements_compare_and_hash_by_permutation():
    w0 = longest_element(build_root_system("A", 2))
    other_word = WeylElement(word=(2, 1, 2), perm=w0.perm)
    assert w0.word == (1, 2, 1)
    assert other_word == w0 and not other_word != w0
    assert hash(other_word) == hash(w0) and len({w0, other_word}) == 1
    identity = longest_element(build_root_system("A", 2), ())
    assert identity != w0 and not identity == w0
    assert w0 != tuple(w0)  # a plain tuple is not a Weyl element


def test_an_equal_diagram_finds_the_cached_real_form_data():
    copy = SatakeDiagram(label=SU21.label, family=SU21.family, rank=SU21.rank,
                         black=frozenset(SU21.black), arrows=frozenset(SU21.arrows))
    assert copy == SU21 and hash(copy) == hash(SU21)
    assert real_form_data(copy) is real_form_data(SU21)


def test_lazy_data_is_built_once():
    assert build_root_system("B", 3).permutations is build_root_system("B", 3).permutations
