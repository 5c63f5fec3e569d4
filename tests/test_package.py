"""The package namespace: a pinned export list that resolves lazily."""

import importlib
import subprocess
import sys

import pytest

import smqdyn

EXPORTS = {
    "poly_laplace": [
        "AccuracyError", "ExpPolyFunction", "ImproperRationalError", "Polynomial",
        "RationalLaplace", "differentiate", "evaluate", "invert_laplace", "poly_roots",
    ],
    "waiting_time": ["HypoExpWTD", "MemoryKernel"],
    "renewal": [
        "GeneratingFunction", "SeriesTruncationError", "even_odd_difference",
        "find_extrema", "generating_function", "jump_probability", "series_backend",
    ],
    "classical_semimarkov": [
        "ProbabilityVector", "SemiMarkovSpec", "SingularPropagatorError",
        "TransitionMatrix", "UnstableSolverError", "kolmogorov_distance", "propagator",
        "volterra_solve", "witness_contractivity", "witness_divisibility",
    ],
    "montecarlo": [
        "Estimate", "SimConfig", "estimate_generating_function",
        "estimate_jump_probability", "sample_jump_count", "simulate_two_state",
        "trajectory_rng",
    ],
    "qubit": [
        "ChoiVector", "MapSnapshot", "PauliChannel", "PositivityError", "QubitState",
        "choi_vector", "evolve_state", "map_snapshot", "spectral_transform",
    ],
    "nonmarkov": [
        "DistinguishabilityTrace", "MeasureResult", "PairSearchConfig",
        "TCLCoefficients", "blp_measure_dephasing", "blp_measure_numeric",
        "distinguishability_trace", "divisibility_scan", "hou_measure",
        "rhp_divisibility_measure", "tcl_coefficients", "tcl_equivalence_check",
        "trace_distance",
    ],
}
NAMES = [(layer, name) for layer, names in EXPORTS.items() for name in names]


def test_all_is_the_pinned_export_list():
    assert sorted(smqdyn.__all__) == sorted(name for _, name in NAMES)
    assert "__version__" in vars(smqdyn)  # a constant, not a lazy name


@pytest.mark.parametrize("layer, name", NAMES, ids=[n for _, n in NAMES])
def test_each_name_is_its_layer_object(layer, name):
    module = importlib.import_module(f"smqdyn.{layer}")
    assert getattr(smqdyn, name) is getattr(module, name)


def test_submodule_resolves_without_a_prior_import():
    code = (
        "import sys, smqdyn; m = smqdyn.nonmarkov; "
        "print(m is sys.modules['smqdyn.nonmarkov'], m.hou_measure is smqdyn.hou_measure)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["True", "True"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        smqdyn.no_such_name
    with pytest.raises(ImportError):
        from smqdyn import no_such_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from smqdyn import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(smqdyn, name)
