"""Semi-Markov classical and qubit dynamics with non-Markovianity diagnostics.

Build a waiting-time distribution (stages of exponentials), pick a jump rule
(classical two-state chain or a qubit Pauli channel), and evaluate the
resulting dynamics together with witnesses and measures of memory: trace- and
Kolmogorov-distance revivals, failure of complete positivity of intermediate
maps, and the signs of time-local master-equation rates.

``import smqdyn`` loads no layer: each name below (and each submodule, as
``smqdyn.nonmarkov``) imports the layer that defines it on first use.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = {
    "poly_laplace": "AccuracyError ExpPolyFunction ImproperRationalError Polynomial "
    "RationalLaplace differentiate evaluate invert_laplace poly_roots",
    "waiting_time": "HypoExpWTD MemoryKernel",
    "renewal": "GeneratingFunction SeriesTruncationError even_odd_difference "
    "find_extrema generating_function jump_probability series_backend",
    "classical_semimarkov": "ProbabilityVector SemiMarkovSpec SingularPropagatorError "
    "TransitionMatrix UnstableSolverError kolmogorov_distance propagator volterra_solve "
    "witness_contractivity witness_divisibility",
    "montecarlo": "Estimate SimConfig estimate_generating_function "
    "estimate_jump_probability sample_jump_count simulate_two_state trajectory_rng",
    "qubit": "ChoiVector MapSnapshot PauliChannel PositivityError QubitState choi_vector "
    "evolve_state map_snapshot spectral_transform",
    "nonmarkov": "DistinguishabilityTrace MeasureResult PairSearchConfig TCLCoefficients "
    "blp_measure_dephasing blp_measure_numeric distinguishability_trace divisibility_scan "
    "hou_measure rhp_divisibility_measure tcl_coefficients tcl_equivalence_check "
    "trace_distance",
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(f"{__name__}.{_LAYER_OF[name]}")
    globals()[name] = value = getattr(layer, name)
    return value
