"""Semi-Markov classical and qubit dynamics with non-Markovianity diagnostics.

Build a waiting-time distribution (stages of exponentials), pick a jump rule
(classical two-state chain or a qubit Pauli channel), and evaluate the
resulting dynamics together with witnesses and measures of memory: trace- and
Kolmogorov-distance revivals, failure of complete positivity of intermediate
maps, and the signs of time-local master-equation rates.
"""

from .poly_laplace import (
    AccuracyError,
    ExpPolyFunction,
    ImproperRationalError,
    Polynomial,
    RationalLaplace,
    differentiate,
    evaluate,
    invert_laplace,
    poly_roots,
)
from .waiting_time import HypoExpWTD, MemoryKernel
from .renewal import (
    GeneratingFunction,
    SeriesTruncationError,
    even_odd_difference,
    find_extrema,
    generating_function,
    jump_probability,
    series_backend,
)
from .classical_semimarkov import (
    ProbabilityVector,
    SemiMarkovSpec,
    SingularPropagatorError,
    TransitionMatrix,
    UnstableSolverError,
    kolmogorov_distance,
    propagator,
    volterra_solve,
    witness_contractivity,
    witness_divisibility,
)
from .montecarlo import (
    Estimate,
    SimConfig,
    estimate_generating_function,
    estimate_jump_probability,
    sample_jump_count,
    simulate_two_state,
    trajectory_rng,
)
from .qubit import (
    ChoiVector,
    MapSnapshot,
    PauliChannel,
    PositivityError,
    QubitState,
    choi_vector,
    evolve_state,
    map_snapshot,
    spectral_transform,
)
from .nonmarkov import (
    DistinguishabilityTrace,
    MeasureResult,
    PairSearchConfig,
    TCLCoefficients,
    blp_measure_dephasing,
    blp_measure_numeric,
    distinguishability_trace,
    divisibility_scan,
    hou_measure,
    rhp_divisibility_measure,
    tcl_coefficients,
    tcl_equivalence_check,
    trace_distance,
)

__version__ = "0.1.0"
