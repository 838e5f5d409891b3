"""Markovian open-quantum-system simulation via time-perturbative Kraus series.

Modules
-------
matkernel   dense complex linear-algebra kernels and state containers
lindblad    model definition, condition checks, exact and product-formula oracles
kraus       model preparation, series construction and selection, application
circuits    gate-level realization, statevector emulation, shots and tomography
mitigation  Pauli/depolarizing channel fitting, inversion, twirling, projection
models      benchmark system constructors and the named registry
analysis    quadratures, real-space densities, Wigner fields
cli         batch experiment runner
"""

from .matkernel import (
    DensityMatrix,
    QuantumState,
    fidelity,
    herm_eig,
    psd_sqrt,
    trace_distance,
    von_neumann_entropy,
)
from .lindblad import (
    ConditionReport,
    LindbladModel,
    check_conditions,
    effective_hamiltonian,
    exact_evolve,
    exact_trajectory,
    normalize_lindblads,
    trotter_evolve,
    trotter_trajectory,
)
from .kraus import (
    GroupStructure,
    KrausSeries,
    KrausTerm,
    PreparedModel,
    apply_factored_evolution,
    apply_series,
    build_reduced_series,
    build_series,
    build_tp_series,
    detect_group_structure,
    effective_evolution,
    f_of_t,
    gen_hyperbolic,
    prepare,
    series_trajectory,
)

__all__ = [
    "ConditionReport",
    "DensityMatrix",
    "GroupStructure",
    "KrausSeries",
    "KrausTerm",
    "LindbladModel",
    "PreparedModel",
    "QuantumState",
    "apply_factored_evolution",
    "apply_series",
    "build_reduced_series",
    "build_series",
    "build_tp_series",
    "check_conditions",
    "detect_group_structure",
    "effective_evolution",
    "effective_hamiltonian",
    "exact_evolve",
    "exact_trajectory",
    "f_of_t",
    "fidelity",
    "gen_hyperbolic",
    "herm_eig",
    "normalize_lindblads",
    "prepare",
    "psd_sqrt",
    "series_trajectory",
    "trace_distance",
    "trotter_evolve",
    "trotter_trajectory",
    "von_neumann_entropy",
]

__version__ = "0.1.0"
