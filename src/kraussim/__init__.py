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

The package re-exports nothing; import from the modules (``from kraussim import kraus``).
"""

__version__ = "0.1.0"
