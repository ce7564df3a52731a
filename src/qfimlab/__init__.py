"""Noisy parametrized quantum circuits, their quantum Fisher information
matrices, and dynamical Lie algebras, on state vectors, parity-folded sectors
or dense density matrices, as the input and the noise allow.

The package is organized as:

- ``linalg``: dense complex kernel (Kronecker products, Hermitian
  eigendecompositions, matrix exponentials, partial traces).
- ``channels``: unital Pauli channels, bit-flip, local/global depolarizing
  noise, composition, superoperator/Choi materialization, CPTP checks.
- ``circuits``: circuit assembly, noisy evolution, exact analytic state
  derivatives, the single-qubit toy model and the Ising-ansatz constructors.
- ``dla``: Lie closure over dense matrices or sparse Pauli sums, and algebra
  dimensions (the parity-sector dimension as a quotient of the full algebra).
- ``qfim``: pure/mixed quantum Fisher information through one entry point
  that picks its route from the input (state vectors alone for a pure input
  under no or global depolarizing noise), ranks and capacity counts,
  distances and relative entropy.
- ``rand``: seeded Philox substreams (one per task) and their vectorized uniform
  draws, the bounded task map, and random operators and states.
- ``experiments``: JSON-configured, seeded experiment harness; runners return
  data, rendered once as CSV or JSON.
- ``verify``: the numerical verification suite that the ``verify`` experiment runs.
- ``cli``: the ``qfimlab`` command, which runs one experiment from a config file.
"""

from .channels import (
    Channel,
    CompositeChannel,
    CptpReport,
    GlobalDepolarizing,
    LocalDepolarizing,
    PauliChannel,
    PauliString,
    UnitaryChannel,
    bit_flip,
    choi_matrix,
    compose,
    decompose_local_depol,
    effective_global_depol,
    superoperator,
    verify_cptp,
)
from .circuits import (
    TOY_GENERATORS,
    TOY_THETAS,
    NoisyCircuit,
    bloch_coords,
    build_circuit,
    derivative_fd,
    evolve,
    evolve_with_derivatives,
    hva_tfim,
    hva_tfim_generators,
    hva_tfim_pauli_generators,
    loss_linear,
    plus_state_density,
    plus_state_vector,
    statevector_derivatives,
    toy_model,
)
from .dla import LieBasis, PauliSum, dla_dimension, lie_closure, parity_sector_dimension
from .exceptions import (
    CapExceededError,
    ConfigError,
    DimensionMismatchError,
    NotHermitianError,
    QfimlabError,
    TooLargeError,
)
from .linalg import (
    EigenDecomposition,
    dag,
    hermitian_eig,
    kron,
    partial_trace,
    purity,
)
from .qfim import (
    QfimReport,
    bures_distance,
    effective_dim_d1,
    noisy_qfim_closed_form_global_depol,
    qfim_mixed,
    qfim_of_circuit,
    qfim_pure,
    relative_entropy_to_mixed,
    report_from_matrix,
    uhlmann_fidelity,
)
from .rand import (
    random_density_matrix,
    random_hermitian,
    random_statevector,
    random_unitary,
    rng_from_seed,
)

__version__ = "0.1.0"
