"""Field quantization with one oscillator in a superposition of frequencies.

Mode labels select frequency sectors of a single truncated Fock ladder;
mode operators are sector projectors tensored with that ladder, so the
space grows linearly in the number of modes and the zero-photon sector is
a whole subspace with finite, state-dependent energy.  Every operator
commutes with the frequency operator, so it is stored as a diagonal or as
one block per mode; the commands multiply operators, take adjoints and
act on states, and evolve states, never operators.  A capped
tensor-product implementation of standard mode quantization is included
as a comparison oracle.
"""

from .algebra import (
    AlgebraTable,
    fock_lowering,
    frequency_operator,
    hamiltonian,
    hamiltonian_from_frequency_operator,
    hamiltonian_from_mode_ladders,
    ladder,
    mode_annihilator,
    mode_projector,
    momentum,
    momentum_from_mode_ladders,
    verify_algebra,
)
from .dynamics import (
    Spectrum,
    dyson_first_order,
    evolve,
    matrix_exp,
    resonance_kernel,
    spectrum,
)
from .emission import (
    AtomParams,
    VacuumCheck,
    atom_field_hamiltonian,
    coupling,
    first_order_emission,
    first_order_state,
    free_hamiltonian_with_atom,
    interaction_hamiltonian,
    interaction_picture,
    vacuum_subspace_check,
)
from .fields import (
    CoherentBatch,
    PolarizationBasis,
    classical_formula,
    coherent_rows,
    coherent_state,
    electric_field,
    energy_identity,
    field_average,
    field_averages,
    magnetic_field,
    polarization,
    polarization_basis,
    required_truncation,
    vector_potential,
)
from .hilbert import (
    FieldConfig,
    HilbertLayout,
    ModeLabel,
    Operator,
    StateVector,
    abstract_mode,
    basis_state,
    build_layout,
    expect,
    expect_rows,
    load_mode_set,
    mode,
    superposition,
)
from .standard import (
    StandardLayout,
    build_standard_layout,
    compare_report,
    jc_excited_population,
    jc_rabi_half_frequency,
    single_oscillator_run,
    standard_first_order_emission,
    standard_hamiltonian,
    standard_atom_field_hamiltonian,
    standard_mode_annihilator,
    standard_scheme_run,
    standard_vacuum_energy,
)

__version__ = "0.1.0"
