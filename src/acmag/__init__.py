"""Joint amplitude/frequency AC magnetometry with quantum control.

Library layout:

- ``linalg``: small dense complex operators, states, covariances
- ``dynamics``: AC-field Hamiltonians, midpoint propagation, generators
- ``qfim``: quantum Fisher information matrix, closed forms, bounds checks
- ``bounds``: single-parameter benchmarks and strategy comparison
- ``nv``: two-qubit NV sensing protocol simulation and uncertainty fits
- ``cli``: reproducible study runner emitting CSV/JSON tables
"""

from .bounds import StrategyComparison, envelope_integral, single_param_qfi_bound, strategy_comparison
from .dynamics import (ConvergenceError, FieldParams, GeneratorPair, TimeGrid,
                       generator_closed_form, generator_numeric, propagate)
from .fitting import envelope_slope, loglog_slope, upper_envelope
from .linalg import (bell_basis, bell_state, expm_hermitian, haar_state,
                     is_hermitian, is_unitary, partial_trace, pauli_op,
                     pure_cov, tensor)
from .nv import (AdaptiveDivergenceError, JacobianError, NvParams,
                 PiPulseModel, PulseSequence, ReadoutModel, ScalingResult,
                 SweepError, SweepResult, UncertaintyResult, adaptive_loop,
                 bell_readout, control_frequency,
                 nv_rotating_hamiltonian, operating_field,
                 parameter_uncertainty, scaling_study, sensor_coupling,
                 sequence_unitary, simulate_sequence, sweep_signal)
from .qfim import (CovBound, Qfim2, SingularQfimError, bell_probe_determinant,
                   classical_fim, probe_overlap, qcrb, qfim_closed_form,
                   qfim_determinant, qfim_from_generators,
                   relative_error_curves, sample_probe_determinants)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
