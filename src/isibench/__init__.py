"""Equilibration and initial-state-independence testbench for system-bath models.

The package builds composite Hamiltonians (analytic commuting spin-baths,
independent-spin baths, dense random ensembles, or matrices from disk),
diagonalizes them, and evaluates whether the reduced system state forgets
its initial conditions: eigenstate reductions, time-averaged equilibrium
states, concentration bounds with vacuity-aware verdicts, and Monte Carlo
checks of the same quantities over uniformly sampled initial states.
"""

from .dynamics import (Trajectory, equilibrate, equilibration_metric, evolve_reduced,
                       finite_time_average, stratified_times, write_trajectory_csv)
from .equilibrium import (EigenstateReductions, OverlapCoefficients,
                          bath_averaged_equilibrium, delta, eigenstate_reductions,
                          overlaps, require_nondegenerate,
                          subspace_averaged_equilibrium, subspace_weights,
                          time_averaged_state, write_reductions_csv)
from .errors import (CapExceededError, ConfigError, DegenerateSpectrumError,
                     IsibenchError, ValidationError)
from .hilbert import (PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, BlochVector, DensityMatrix,
                      PureState, SpaceLayout, batched_bloch_vectors,
                      batched_partial_trace_bath, bloch_vector, density_from_bloch,
                      maximally_mixed, partial_trace_bath, partial_trace_system,
                      purity, tensor_product, trace_distance, trace_norm)
from .models import (CommutingModelSpec, analytic_eigensystem, bit_signs,
                     build_commuting_model, build_cucchietti_bath, build_random_model,
                     gaussian_hermitian, sample_commuting_spec, sample_cucchietti_spec)
from .sampling import (MonteCarloEstimate, SubspaceBasis, bath_prefix_basis,
                       full_basis, monte_carlo_average, product_subspace,
                       sample_amplitudes, sample_uniform_columns,
                       sample_uniform_state, split_counts, stream_generators)
from .spectral import (CompositeHamiltonian, SpectralData, assemble,
                       check_nondegenerate_gaps, check_nondegenerate_spectrum,
                       degenerate_level_pairs, eigendecompose, fix_phases,
                       read_matrix, reconstruct, write_csv, write_matrix)
from .theorems import (CONCENTRATION_RATE, THEOREM_IDS, VERDICTS, TheoremReport,
                       assign_verdict, concentration_tail, epsilon_prime,
                       max_possible_lhs, necessary_condition_lhs,
                       necessary_condition_report, popescu_bound, popescu_report,
                       popescu_tail_frequency, read_report, recompute_rhs,
                       sufficient_condition_report, theorem0_empirical_lhs,
                       theorem0_mean_report, theorem0_rhs, theorem0_tail_report,
                       theorem2_lhs, theorem2_reports, write_report)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
