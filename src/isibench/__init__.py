"""Equilibration and initial-state-independence testbench for system-bath models.

The package builds composite Hamiltonians (analytic commuting spin-baths,
independent-spin baths, dense random ensembles, or matrices from disk),
diagonalizes them, and evaluates whether the reduced system state forgets
its initial conditions: eigenstate reductions, time-averaged equilibrium
states, concentration bounds with vacuity-aware verdicts, and Monte Carlo
checks of the same quantities over uniformly sampled initial states.
"""

from .dynamics import (Trajectory, equilibrate, evolve_reduced, stratified_times,
                       write_trajectory_csv)
from .equilibrium import (EigenstateReductions, OverlapCoefficients, delta,
                          eigenstate_reductions, overlaps, require_nondegenerate,
                          subspace_projection, time_averaged_state, write_reductions_csv)
from .errors import (CapExceededError, ConfigError, DegenerateSpectrumError,
                     IsibenchError, ValidationError)
from .hilbert import (PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, BlochVector, DensityMatrix,
                      PureState, SpaceLayout, batched_bloch_vectors, bloch_vector,
                      purity, tensor_product, trace_distance, trace_norm, weighted_sum)
from .models import (CommutingModelSpec, analytic_eigensystem, bit_signs,
                     build_cucchietti_bath, build_random_model, commuting_norms,
                     gaussian_hermitian, sample_commuting_spec, sample_cucchietti_spec)
from .sampling import (MonteCarloEstimate, batched_monte_carlo, dirichlet_weights,
                       generator, haar_amplitudes, induced_states, sample_amplitudes)
from .spectral import (CompositeHamiltonian, DenseProjection, GroupedProjection,
                       SpectralData, assemble, degenerate_level_pairs, eigendecompose,
                       fix_phases, read_matrix, write_csv, write_matrix)
from .theorems import (CONCENTRATION_RATE, THEOREM_IDS, VERDICTS, TheoremReport,
                       assign_verdict, concentration_tail, epsilon_prime,
                       max_possible_lhs, necessary_condition_lhs,
                       necessary_condition_report, popescu_report,
                       read_report, recompute_rhs, sufficient_condition_report,
                       Theorem0Estimate, theorem0_estimate, theorem0_mean_report,
                       theorem0_rhs, theorem0_tail_report,
                       theorem2_lhs, theorem2_reports, write_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
