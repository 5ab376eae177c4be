"""Equilibration and initial-state-independence testbench for system-bath models.

The package builds composite Hamiltonians (analytic commuting spin-baths,
independent-spin baths, dense random ensembles, or matrices from disk),
diagonalizes them, and evaluates whether the reduced system state forgets
its initial conditions: eigenstate reductions, time-averaged equilibrium
states, concentration bounds with vacuity-aware verdicts, and Monte Carlo
checks of the same quantities over uniformly sampled initial states.
"""

import os as _os

# How long an idle OpenBLAS worker thread busy-waits before it sleeps: 2**n
# cycles.  OpenBLAS's default of 28 (about 0.1 s) burns a CPU through numpy's
# import and after every BLAS call, while numpy runs single-threaded code.
# With 20 (about 0.3 ms) eigh kept its wall time at d = 128 to 1536; with 8
# or less it was 20-30 % slower at d <= 384, each call waking a sleeping thread.
# OpenBLAS reads the variable once, when numpy loads it, so this runs before
# the first import of numpy; if numpy was imported before isibench, it has no
# effect.  A value already in the environment is kept.  It changes when idle
# threads sleep, not how BLAS splits its sums, so it moves no number.
_BLAS_THREAD_TIMEOUT = 20
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(_BLAS_THREAD_TIMEOUT))

from .dynamics import evolve_reduced, stratified_times, write_trajectory_csv
from .equilibrium import (EigenstateReductions, delta, require_nondegenerate,
                          time_averaged_state, write_reductions_csv)
from .errors import (CapExceededError, ConfigError, DegenerateSpectrumError,
                     IsibenchError, ValidationError)
from .hilbert import (PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, PureState, SpaceLayout,
                      batched_bloch_vectors, purities, tensor_product, trace_distance,
                      trace_norm, weighted_sum)
from .models import (CommutingModelSpec, analytic_eigensystem, bit_signs,
                     build_cucchietti_bath, build_random_model, commuting_norms,
                     gaussian_hermitian, sample_commuting_spec, sample_cucchietti_spec)
from .sampling import (dirichlet_weights, generator, induced_states, sample_amplitudes,
                       sampled_distances)
from .spectral import (CompositeHamiltonian, DenseProjection, GroupedProjection,
                       SpectralData, degenerate_level_pairs, eigendecompose, read_matrix,
                       read_matrix_header, write_csv, write_matrix)
from .theorems import (CONCENTRATION_RATE, THEOREM_IDS, VERDICTS, TheoremReport,
                       assign_verdict, concentration_tail, epsilon_prime,
                       necessary_condition_lhs, necessary_condition_reports,
                       popescu_report, read_report, recompute_rhs,
                       sufficient_condition_report, theorem0_reports, theorem0_rhs,
                       theorem2_lhs, theorem2_reports, write_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
