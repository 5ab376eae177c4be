"""Central numerical tolerance and cap configuration.

Every module takes a :class:`Tolerances` record instead of hard-coding
thresholds, so a whole run can be tightened or loosened from one place
(the CLI's ``[tolerances]`` config section sets the fields a run reads).
Relative thresholds are scaled by the spectral norm of the operator they
are applied to; the docstrings of the consuming functions say which is
which.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    # value-type invariants
    state_norm: float = 1e-12          # |norm(psi) - 1|
    hermiticity: float = 1e-12         # max |M - M^dagger| for density matrices
    trace: float = 1e-12               # |tr(rho) - 1|
    eigenvalue_floor: float = 1e-10    # allowed negative slack on density eigenvalues
    bloch_excess: float = 1e-10        # allowed excess of |p| over 1
    basis_orthonormality: float = 1e-10  # max |B^dagger B - I|
    completeness: float = 1e-10        # (1/d) sum_n rho_n vs I/dS

    # spectral checks
    hamiltonian_asymmetry: float = 1e-10  # max |H - H^dagger| accepted on assembly
    unitarity: float = 1e-10           # max |V^dagger V - I| for eigenvector matrices
    residual: float = 1e-9             # eigenpair residual, relative to norm(H)
    spectrum_degeneracy: float = 1e-10  # min level spacing, relative to norm(H)
    gap_degeneracy: float = 1e-9       # min gap collision, relative to norm(H)

    # dimension and memory caps
    decompose_dim_cap: int = 8192      # dense eigensolver refusal point
    gap_check_dim_cap: int = 4096      # the O(d^2) gap scan refuses above this
    kernel_dim_cap: int = 4096         # dense d x d time-average kernel cap

    # search and verdict parameters
    eth_search_tol: float = 1e-8       # smallest step of the non-qubit T1 supremum search
    sufficient_isi_threshold: float = 0.1  # smallness cutoff for sqrt(delta)
    verdict_boundary: float = 1e-9     # |lhs - rhs| window reported as indeterminate

    def replaced(self, **overrides: float | int) -> "Tolerances":
        """Copy with the named fields replaced; unknown names are errors."""
        known = {f.name for f in dataclasses.fields(self)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise ConfigError(f"unknown tolerance fields: {', '.join(bad)}")
        return dataclasses.replace(self, **overrides)


DEFAULT = Tolerances()
