"""The run's numerical thresholds and caps: the ``[tolerances]`` config section.

The spectral, model and theorem functions take a :class:`Tolerances` record
instead of hard-coding these thresholds, so a run can tighten or loosen each
one from its config; every field is a ``[tolerances]`` key.  Relative
thresholds are scaled by the spectral norm of the operator they are applied
to.  The invariants of the value types (state norms, density matrices,
eigenbasis completeness) are fixed module constants beside their checks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # spectral checks
    hamiltonian_asymmetry: float = 1e-10  # max |H - H^dagger| accepted on assembly
    unitarity: float = 1e-10           # max |V^dagger V - I| for eigenvector matrices
    residual: float = 1e-9             # eigenpair residual, relative to norm(H)
    spectrum_degeneracy: float = 1e-10  # min level spacing, relative to norm(H)

    # dimension and memory caps
    decompose_dim_cap: int = 8192      # dense eigensolver refusal point

    # verdict parameters
    sufficient_isi_threshold: float = 0.1  # smallness cutoff for sqrt(delta)
    verdict_boundary: float = 1e-9     # |lhs - rhs| window reported as indeterminate


DEFAULT = Tolerances()
