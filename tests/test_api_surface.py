"""The package's public definitions are the ones its own code reaches.

A public module-level function or class that nothing in the package refers
to is API that no command and no bound uses: it belongs with the tests'
oracles, or nowhere.  ``__init__.py`` only re-exports, so it is neither
scanned nor counted as a use.  A reference is a name or an attribute with
the definition's name (through import aliases) outside the definition's own
body.
"""

import ast
import dataclasses
import re
from pathlib import Path

import isibench
from isibench import cli
from isibench.dynamics import Trajectory
from isibench.equilibrium import EigenstateReductions
from isibench.spectral import CompositeHamiltonian, SpectralData
from isibench.theorems import Theorem0Estimate, TheoremReport

PACKAGE = Path(isibench.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# Public definitions that nothing in the package calls, each with its reason.
KEEPERS = {
    "write_matrix": "writes the matrix format that model kind 'file' reads",
    "read_report": "reads report files back; the benchmark checks use it",
    "trace_distance": "the benchmark's tracer test looks it up under theorems",
}

# Definitions that were replaced, each with its replacement; none of them may
# be defined (as a function, class or method) or exported again.
GONE = {
    "SparseProjection": "GroupedProjection: Dirichlet weights on a stack built once",
    "split_counts": "batched_monte_carlo: every estimate draws from one stream of its seed",
    "Tolerances": "module constants beside their checks",
    "stream_generators": "generator: every draw takes the one stream of its seed",
    "from_blocks": "SpectralData.from_sectors: one sector form for every model",
    "batched_partial_trace_bath": "SpectralData's readers trace out the bath themselves",
    "check_nondegenerate_spectrum": "degenerate_level_pairs and min_sector_spacing, read "
                                    "directly by the pipeline",
    "min_level_spacing": "min_sector_spacing: only the gaps inside a sector reach a "
                         "reduced state",
}

# Config entries that were removed, each with its reason; none may come back.
GONE_KEYS = {
    "analysis.n_streams": "one stream per estimate; more streams only reseeded, serially",
    "tolerances.hamiltonian_asymmetry": "fixed as spectral.HAMILTONIAN_ASYMMETRY",
    "tolerances.unitarity": "fixed as spectral.UNITARITY",
    "tolerances.residual": "fixed as spectral.RESIDUAL",
    "tolerances.spectrum_degeneracy": "fixed as spectral.SPECTRUM_DEGENERACY",
    "tolerances.sufficient_isi_threshold": "fixed as theorems.SUFFICIENT_ISI_THRESHOLD",
    "tolerances.verdict_boundary": "fixed as theorems.VERDICT_BOUNDARY",
    "tolerances.decompose_dim_cap": "spectral.DECOMPOSE_DIM_CAP and STACK_ELEMENT_CAP, "
                                    "read from the sector shape of the config",
}

# Values derived from a type's own fields, each with the field it was stored
# as and the reason; none may come back as a constructor field, where a
# stored copy could disagree with its source.
DERIVED = {
    (CompositeHamiltonian, "total"): "total(): assembled from the parts on each call",
    (SpectralData, "order"): "the stable argsort of the energies",
    (SpectralData, "eigenvalues"): "the energies in ascending order",
    (EigenstateReductions, "purities"): "tr(rho_n^2) of the matrices",
    (EigenstateReductions, "bloch"): "the polarizations of qubit matrices",
    (EigenstateReductions, "layout"): "dS = k and dB = n / k of the (n, k, k) stack",
    (CompositeHamiltonian, "layout"): "the dimensions of the system and bath parts",
    (Trajectory, "layout"): "dS is the size of the (n_times, dS, dS) states",
    (TheoremReport, "rhs"): "recompute_rhs of the recorded parameters",
    (TheoremReport, "verdict"): "assign_verdict of the two sides",
    (TheoremReport, "schema_version"): "the module constant REPORT_SCHEMA_VERSION",
    (Theorem0Estimate, "weak"): "theorem0_rhs of dS, dR and delta",
    (Theorem0Estimate, "threshold"): "theorem0_rhs of dS, dR and delta, plus epsilon",
}


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _unreferenced() -> set[str]:
    trees = _trees()
    aliases = {alias.asname: alias.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    references: dict[str, set[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = aliases.get(node.id, node.id)
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            references.setdefault(name, set()).add(id(node))
    unreferenced = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                own = {id(inner) for inner in ast.walk(node)}
                if not references.get(node.name, set()) - own:
                    unreferenced.add(node.name)
    return unreferenced


def test_every_public_definition_has_a_caller_in_the_package():
    extra = sorted(_unreferenced() - KEEPERS.keys())
    assert not extra, f"public definitions that nothing in the package uses: {extra}"


def test_every_keeper_still_lacks_a_caller():
    stale = sorted(KEEPERS.keys() - _unreferenced())
    assert not stale, f"keepers that the package now calls: {stale}"


def test_replaced_definitions_stay_gone():
    defined = {node.name for tree in _trees() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}  # methods too
    back = sorted(name for name in GONE if name in defined or hasattr(isibench, name))
    assert not back, f"replaced definitions are back: {back}"


def test_derived_values_are_no_fields():
    back = sorted(f"{kind.__name__}.{name}" for kind, name in DERIVED
                  if name in {field.name for field in dataclasses.fields(kind)})
    assert not back, f"derived values stored as fields again: {back}"


def test_removed_config_keys_stay_gone():
    back = sorted(GONE_KEYS.keys() & cli.CONFIG_KEYS.keys())
    assert not back, f"removed config keys are back: {back}"


def test_readme_documents_each_config_key_under_its_section():
    # a ### `[section]` heading per config section, naming each of its keys
    # before the next heading, so that no key comes or goes without its docs
    parts = re.split(r"^#{2,3} (.*)$", README.read_text(encoding="utf-8"), flags=re.M)
    documented = {match.group(1): text for heading, text in zip(parts[1::2], parts[2::2])
                  if (match := re.fullmatch(r"`\[(\w+)\]`", heading))}
    sections: dict[str, list[str]] = {}
    for name in cli.CONFIG_KEYS:
        section, _, key = name.partition(".")
        sections.setdefault(section, []).append(key)
    assert set(documented) == set(sections)
    missing = [f"{section}.{key}" for section, keys in sections.items() for key in keys
               if f"`{key}`" not in documented[section]]
    assert not missing, f"config keys not named under their README heading: {missing}"
