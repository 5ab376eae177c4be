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
import types
from pathlib import Path

import pytest

import isibench
from isibench import cli
from isibench.equilibrium import EigenstateReductions
from isibench.spectral import CompositeHamiltonian, SpectralData
from isibench.theorems import THEOREM_IDS, Theorem, TheoremReport

PACKAGE = Path(isibench.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")

# Public definitions that nothing in the package calls, each with its reason.
KEEPERS = {
    "write_matrix": "writes the matrix format that model kind 'file' reads",
    "read_report": "reads report files back; the benchmark checks use it",
    "trace_distance": "the benchmark's tracer test looks it up under theorems",
}

# Definitions that were replaced, each with its replacement; none of them may
# be defined (as a function, class, method or module-level name) or exported
# again.
GONE = {
    "SparseProjection": "GroupedProjection: Dirichlet weights on a stack built once",
    "split_counts": "sampled_distances: every estimate draws from one stream of its seed",
    "Tolerances": "module constants beside their checks",
    "stream_generators": "generator: every draw takes the one stream of its seed",
    "from_blocks": "SpectralData(energies, sectors, layout): one sector form for every "
                   "model",
    "batched_partial_trace_bath": "SpectralData's readers trace out the bath themselves",
    "check_nondegenerate_spectrum": "degenerate_level_pairs and min_sector_spacing, read "
                                    "directly by the pipeline",
    "min_level_spacing": "min_sector_spacing: only the gaps inside a sector reach a "
                         "reduced state",
    "purity": "purities: one tr(rho^2) formula, on a stack",
    "bloch_vector": "batched_bloch_vectors: one polarization formula, on a stack",
    "BlochVector": "batched_bloch_vectors of checked states: the positivity check of "
                   "check_density_stack bounds |p| by 1",
    "mean_squared_polarization": "theorem2_lhs(reductions)[1], the T2ii left-hand side",
    "_float_params": "TheoremReport normalizes its own parameters",
    "eigenstate_reductions": "EigenstateReductions(spectral.reductions())",
    "weighted_reduction": "weighted_sum(weights, reductions.matrices)",
    "weighted_purity": "delta: its body and its [1/dS, 1] check",
    "equilibrate": "evolve_reduced, then batched_trace_distances(...).mean()",
    "max_possible_lhs": "THEOREMS[theorem_id].max_lhs, read by assign_verdict",
    "assemble": "CompositeHamiltonian: checks its three parts Hermitian on construction",
    "fix_phases": "nothing: every output is a function of |n><n| and c_n |n>, so the "
                  "eigenvectors keep their solver's phases",
    "_fix_phases_in_place": "nothing: the eigenvectors keep their solver's phases "
                            "(tests/test_invariance.py holds every reader to that)",
    "from_sectors": "SpectralData(energies, sectors, layout), which keeps the stack as "
                    "given",
    "_necessary_report": "cli._REPORTS: each report from the pipeline stages it names",
    "OverlapCoefficients": "SpectralData.coefficients returns the read-only (d,) array; "
                           "PureState, the eigenbasis and the trace checks keep its unit "
                           "norm",
    "Theorem0Estimate": "theorem0_reports: the T0 pair from one draw set, no value type",
    "MonteCarloEstimate": "sampled_distances returns (mean, standard_error)",
    "theorem0_estimate": "theorem0_reports(projection, spectral, reductions, epsilon, "
                         "n_samples, seed)",
    "theorem0_mean_report": "theorem0_reports(...)[0], the T0i report",
    "theorem0_tail_report": "theorem0_reports(...)[1], the T0ii report",
    "necessary_condition_report": "necessary_condition_reports: T1 and T1prime from one "
                                  "search",
    "overlaps": "SpectralData.coefficients(state), which checks the composite state "
                "itself",
    "subspace_projection": "SpectralData.projection(psi=None, dim_prefix=None), which "
                           "checks the system state and the prefix itself",
    "DensityMatrix": "check_density_stack: time_averaged_state and the T0 reference "
                     "state are read-only arrays that passed it",
    "batched_monte_carlo": "sampled_distances(states_of, width, reference, threshold, "
                           "n_samples): the mean distance and the exceedance frequency "
                           "that T0 and Popescu estimate",
    "haar_amplitudes": "sample_amplitudes(dim, n, rng), which it only forwarded to",
    "_mirrored": "_require_hermitian says whether H is its own bitwise mirror, from its "
                 "one scan",
    "Trajectory": "evolve_reduced returns the read-only (n_times, dS, dS) states that "
                  "passed check_density_stack",
    "check_counts": "Pipeline.check: what the stages each command and sweep point reads "
                    "need of the config, by _NEEDS, before any draw",
    "_QUBIT_ONLY": "cli._NEEDS: the theorem2 stage needs dS = 2, and _REPORTS and "
                   "_SWEEP_METRICS name each entry's stage",
    "_require_qubit": "Pipeline.check, which refuses the qubit-only entries a command "
                      "or sweep reads",
    "ModelBundle": "Pipeline.spectral, the spectral data with its layout, and the "
                   "model line of its MODEL_KINDS entry",
    "random_parts": "Pipeline.parts: the spec of a commuting kind or the random "
                    "CompositeHamiltonian, drawn again from the model seed",
    "_SPIN": "cli.MODEL_KINDS: each kind's entry lists its own keys and builders",
    "_check_dimension": "ModelKind.layout of the config's entry in cli.MODEL_KINDS",
    "_spin_dims": "_spin_layout: every kind's entry gives a SpaceLayout, never None",
    "_cucchietti_dims": "_cucchietti_layout, the layout of the cucchietti entry",
    "_random_dims": "_random_layout, the layout of the random entry",
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
    (EigenstateReductions, "polarization_gram"): "bloch^T bloch of the strided polarizations",
    (EigenstateReductions, "layout"): "dS = k and dB = n / k of the (n, k, k) stack",
    (CompositeHamiltonian, "layout"): "the dimensions of the system and bath parts",
    (TheoremReport, "rhs"): "recompute_rhs of the recorded parameters",
    (TheoremReport, "verdict"): "assign_verdict of the two sides",
    (TheoremReport, "schema_version"): "the module constant REPORT_SCHEMA_VERSION",
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


def test_no_module_imports_a_name_it_never_uses():
    # An import that only code outside the package reads carries "# noqa: F401".
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__" \
                    or "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            unused.extend(f"{path.name}: {bound}" for alias in node.names
                          if (bound := alias.asname or alias.name.partition(".")[0])
                          not in used)
    assert not unused, f"imported names that their module never uses: {unused}"


def test_exports_no_module_but_its_own():
    # __all__ is built from dir(), so a plain ``import os`` in __init__.py
    # would export os; the package's submodules are bound there by import
    foreign = sorted(name for name in isibench.__all__
                     if isinstance(module := getattr(isibench, name), types.ModuleType)
                     and module.__name__ != f"isibench.{name}")
    assert not foreign, f"modules exported that are not the package's own: {foreign}"


def test_replaced_definitions_stay_gone():
    trees = _trees()
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}  # methods too
    defined |= {target.id for tree in trees for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Name)}
    back = sorted(name for name in GONE if name in defined or hasattr(isibench, name))
    assert not back, f"replaced definitions are back: {back}"


def test_no_reader_of_the_eigenvectors_takes_a_layout():
    # SpectralData carries its S (x) B layout, checked once on construction,
    # so neither its methods nor the dynamics functions take one
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("spectral", "dynamics")}
    spectral_data, = (node for node in trees["spectral"].body
                      if isinstance(node, ast.ClassDef) and node.name == "SpectralData")
    functions = [node for node in (*spectral_data.body, *trees["dynamics"].body)
                 if isinstance(node, ast.FunctionDef)]
    taking = sorted(node.name for node in functions for arg in ast.walk(node.args)
                    if isinstance(arg, ast.arg) and arg.arg == "layout")
    assert functions and not taking, f"functions that take a layout: {taking}"


def test_readme_library_use_names_no_replaced_definition():
    # a replaced name as a code span (`name`, `module.name` or `name(...)`)
    # in "## Library use" would document API that no longer exists
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    section = section.split("\n## ")[0]
    spans = re.findall(r"`([^`\n]+)`", section)
    named = sorted({name for span in spans for name in GONE
                    if re.fullmatch(rf"(?:\w+\.)*{re.escape(name)}(?:\(.*\))?", span)})
    assert not named, f"README Library use names replaced definitions: {named}"


def test_every_threshold_is_a_named_constant():
    # a float literal below 1e-6 in a comparison, or as a tolerance argument,
    # is a threshold written at its check: each is a module constant instead
    def small_literals(node):
        return [sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)
                and type(sub.value) is float and 0.0 < abs(sub.value) < 1e-6]

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) or (
                    isinstance(node, ast.keyword) and node.arg in ("rel_tol", "abs_tol")):
                found.extend(f"{path.name}:{node.lineno}: {value!r}"
                             for value in small_literals(node))
    assert not found, f"thresholds written as literals: {found}"


def test_the_registry_holds_the_bounds_and_the_pipeline_the_builders():
    assert [field.name for field in dataclasses.fields(Theorem)] == [
        "rhs", "max_lhs", "nondegenerate"]
    assert cli._REPORTS.keys() == set(THEOREM_IDS)


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


def test_the_cli_compares_no_model_kind():
    # each model kind is one entry of cli.MODEL_KINDS, which the config and
    # the pipeline read: no comparison or match in cli.py names config.kind
    # or a kind read from the config (a name or attribute ``kind``), and no
    # ConfigKey lists the kinds that accept it
    def names_a_kind(node):
        return any(isinstance(sub, ast.Name) and sub.id == "kind"
                   or isinstance(sub, ast.Attribute) and sub.attr == "kind"
                   for sub in ast.walk(node))

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(map(names_a_kind, (node.left, *node.comparators)))
             or isinstance(node, ast.Match) and names_a_kind(node.subject)]
    assert not found, f"comparisons with a model kind: {found}"
    assert "kinds" not in {field.name for field in dataclasses.fields(cli.ConfigKey)}


def test_readme_model_bullets_are_the_kind_table():
    # one bullet per MODEL_KINDS entry under ### `[model]`, in the table's
    # order, whose "Keys:" sentence names the entry's keys, each required one
    # marked "(required)"
    section = README.read_text(encoding="utf-8").split("\n### `[model]`\n")[1]
    bullets = re.findall(r"^\* `kind = (\w+)`:(.*?)(?=^\S|^\* )", section.split("\n### ")[0],
                         flags=re.M | re.S)
    assert [name for name, _ in bullets] == list(cli.MODEL_KINDS)
    for name, text in bullets:
        keys = re.search(r"Keys:(.*?)\.(?:\s|$)", text, flags=re.S).group(1)
        kind = cli.MODEL_KINDS[name]
        assert re.findall(r"`(\w+)`", keys) == list(kind.keys), name
        assert re.findall(r"`(\w+)` \(required\)", keys) == list(kind.required), name


def test_readme_subcommand_table_is_the_command_table():
    # the table under "## Command line" lists each subcommand once, in the
    # order of cli._COMMANDS, so that no command comes or goes without its row
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    rows = re.findall(r"^\| `([\w-]+)` +\|", section, flags=re.M)
    assert rows == list(cli._COMMANDS)


def test_readme_pipeline_by_hand_prints_what_the_readme_shows(capsys):
    match = re.search(r"The same pipeline by hand:\n\n```python\n(.*?)```\n\nprints\n\n"
                      r"```\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert match, "README lacks the hand-run example and its printed output"
    code, printed = match.groups()
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == printed


def test_the_console_script_runs_the_module_entry():
    # the isibench script of [project.scripts] and ``python -m isibench.cli``
    # call one function, so that the two process paths cannot drift apart
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    target = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, function = target["isibench"].partition(":")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1
    called = [node.func.id for node in ast.walk(blocks[0])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert (module, called) == ("isibench.cli", [function])
    assert callable(getattr(cli, function))
