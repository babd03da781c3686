"""Every module imported by the package or its tests is either part of the
standard library, first-party, or declared in ``pyproject.toml``."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _declared() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = list(project.get("dependencies", ()))
    for extra in project.get("optional-dependencies", {}).values():
        specs += extra
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
            for spec in specs}


def _imports(path: Path) -> set:
    """Top-level names of every absolute import in one file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_every_third_party_import_is_declared():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    first_party = {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}
    first_party |= {p.stem for p in (ROOT / "tests").glob("*.py")}
    allowed = set(sys.stdlib_module_names) | first_party | _declared()
    missing = {(str(path.relative_to(ROOT)), name)
               for path in files for name in _imports(path) if name not in allowed}
    assert not missing, f"undeclared third-party imports: {sorted(missing)}"


def test_singular_value_rank_rules_stay_in_the_torsion_bank():
    """Every rank outside the torsion bank is a gated eigh against
    closed-form values: no other module calls an SVD, a least-squares
    solve, a pseudo-inverse or a numerical rank."""
    pattern = re.compile(r"linalg\.svd|lstsq|pinv|matrix_rank")
    found = sorted(f"{path.name}:{number}"
                   for path in (ROOT / "src" / "qhcurv").glob("*.py") if path.name != "torsion.py"
                   for number, line in enumerate(path.read_text().splitlines(), 1)
                   if pattern.search(line))
    assert found == []


def test_the_scale_rule_stays_in_tensor_ops():
    """Only tensor_ops chooses the scale of a verdict
    (``tensor_ops.binary_scaled``): no other module floors a norm
    (1e-300), reads a binary exponent (frexp) or sets a floating-point
    error state (errstate).  Multiplying a result back by 2^e with np.ldexp
    stays with the callers."""
    pattern = re.compile(r"1e-300|frexp|errstate")
    found = sorted(f"{path.name}:{number}"
                   for path in (ROOT / "src" / "qhcurv").glob("*.py")
                   if path.name != "tensor_ops.py"
                   for number, line in enumerate(path.read_text().splitlines(), 1)
                   if pattern.search(line))
    assert found == []


#: ROADMAP item 9's oracles: the public functions, classes and methods and
#: the private top-level functions of ``src/qhcurv`` that only the tests
#: call, as module[.class].name.  Each backs a test until a verdict of the
#: program reads it or it is deleted; the set can only shrink.
TEST_ONLY = {
    "curvature_from_torsion.TorsionState.validate",
    "curvature_from_torsion.bhl_coefficients",
    "curvature_from_torsion.bhl_integrand",
    "curvature_from_torsion.dd_omega_residual",
    "curvature_from_torsion.lemma_gammas_kernel",
    "curvature_from_torsion.pi1_operator",
    "curvature_from_torsion.pi1es_state",
    "curvature_from_torsion.pi1s_state",
    "curvature_from_torsion.reference_deviations",
    "curvature_from_torsion.ric_from",
    "curvature_from_torsion.ric_star_from",
    "curvature_from_torsion.ricq_from",
    "curvature_space.bilinear_component_basis",
    "curvature_space.curvature_residuals",
    "curvature_space.probe_tensors",
    "decomposition.ComponentBank.basis",
    "decomposition.Phi_map",
    "decomposition.Psi_map",
    "decomposition._constrained_triples",
    "decomposition.l20es2h_embed",
    "decomposition.varphi",
    "decomposition.vartheta",
    "tables.corollary_vanishing",
    "tensor_ops.odot",
    "tensor_ops.p_form_inner",
    "tensor_ops.slot_act",
    "torsion.psi_k_solve",
    "torsion.residual_cyclic",
    "torsion.residual_h_conditions",
    "torsion.residual_s3h_conditions",
    "torsion.residual_skew",
    "torsion.residual_trace_free",
}


def _definitions() -> dict:
    """module[.class].name -> name, for every top-level function and public
    class of ``src/qhcurv`` and every public method of those classes."""
    out = {}
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) or (
                    isinstance(node, ast.ClassDef) and not node.name.startswith("_")):
                out[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    out.update((f"{path.stem}.{node.name}.{sub.name}", sub.name)
                               for sub in node.body if isinstance(sub, ast.FunctionDef)
                               and not sub.name.startswith("_"))
    return out


def _reached_names() -> set:
    """Every name that ``src/qhcurv`` or ``perfbench`` reads (``ast.Name``
    or ``ast.Attribute``) or exports in ``__all__``."""
    out = set()
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                out.update(ast.literal_eval(node.value))
    return out


def test_every_public_name_has_a_caller_or_is_a_listed_oracle():
    """Every top-level function and public class and method of
    ``src/qhcurv`` is read by the program or the benchmark, or exported, or
    listed in TEST_ONLY; and every TEST_ONLY entry still exists and still
    has no such caller."""
    reached = _reached_names()
    test_only = {q for q, name in _definitions().items() if name not in reached}
    assert sorted(test_only - TEST_ONLY) == [], "only tests call these: delete them or list them"
    assert sorted(TEST_ONLY - test_only) == [], "gone or called now: drop them from TEST_ONLY"
