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
    "curvature_from_torsion.bhl_coefficients",
    "curvature_from_torsion.bhl_integrand",
    "curvature_from_torsion.lemma_gammas_kernel",
    "curvature_from_torsion.pi1es_state",
    "curvature_from_torsion.pi1s_state",
    "curvature_from_torsion.ric_star_from",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _definitions() -> dict:
    """module[.class].name -> name, for every top-level function and public
    class of ``src/qhcurv``, every public method of those classes and every
    public field of those that are dataclasses."""
    out = {}
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) or (
                    isinstance(node, ast.ClassDef) and not node.name.startswith("_")):
                out[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    names = [sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)]
                    if _is_dataclass(node):
                        names += [sub.target.id for sub in node.body
                                  if isinstance(sub, ast.AnnAssign)
                                  and isinstance(sub.target, ast.Name)]
                    out.update((f"{path.stem}.{node.name}.{name}", name)
                               for name in names if not name.startswith("_"))
    return out


def _reached_names() -> tuple:
    """(names, attributes): every name that ``src/qhcurv`` reads as a
    variable (``ast.Name`` in a load) or exports in ``__all__``, and every
    attribute that ``src/qhcurv`` or ``perfbench`` reads (``ast.Attribute``
    in a load).  perfbench's own variables reach nothing."""
    names, attributes = set(), set()
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        src = path.parent.name == "qhcurv"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif src and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif src and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names.update(ast.literal_eval(node.value))
    return names, attributes


def test_every_public_name_has_a_caller_or_is_a_listed_oracle():
    """Every top-level function and public class and method of
    ``src/qhcurv`` is read by the program or the benchmark, or exported, or
    listed in TEST_ONLY; and every TEST_ONLY entry still exists and still
    has no such caller.  A top-level name is reached by a variable or an
    attribute read of that name; a method or dataclass field
    (module.Class.member) only by an attribute read, so a local variable
    of the same name does not reach it."""
    names, attributes = _reached_names()

    def reached(qualified, name):
        return name in attributes or (qualified.count(".") == 1 and name in names)

    test_only = {q for q, name in _definitions().items() if not reached(q, name)}
    assert sorted(test_only - TEST_ONLY) == [], "only tests call these: delete them or list them"
    assert sorted(TEST_ONLY - test_only) == [], "gone or called now: drop them from TEST_ONLY"


def _reads() -> dict:
    """name -> every name that a function or method of ``src/qhcurv`` of
    that name reads, as a variable or as an attribute.  Functions of one
    name in several modules or classes share one entry."""
    out = {}
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                out.setdefault(node.name, set()).update(
                    sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                    if isinstance(sub, (ast.Name, ast.Attribute)))
    return out


def test_the_audit_oracles_reach_no_bank_code():
    """L_map, L_sigma_map and Cas_map, through _pair_sum, call none of the
    code that builds the projector bank: H's Kronecker terms, the closed-form
    basis of R or the gated eigh.  So ``dimension_audit`` checks the bank
    with code of its own."""
    reads = _reads()
    bank_code = {"h_terms", "_kron_block", "_pair_derivations", "_entries",
                 "curvature_basis", "_eigenspaces"}
    oracles = {"L_map", "L_sigma_map", "Cas_map", "_pair_sum"}
    assert bank_code | oracles <= reads.keys()
    reached, todo = set(), list(oracles)
    while todo:
        name = todo.pop()
        if name in reads and name not in reached:
            reached.add(name)
            todo.extend(reads[name])
    assert sorted(reached & bank_code) == []


def test_no_gate_is_a_setting():
    """Every gate reads a named module constant: no function or method of
    ``src/qhcurv`` takes a parameter named ``tol`` except
    ``decomposition.dimension_audit``, whose keyword the benchmark passes,
    and ``cli.py`` reads no environment variable."""
    takes_tol = sorted(
        f"{path.stem}.{node.name}"
        for path in (ROOT / "src" / "qhcurv").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "tol" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)})
    assert takes_tol == ["decomposition.dimension_audit"]
    cli = ast.parse((ROOT / "src" / "qhcurv" / "cli.py").read_text())
    read = {node.id for node in ast.walk(cli) if isinstance(node, ast.Name)} \
        | {node.attr for node in ast.walk(cli) if isinstance(node, ast.Attribute)}
    assert not read & {"environ", "environb", "getenv", "getenvb", "putenv"}
