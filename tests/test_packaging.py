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
#: reach, directly or through other entries, as module[.class].name.  Each
#: backs a test until a verdict of the program reads it or it is deleted.
#: An entry is added only for existing code that the program stops
#: reaching, or that the check newly sees it never reached; never for new
#: code written for the tests alone.
TEST_ONLY = {
    "curvature_from_torsion._dstar_coefficient",
    "curvature_from_torsion.bhl_coefficients",
    "curvature_from_torsion.bhl_integrand",
    "curvature_from_torsion.d_star_theta",
    "curvature_from_torsion.lemma_gammas_kernel",
    "curvature_from_torsion.pi1s_state",
    "curvature_from_torsion.ric_star_from",
    "curvature_from_torsion.scal_coefficients",
    "curvature_from_torsion.scalars_from_torsion",
    "curvature_from_torsion.scalq_coefficients",
    "curvature_space.bilinear_component_basis",
    "curvature_space.curvature_residuals",
    "curvature_space.probe_tensors",
    "curvature_space.proj_form_S2H",
    "decomposition.ComponentBank.basis",
    "decomposition.Phi_map",
    "decomposition.Psi_map",
    "decomposition._constrained_triples",
    "decomposition._slot_pairs",
    "decomposition.l20es2h_embed",
    "decomposition.triple_embed",
    "decomposition.varphi",
    "decomposition.vartheta",
    "tables.corollary_vanishing",
    "tensor_ops.odot",
    "tensor_ops.p_form_inner",
    "tensor_ops.slot_act",
    "tensor_ops.wedge2",
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


def _loads(nodes) -> tuple:
    """(variables, attributes): the names that the AST ``nodes`` read as a
    variable (``ast.Name`` in a load) and as an attribute (``ast.Attribute``
    in a load)."""
    variables, attributes = set(), set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            variables.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return variables, attributes


def _reads() -> dict:
    """name -> (variables, attributes) that a function or method of
    ``src/qhcurv`` of that name reads.  Functions of one name in several
    modules or classes share one entry."""
    out = {}
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                variables, attributes = out.setdefault(node.name, (set(), set()))
                v, a = _loads(ast.walk(node))
                variables |= v
                attributes |= a
    return out


def _reached(reads: dict, variables, attributes) -> tuple:
    """The fixpoint from the roots ``variables`` and ``attributes``: with
    them, the (variables, attributes) read by every function or method whose
    name they read, by the functions whose names those read, and so on."""
    variables, attributes = set(variables), set(attributes)
    done, todo = set(), list(variables | attributes)
    while todo:
        name = todo.pop()
        if name in reads and name not in done:
            done.add(name)
            v, a = reads[name]
            variables |= v
            attributes |= a
            todo.extend(v | a)
    return variables, attributes


def _import_time_code(tree):
    """The nodes of a module that run when it is imported: all of it but
    the bodies of its functions and methods, whose decorators and defaults
    do run.  Class bases and bodies are module-level code."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.FunctionDef):
            todo += node.decorator_list + node.args.defaults
            todo += [d for d in node.args.kw_defaults if d is not None]
        else:
            todo += ast.iter_child_nodes(node)


def _roots(reads: dict) -> tuple:
    """(variables, attributes) that the program reads without a test: the
    import-time code of ``src/qhcurv``, its ``__all__``, ``cli.main`` (the
    entry point), the methods Python calls itself (``__init__``,
    ``__post_init__``, ``__enter__``, ...) and every attribute that
    ``perfbench`` reads.  perfbench's own variables reach nothing."""
    variables = {"main"} | {name for name in reads if name.startswith("__") and name.endswith("__")}
    attributes = set()
    for path in sorted((ROOT / "src" / "qhcurv").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        v, a = _loads(_import_time_code(tree))
        variables |= v
        attributes |= a
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                variables.update(ast.literal_eval(node.value))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        attributes |= _loads(ast.walk(ast.parse(path.read_text(), filename=str(path))))[1]
    return variables, attributes


def test_every_public_name_has_a_caller_or_is_a_listed_oracle():
    """Every top-level function and public class and method of
    ``src/qhcurv`` is reached from the roots of :func:`_roots`, through the
    functions they read and those functions' reads to a fixpoint
    (:func:`_reached`), or is listed in TEST_ONLY; and every TEST_ONLY
    entry still exists and is still not reached.  So code that only
    test-only code calls is test-only too.  A top-level name is reached by
    a variable or an attribute read of that name; a method or dataclass
    field (module.Class.member) only by an attribute read, so a local
    variable of the same name does not reach it."""
    reads = _reads()
    names, attributes = _reached(reads, *_roots(reads))

    def reached(qualified, name):
        return name in attributes or (qualified.count(".") == 1 and name in names)

    test_only = {q for q, name in _definitions().items() if not reached(q, name)}
    assert sorted(test_only - TEST_ONLY) == [], "only tests call these: delete them or list them"
    assert sorted(TEST_ONLY - test_only) == [], "gone or called now: drop them from TEST_ONLY"


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
    variables, attributes = _reached(reads, oracles, ())
    assert sorted((variables | attributes) & bank_code) == []


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
