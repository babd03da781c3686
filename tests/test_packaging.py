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
