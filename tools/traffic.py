"""List the statements of ``src/qhcurv`` that no command and no benchmark
workload executes.

Under ``sys.settrace``, in this process and in a temporary directory, the
script runs at n = 2: ``make-tensor`` of all four kinds; ``audit`` once,
without ``--json``; ``decompose`` of the random-curvature file and of the
qk-ray file; ``torsion --input``; ``torsion --from-nabla-omega``; and
``tables``.  It then runs the ``tables-n2`` and ``classify-n2`` functions of
``perfbench/workloads.py``, unchanged, for 0.3 s each against their
committed references.  It prints every statement that never ran, grouped
by the function (or class body, or module) that holds it, with the code
lines each group spans, counted as ``tools/code_lines.py`` counts them.  A
function none of whose statements ran is one line.  Besides the standard
library it imports only the package, ``perfbench/workloads.py`` and
``tools/code_lines.py``.

    python tools/traffic.py
"""

from __future__ import annotations

import ast
import collections
import contextlib
import importlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from code_lines import code_line_set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qhcurv"
SECONDS = 0.3
SEED = 1


def _tracer(hits: dict):
    """A global trace function that records, per file of the package, the
    line numbers it executes; frames of other files are not traced."""
    ours = {}

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
        return line if ours[name] else None

    return call


def _cli(*argv: str) -> None:
    from qhcurv import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"traffic: qhcurv {' '.join(argv)} exited {code}")


def _exercise(work: str) -> None:
    """Every CLI command at n = 2, then the two workloads."""
    def at(name):
        return str(Path(work) / name)

    for kind in ("random-curvature", "qk-ray", "random-torsion", "nabla-omega"):
        _cli("make-tensor", "--n", "2", "--kind", kind, "--output", at(kind + ".qht"))
    _cli("audit", "--n", "2")
    runs = (("decompose", "--input", at("random-curvature.qht")),
            ("decompose", "--input", at("qk-ray.qht")),
            ("torsion", "--input", at("random-torsion.qht")),
            ("torsion", "--from-nabla-omega", *(at(f"nabla-omega.qht.{A}") for A in "IJK")),
            ("tables",))
    for command, *args in runs:
        _cli(command, "--n", "2", *args, "--json", at("report.json"))

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    q = SimpleNamespace(**{path.stem: importlib.import_module(f"qhcurv.{path.stem}")
                           for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"})
    for name in ("tables-n2", "classify-n2"):
        with open(ROOT / "perfbench" / "reference" / f"{name}.json") as fh:
            reference = json.load(fh)
        ctx = workloads.Ctx(q=q, seed=SEED, seconds=SECONDS, workdir=work, reference=reference)
        outcome = workloads.WORKLOADS[name](ctx)
        if not outcome.correct or outcome.failed:
            raise SystemExit(f"traffic: workload {name} failed: {outcome.notes}")


def _statements(body: list, holder: str, parent, out: list) -> None:
    """Append (holder, statement, enclosing statement) for every statement
    of ``body`` that compiles to code, and recurse; a def or a class holds
    its own body.  Docstrings and other bare strings compile to none."""
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        out.append((holder, node, parent))
        inner = holder
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{holder}.{node.name}" if holder else node.name
        blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
        blocks += [part.body for part in getattr(node, "handlers", []) + getattr(node, "cases", [])]
        for block in blocks:
            _statements(block, inner, node, out)


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not in a nested statement: all of
    a simple one, the header (decorators included) of a compound one."""
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(start, max(start + 1, body[0].lineno))


def unexecuted(path: Path, lines: set) -> list:
    """(holder, statements that never ran, whether none of the holder's
    statements ran) per holder of ``path``, in source order.  A
    statement ran when a line of its own ran or one of its children did;
    the children of a statement that never ran are not listed."""
    triples = []
    _statements(ast.parse(path.read_text(), filename=str(path)).body, "", None, triples)
    ran = {id(node): bool(lines.intersection(_own_lines(node))) for _, node, _ in triples}
    for _, node, parent in reversed(triples):         # children before their parents
        if ran[id(node)] and parent is not None:
            ran[id(parent)] = True
    groups = collections.defaultdict(list)
    for holder, node, parent in triples:
        groups[holder].append((node, parent))
    out = []
    for holder, members in groups.items():
        missed = [node for node, parent in members
                  if not ran[id(node)] and (parent is None or ran[id(parent)])]
        if missed:
            out.append((holder, missed, not any(ran[id(node)] for node, _ in members)))
    return out


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    hits = collections.defaultdict(set)
    t0 = time.perf_counter()
    sys.settrace(_tracer(hits))
    try:
        import qhcurv                               # its import-time code is traced
        if Path(qhcurv.__file__).resolve().parent != PACKAGE:
            raise SystemExit(f"traffic: qhcurv imported from {qhcurv.__file__}")
        with tempfile.TemporaryDirectory() as work:
            _exercise(work)
    finally:
        sys.settrace(None)
    traced_s = time.perf_counter() - t0
    by_file = collections.defaultdict(set)
    for name, lines in hits.items():
        by_file[Path(name).resolve()] |= lines
    total_stmts = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        code = code_line_set(path)
        source = path.read_text().splitlines()
        groups = unexecuted(path, by_file[path])
        if groups:
            print(path.name)
        for holder, missed, whole in groups:
            span = {k for node in missed for k in range(node.lineno, node.end_lineno + 1)} & code
            total_stmts += len(missed)
            total_lines += len(span)
            label = holder or "<module>"
            if whole:
                print(f"  {label}: never ran ({len(span)} code lines)")
                continue
            print(f"  {label} ({len(span)} code lines)")
            for node in missed:
                print(f"    {node.lineno:4d}  {source[node.lineno - 1].strip()[:72]}")
    print(f"{total_stmts} statements never ran, {total_lines} code lines; "
          f"traced run {traced_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
