"""Command-line front end.

Subcommands: ``audit`` (ranks, dimensions and projector algebra),
``decompose`` (component norms of a curvature tensor file), ``torsion``
(six-component split and class mask, from a torsion tensor or nabla-omega
data), ``tables`` (the randomized contribution tables with a diff against
the embedded expectations), and ``make-tensor`` (write sample tensor files
for the two input formats).  Every gate reads one named module constant,
which the report's ``tolerances`` records; no flag changes it.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 ambiguous
table cells needing more seeds.  Output is deterministic for one BLAS
build and one thread count (``OPENBLAS_NUM_THREADS``): identical flags and
seeds then give byte-identical reports.  At n = 3 the torsion bases, in
which the table states are drawn, change in their last bits with the
thread count, so table witnesses can move with it; ticks and statuses do
not.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import curvature_space as cs
from . import decomposition as dec
from . import tables as tbl
from . import tensor_io as tio
from . import torsion as tor
from .model_space import build_model


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qhcurv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--n", type=int, required=True, help="quaternionic dimension (2 or 3)")
    report = argparse.ArgumentParser(add_help=False, parents=[every])
    report.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the JSON report here")

    sub.add_parser("audit", parents=[report], help="dimension and projector-algebra audit")

    sp = sub.add_parser("decompose", parents=[report],
                        help="fine component norms of a curvature tensor")
    sp.add_argument("--input", type=str, required=True, metavar="FILE")

    sp = sub.add_parser("torsion", parents=[report], help="six-component torsion classification")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=str, metavar="FILE",
                       help="rank-3 torsion tensor file")
    group.add_argument("--from-nabla-omega", nargs=3, metavar=("F1", "F2", "F3"),
                       help="three rank-3 nabla-omega tensor files (I, J, K)")

    sp = sub.add_parser("tables", parents=[report],
                        help="contribution tables vs embedded expectations")
    sp.add_argument("--seeds", type=int, default=tbl.DEFAULT_SEEDS)

    sp = sub.add_parser("make-tensor", parents=[every], help="write a sample tensor file")
    sp.add_argument("--kind", choices=["random-curvature", "qk-ray", "random-torsion",
                                       "nabla-omega"],
                    default="random-curvature")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", type=str, required=True, metavar="FILE")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    if args.n not in (2, 3):
        return _error("--n must be 2 or 3", 1)
    if getattr(args, "seeds", 1) < 1:
        return _error("--seeds must be at least 1", 1)

    m = build_model(args.n)

    paths = ([args.input] if getattr(args, "input", None)
             else getattr(args, "from_nabla_omega", None) or [])
    try:
        inputs = [tio.read_tensor(path) for path in paths]
    except (OSError, tio.TensorFileError) as exc:
        return _error(exc)
    # checked before any bank is built: a wrong file fails in milliseconds
    rank = {"decompose": 4, "torsion": 3}.get(args.command)
    if any(tens.rank != rank or tens.n != args.n for tens in inputs):
        return _error(f"{args.command} expects rank-{rank} files with n = {args.n}", 1)

    # each reporting command sets its results and failures, then writes the
    # report and prints the summary below; any failure exits 2
    gate = {"audit": dec.AUDIT_TOL, "decompose": cs.CERT_TOL,
            "torsion": tor.RESIDUAL_TOL}.get(args.command)
    tolerances, quiet, ambiguous = {"tol": gate}, frozenset(), False
    if args.command == "audit":
        bank = dec.build_sp_projectors(m)
        report = dec.dimension_audit(bank)
        body = tio.jsonable(dataclasses.asdict(report))
        results = [{"check": "dim_R", "value": report.dim_R,
                    "expected": report.dim_R_formula, "tolerance": 0},
                   {"check": "dim_QK", "value": report.dim_QK,
                    "expected": report.dim_QK_formula, "tolerance": 0},
                   {"check": "ranks", "value": body["ranks"],
                    "expected": body["expected"], "tolerance": 0},
                   {"check": "projector_algebra",
                    "value": body["algebra_residuals"], "tolerance": gate},
                   {"check": "eigen_residuals",
                    "value": body["eigen_residuals"], "tolerance": gate}]
        failures = report.failures

    elif args.command == "decompose":
        try:
            R = cs.CurvatureTensor.certify(inputs[0].data)
            bank = dec.build_sp_projectors(m)
            parts, total = bank.norms(R.tensor)
            norms = dec.parseval_norms(parts, total)
        except cs.CertificationError as exc:  # fails a condition of R, or Parseval
            results, failures = [], [str(exc)]
        except ValueError as exc:             # a norm too large for a float
            return _error(exc)
        else:
            parts = dict(zip(bank.parts, parts.tolist()))
            results = [{"check": "component_norms", "value": tio.jsonable(norms),
                        "tolerance": dec.PARSEVAL_TOL},
                       {"check": "qk_norm", "value": dec.composite_norm(parts, "QK"),
                        "tolerance": dec.PARSEVAL_TOL},
                       {"check": "qkperp_norm", "value": dec.composite_norm(parts, "QKperp"),
                        "tolerance": dec.PARSEVAL_TOL}]
            failures = []

    elif args.command == "torsion":
        try:
            if args.input:
                t = inputs[0].data
                resid = tor.torsion_space_residual(m, t)
                defect = "input outside the torsion space"
            else:
                t, _, resid = tor.torsion_from_nabla_omega(m, *[w.data for w in inputs])
                defect = "nabla-omega data not realizable"
            tbank = tor.build_torsion_bank(m)
            parts, total = tbank.norms(t)
            mask = tor.mask_from_norms(parts, total)
        except ValueError as exc:   # not antisymmetric in (Y, Z), or a norm too large
            return _error(exc)
        failures = [] if resid <= gate else [f"{defect}: residual {resid}"]
        norms = dict(zip(tbank.names, parts.tolist()))
        results = [{"check": "component_norms", "value": tio.jsonable(norms),
                    "tolerance": tor.MASK_TOL},
                   {"check": "class_mask", "value": mask,
                    "order": list(tor.TORSION_COMPONENTS), "tolerance": tor.MASK_TOL}]

    elif args.command == "tables":
        bank = dec.build_sp_projectors(m)
        tbank = tor.build_torsion_bank(m)
        report = tbl.run_tables(bank, tbank, seeds=args.seeds)
        cells = [{"source": c.source, "table": c.table, "target": c.target,
                  "tick": c.tick, "expected": c.expected, "status": c.status,
                  "witness": c.witness, "seeds": c.seeds_used}
                 for c in report.cells]
        failures = [f"{c.source} T{c.table} {c.target}" for c in report.mismatches]
        results = [{"check": "cells", "value": tio.jsonable(cells), "tolerance": None},
                   {"check": "remark_consistent",
                    "value": [f"{c.source} T{c.table} {c.target}"
                              for c in report.remark_cells], "tolerance": None},
                   {"check": "low_n_degenerate",
                    "value": [f"{c.source} T{c.table} {c.target}"
                              for c in report.cells if c.status == "low_n_zero"],
                    "tolerance": None},
                   {"check": "directions",
                    "value": tio.jsonable(report.direction_checks),
                    "tolerance": tbl.DIRECTION_TOL}]
        tolerances = {"tick_on": tbl.TICK_ON, "tick_off": tbl.TICK_OFF}
        quiet, ambiguous = frozenset({"cells", "directions"}), bool(report.ambiguous)

    elif args.command == "make-tensor":
        # (path, tensor, certified) of each file to write
        if args.kind == "random-curvature":
            files = [(args.output, cs.random_curvature(m, args.seed).tensor, True)]
        elif args.kind == "qk-ray":
            files = [(args.output, m.pi2 + 2.0 * m.pi1, True)]
        else:
            key = "cli-torsion" if args.kind == "random-torsion" else "cli-nw"
            rng = cs.substream(key, args.seed)
            t = tor.project_to_torsion_space(m, rng.standard_normal((m.dim,) * 3))
            files = [(args.output, t, False)]
            if args.kind == "nabla-omega":
                nws = tor.nabla_omega_from_torsion(m, t, rng.standard_normal((3, m.dim)))
                files = [(f"{args.output}.{label}", w, False) for label, w in zip("IJK", nws)]
        try:
            for path, data, certified in files:
                tio.write_tensor(path, args.n, data, certified=certified)
        except OSError as exc:
            return _error(exc)
        return 0

    try:
        tio.write_report(args.json, args.n, args.command, tolerances, results, failures)
    except OSError as exc:
        return _error(exc)
    _emit(results, failures, quiet_keys=quiet)
    return 2 if failures else 3 if ambiguous else 0


def _error(message, code: int = 2) -> int:
    """One ``qhcurv:`` line to stderr; exit code 1 (usage) or 2 (input, output)."""
    print(f"qhcurv: {message}", file=sys.stderr)
    return code


def _emit(results, failures, quiet_keys=frozenset()) -> None:
    for item in results:
        key = item.get("check")
        if key in quiet_keys:
            print(f"{key}: ({len(item['value'])} entries)")
        else:
            print(f"{key}: {json.dumps(item['value'], sort_keys=True)}")
    for f in failures:
        print(f"FAIL: {f}")


if __name__ == "__main__":
    sys.exit(main())
