"""The three workloads: set-up, timed phase, and the check of every output.

Each workload function takes a ``Ctx`` and returns an ``Outcome``.  The
client is closed-loop: one caller, the next call only after the previous
one returned.  ``observed`` holds the outputs compared against the
committed seed reference in ``reference/<workload>.json``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

RESIDUAL_TOL = 1e-9      # audit residuals (the CLI's default tolerance)
WITNESS_RTOL = 1e-9      # ticked-cell witnesses against the reference
TABLE_SEEDS = 8


@dataclass
class Ctx:
    q: SimpleNamespace           # the package's layer modules
    seed: int
    seconds: float
    workdir: str
    reference: dict | None       # None while writing the reference
    tracer: object | None = None


@dataclass
class Outcome:
    setup_s: float               # the set-up before the timed phase
    wall_s: float
    items_ms: list               # item latencies, one list per batch of items
    attempted: int
    failed: int
    correct: bool
    observed: dict
    notes: list = field(default_factory=list)
    own_cpu_s: float = 0.0       # CPU time spent making inputs, not in the program


class Checks:
    """Counts attempted and failed operations; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


#: (n, whether the banks are set-up) of each workload
SETUPS = {"banks-n3": (3, False), "tables-n2": (2, True), "classify-n2": (2, True)}


def setup(q, workload: str):
    """The workload's set-up: (model, bank, torsion bank, seconds taken)."""
    n, with_banks = SETUPS[workload]
    t0 = time.perf_counter()
    m = q.model_space.build_model(n)
    bank = tbank = None
    if with_banks:
        bank = q.decomposition.build_sp_projectors(m)
        tbank = q.torsion.build_torsion_bank(m)
    return m, bank, tbank, time.perf_counter() - t0


def _within(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# banks-n3

def banks_n3(ctx: Ctx) -> Outcome:
    q = ctx.q
    m, _, _, setup_s = setup(q, "banks-n3")

    def build():
        bank = q.decomposition.build_sp_projectors(m)
        audit = q.decomposition.dimension_audit(bank, tol=RESIDUAL_TOL)
        tbank = q.torsion.build_torsion_bank(m)
        return bank, audit, tbank

    (bank, audit, tbank), wall = _timed(build)
    observed = {
        "ranks": dict(audit.ranks),
        "torsion_ranks": {c: tbank.rank(c) for c in q.torsion.TORSION_COMPONENTS},
    }
    ref = ctx.reference or observed
    ck = Checks()
    for name, rank in observed["ranks"].items():
        ck.check(rank == ref["ranks"][name], f"rank({name}) = {rank}")
    for name, rank in observed["torsion_ranks"].items():
        ck.check(rank == ref["torsion_ranks"][name], f"torsion rank({name}) = {rank}")
    ck.check(audit.dim_R == audit.dim_R_formula, f"dim R = {audit.dim_R}")
    ck.check(audit.dim_QK == audit.dim_QK_formula, f"dim QK = {audit.dim_QK}")
    for name, resid in {**audit.eigen_residuals, **audit.algebra_residuals}.items():
        ck.check(resid <= RESIDUAL_TOL, f"residual {name} = {resid}")
    return Outcome(setup_s=setup_s, wall_s=wall, items_ms=[[wall * 1e3]],
                   attempted=ck.attempted, failed=ck.failed,
                   correct=ck.failed == 0, observed=observed, notes=ck.notes)


# ---------------------------------------------------------------------------
# tables-n2

def tables_n2(ctx: Ctx) -> Outcome:
    q = ctx.q
    _, bank, tbank, setup_s = setup(q, "tables-n2")
    report, wall = _timed(lambda: q.tables.run_tables(bank, tbank, seeds=TABLE_SEEDS))
    observed = {
        "cells": [[c.source, c.table, c.target, c.status, bool(c.tick), float(c.witness)]
                  for c in report.cells],
        "directions": [[d["source"], d["seed"], bool(d["aligned"]),
                        float(d["cos_direction"])] for d in report.direction_checks],
    }
    ref = ctx.reference or observed
    ck = Checks()
    ref_cells = {tuple(c[:3]): c for c in ref["cells"]}
    seen = set()
    for cell in observed["cells"]:
        key = tuple(cell[:3])
        seen.add(key)
        want = ref_cells.get(key)
        ok = (want is not None and cell[3] == want[3] and cell[4] == want[4]
              and cell[3] not in ("mismatch", "ambiguous")
              and (not cell[4] or _within(cell[5], want[5], WITNESS_RTOL)))
        ck.check(ok, f"cell {key}: {cell[3:]} vs {want and want[3:]}")
    for key in ref_cells.keys() - seen:
        ck.check(False, f"cell {key} missing")
    ref_dirs = {(d[0], d[1]): d for d in ref["directions"]}
    for d in observed["directions"]:
        want = ref_dirs.get((d[0], d[1]))
        ok = (want is not None and d[2] and d[2] == want[2]
              and abs(d[3] - want[3]) <= WITNESS_RTOL)
        ck.check(ok, f"direction {d[:2]}: {d[2:]} vs {want and want[2:]}")
    if len(observed["directions"]) != len(ref_dirs):
        ck.check(False, "direction checks missing")
    return Outcome(setup_s=setup_s, wall_s=wall, items_ms=[[wall * 1e3]],
                   attempted=ck.attempted, failed=ck.failed,
                   correct=ck.failed == 0, observed=observed, notes=ck.notes)


# ---------------------------------------------------------------------------
# classify-n2

#: One block of the stream; every block is a seeded shuffle of these kinds.
BLOCK = (("curv",) * 3 + ("tors",) * 3 + ("nw",) * 3
         + ("curv-asym", "tors-off", "nw-bad", "trunc", "trunc-head",
            "nan-curv", "nan-tors"))
NONFINITE = ("nan-curv", "nan-tors")
CURVATURE_KINDS = ("curv", "curv-asym", "trunc", "trunc-head", "nan-curv")
HEADER = 28              # bytes before the payload of a rank-4 file
ITEMS_PER_SECOND = 1280  # stream length per requested second (about 1 s of work)
CHUNK_BLOCKS = 32        # blocks written to disk, then classified, at a time
POOL = 64                # payloads made per kind; each item rescales one
NORM_FLOOR = 1e-6        # component-mask threshold, relative to the total norm
PERTURB = 1e-3           # size of the symmetry-breaking perturbations


def _unit(x):
    return x / np.linalg.norm(x)


class StreamMaker:
    """Seeded generator of classify items: (kind, file paths, expected verdict).

    Each item is a pool payload times a random factor in [1/2, 2], which
    changes no verdict (every check is relative) but makes every file
    distinct.  Making the pool calls the package (projections, the
    nabla-omega map); tracing is paused meanwhile, as that is the
    benchmark's own work.
    """

    def __init__(self, q, m, bank, tbank, workdir, seed, tracer=None):
        self.q, self.m, self.bank, self.tbank = q, m, bank, tbank
        self.workdir = workdir
        self.fine = [c for c in q.decomposition.FINE_COMPONENTS if bank.rank(c)]
        self.tors = [c for c in q.torsion.TORSION_COMPONENTS if tbank.rank(c)]
        rng = np.random.default_rng([seed, 0])
        if tracer is not None:
            tracer.enabled = False
        self.pool = {kind: [self.payload(kind, rng) for _ in range(POOL)]
                     for kind in sorted(set(BLOCK))}
        if tracer is not None:
            tracer.enabled = True

    def _mix(self, rng, names, project, shape):
        chosen = sorted(rng.choice(len(names), size=rng.integers(1, 4), replace=False))
        total = sum(rng.uniform(0.5, 2.0) * _unit(project(rng.standard_normal(shape), names[i]))
                    for i in chosen)
        return total, {names[i] for i in chosen}

    def curvature(self, rng):
        d = self.m.dim
        R, comps = self._mix(rng, self.fine, self.bank.project, (d,) * 4)
        mask = "".join("1" if c in comps else "0"
                       for c in self.q.decomposition.FINE_COMPONENTS)
        return R, mask

    def torsion(self, rng):
        d = self.m.dim
        t, comps = self._mix(rng, self.tors, self.tbank.project, (d,) * 3)
        mask = "".join("1" if c in comps else "0" for c in self.q.torsion.TORSION_COMPONENTS)
        return t, mask

    def payload(self, kind, rng):
        """(list of (array, certified flag), expected verdict, truncate-to bytes)."""
        d = self.m.dim
        if kind in CURVATURE_KINDS:
            R, mask = self.curvature(rng)
            if kind == "curv":
                return [(R, True)], "accept:" + mask, None
            if kind == "curv-asym":
                R = R + PERTURB * np.linalg.norm(R) * _unit(rng.standard_normal(R.shape))
            elif kind == "nan-curv":
                R = R.copy()
                R[tuple(rng.integers(0, d, size=4))] = np.nan
            cut = None
            if kind == "trunc":
                cut = HEADER + 8 * int(rng.integers(0, R.size))
            elif kind == "trunc-head":     # after the magic, before the payload
                cut = int(rng.integers(4, HEADER))
            return [(R, True)], "reject", cut
        if kind in ("tors", "tors-off", "nan-tors"):
            t, mask = self.torsion(rng)
            if kind == "tors":
                return [(t, False)], "accept:" + mask, None
            if kind == "tors-off":
                t = t + PERTURB * np.linalg.norm(t) * _unit(rng.standard_normal(t.shape))
            else:
                t = np.full(t.shape, np.nan)
            return [(t, False)], "reject", None
        t, mask = self.torsion(rng)
        nws = self.q.torsion.nabla_omega_from_torsion(self.m, t, rng.standard_normal((3, d)))
        if kind == "nw-bad":
            noise = rng.standard_normal(nws.shape)
            noise = noise - noise.swapaxes(2, 3)
            nws = nws + PERTURB * np.linalg.norm(nws) * _unit(noise)
            return [(w, False) for w in nws], "reject", None
        return [(w, False) for w in nws], "accept:" + mask, None

    def chunk(self, seed, index, blocks):
        """Generate, and write to disk, one chunk of the stream.

        Chunks reuse the same file names: overwriting a file costs a
        fraction of creating and unlinking one."""
        rng = np.random.default_rng([seed, 1 + index])
        items = []
        for b in range(blocks):
            for k, kind in enumerate(rng.permutation(BLOCK)):
                kind = str(kind)
                arrays, expected, cut = self.pool[kind][rng.integers(POOL)]
                scale = rng.uniform(0.5, 2.0)
                paths = []
                for j, (arr, certified) in enumerate(arrays):
                    path = os.path.join(self.workdir, f"{b}-{k}-{j}.qht")
                    self.q.tensor_io.write_tensor(path, self.m.n, scale * arr,
                                                  certified=certified)
                    if cut is not None:
                        os.truncate(path, cut)
                    paths.append(path)
                items.append((kind, paths, expected))
        return items


class Classifier:
    """The client: one verdict per item, through the package's public calls."""

    def __init__(self, q, m, bank, tbank):
        self.q, self.m, self.bank, self.tbank = q, m, bank, tbank

    def _read(self, path, rank):
        tf = self.q.tensor_io.read_tensor(path)
        if tf.rank != rank or tf.n != self.m.n:
            raise ValueError("wrong rank or n")
        return tf.data

    def verdict(self, kind, paths) -> str:
        q = self.q
        try:
            if kind in CURVATURE_KINDS:
                R = q.curvature_space.CurvatureTensor.certify(self._read(paths[0], 4))
                norms = q.decomposition.component_norms(self.bank, R)
                floor = NORM_FLOOR * math.sqrt(sum(v * v for v in norms.values()))
                return "accept:" + "".join("1" if norms[c] > floor else "0"
                                           for c in q.decomposition.FINE_COMPONENTS)
            if kind in ("tors", "tors-off", "nan-tors"):
                t = self._read(paths[0], 3)
                # the torsion-space check of `qhcurv torsion --input`, as written there
                resid = q.tensor_ops.frob(q.torsion.project_to_torsion_space(self.m, t) - t)
                if resid > RESIDUAL_TOL * max(q.tensor_ops.frob(t), 1e-300):
                    return "reject"
                return "accept:" + self.tbank.class_mask(t)
            nws = [self._read(p, 3) for p in paths]
            t, _, resid = q.torsion.torsion_from_nabla_omega(self.m, *nws)
            if resid > 1e-10:
                return "reject"
            return "accept:" + self.tbank.class_mask(t)
        except ValueError:
            return "reject"
        except Exception as exc:    # a crash is not a clean rejection
            return f"error:{type(exc).__name__}"


def classify_n2(ctx: Ctx) -> Outcome:
    q = ctx.q
    m, bank, tbank, setup_s = setup(q, "classify-n2")
    cpu0 = time.process_time()
    maker = StreamMaker(q, m, bank, tbank, ctx.workdir, ctx.seed, ctx.tracer)
    own_cpu = time.process_time() - cpu0
    client = Classifier(q, m, bank, tbank)
    blocks = max(1, round(ctx.seconds * ITEMS_PER_SECOND / len(BLOCK)))
    known = (ctx.reference or {}).get("kinds", {})
    ck = Checks()
    correct = True
    items_ms = []
    wall = 0.0
    by_kind: dict = {}
    for index in range(math.ceil(blocks / CHUNK_BLOCKS)):
        cpu0 = time.process_time()
        items = maker.chunk(ctx.seed, index, min(CHUNK_BLOCKS, blocks - index * CHUNK_BLOCKS))
        own_cpu += time.process_time() - cpu0
        t_chunk = time.perf_counter()
        verdicts, chunk_ms = [], []
        for kind, paths, _ in items:
            t0 = time.perf_counter()
            verdicts.append(client.verdict(kind, paths))
            chunk_ms.append((time.perf_counter() - t0) * 1e3)
        wall += time.perf_counter() - t_chunk
        items_ms.append(chunk_ms)
        for (kind, _, expected), got in zip(items, verdicts):
            ck.check(got == expected, f"{kind}: {got} (expected {expected})")
            rule = "reject" if expected == "reject" else "accept:<constructed mask>"
            entry = by_kind.setdefault(kind, {"expected": rule, "seed_mismatches": []})
            if got != expected:
                # compared by class: a wrongly accepted item's mask is incidental
                cls = got.split(":")[0] if got.startswith("accept:") else got
                if cls not in entry["seed_mismatches"]:
                    entry["seed_mismatches"].append(cls)
                if cls not in known.get(kind, {}).get("seed_mismatches", []):
                    correct = False
    observed = {"block": list(BLOCK), "nonfinite": list(NONFINITE),
                "kinds": dict(sorted(by_kind.items()))}
    if ctx.reference is not None:
        correct = correct and ctx.reference["block"] == observed["block"]
    return Outcome(setup_s=setup_s, wall_s=wall, items_ms=items_ms,
                   attempted=ck.attempted, failed=ck.failed, correct=correct,
                   observed=observed, notes=ck.notes, own_cpu_s=own_cpu)


WORKLOADS = {"banks-n3": banks_n3, "tables-n2": tables_n2, "classify-n2": classify_n2}

