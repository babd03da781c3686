import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (assert_table2_follows_table1, get_bank, get_torsion_bank, random_derivative,
                      random_gammas, random_torsion)
from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tables as tbl
from qhcurv import torsion as tor
from test_torsion import _TORSION_DIGEST_N2

#: The committed tables-n2 reference of the benchmark (read only).
REFERENCE_N2 = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "tables-n2.json"


@pytest.fixture(scope="module")
def report2():
    return tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=3)


@pytest.fixture(scope="module")
def report3():
    return tbl.run_tables(get_bank(3), get_torsion_bank(3), seeds=3)


def test_no_hard_mismatches(report2):
    assert report2.mismatches == []
    assert report2.ambiguous == []
    assert report2.ok


def test_skips_and_degeneracies(report2):
    assert set(report2.skipped_columns) == {"L20E_b", "L40E", "V211S2H"}
    low = {(c.source, c.target) for c in report2.cells if c.status == "low_n_zero"}
    # the Table-2 cells follow from their Table-1 columns; L20E_b is skipped
    assert low == tbl.LOW_N_VANISHING[2] | {("xi_K3*xi_K3", "L20E_a"),
                                            ("xi_KH*xi_KH", "L20E_a")}


def test_remark_cells_confined_to_remark_columns(report2):
    for c in report2.remark_cells:
        assert c.target in tbl.REMARK_COLUMNS


def test_directions(report2):
    assert report2.direction_checks
    assert all(d["aligned"] for d in report2.direction_checks)
    reference = {d["source"] for d in report2.direction_checks
                 if d["annotation"] == "reference"}
    assert reference == {"sum<gamma_A,omega_A>", "Dxi_EH", "xi_E3*xi_E3"}


def test_gamma_row_ticks_only_scalar_columns(report2):
    cells = {(c.source, c.table, c.target): c for c in report2.cells}
    for col in tbl.TABLE1_COLUMNS:
        cell = cells[("sum<gamma_A,omega_A>", 1, col)]
        assert cell.tick == (col in ("q_R", "r_R"))


def test_diagonal_rows_have_full_scalar_ticks(report2):
    cells = {(c.source, c.table, c.target): c for c in report2.cells}
    for comp in ("K3", "E3", "KH", "EH"):       # nonzero components at n = 2
        src = f"xi_{comp}*xi_{comp}"
        assert cells[(src, 1, "q_R")].tick
        assert cells[(src, 1, "r_R")].tick


def test_row_labels_cover_all_sources():
    keys = tbl.row_keys()
    assert len(keys) == 1 + 6 + 6 + 15
    assert len({tbl.row_label(k) for k in keys}) == len(keys)


def test_evaluate_columns_computes_gamma_part_once(monkeypatch):
    ctx = tbl.TableContext.build(get_bank(2), get_torsion_bank(2))
    calls = []
    inner = cft.s2es2h_gamma_part

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cft, "s2es2h_gamma_part", counting)
    t = ctx.tbank.random_component("EH", 0)
    tbl.evaluate_columns(ctx, cft.TorsionState.make(ctx.m, t=t))
    assert len(calls) == 1


@pytest.mark.parametrize("seeds", [0, -1])
def test_run_tables_needs_a_seed(seeds):
    with pytest.raises(ValueError, match="at least one seed"):
        tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=seeds)


@pytest.mark.parametrize("seeds", [1, 2])
def test_run_tables_evaluates_each_state_once(monkeypatch, seeds):
    """At n = 2 four torsion components are nonzero: per seed, four
    derivative rows, four pure states and six sums, plus the gamma row.
    Each of those fifteen rows is one batch of its seeded states."""
    batches = []
    inner = tbl.evaluate_columns

    def counting(ctx, state):
        batches.append(state.t.shape[0])
        return inner(ctx, state)

    monkeypatch.setattr(tbl, "evaluate_columns", counting)
    tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=seeds)
    assert sum(batches) == 1 + 14 * seeds
    assert len(batches) == 15


@pytest.mark.parametrize("name", ["report2", "report3"])
def test_measured_table2_follows_measured_table1(request, name):
    assert_table2_follows_table1(request.getfixturevalue(name))


def test_corollary_vanishing_n2(report2):
    entries = tbl.corollary_vanishing(report2)
    assert [e["case"] for e in entries] == [case[0] for case in tbl.COROLLARY_CASES]
    for entry in entries:
        assert entry["max_witness"] < tbl.TICK_OFF, entry


def test_corollary_forbidden_sets_are_the_empty_table3_columns():
    """Each corollary forbids exactly the Table-3 columns that no row of
    its family ticks in the embedded expectations."""
    for label, comps, forbidden in tbl.COROLLARY_CASES:
        reached = set().union(*(tbl.EXPECTED_TABLE3[key] for key in tbl.row_keys()
                                if key[0] != "gamma" and set(key[1:]) <= set(comps)))
        assert set(forbidden) == set(tbl.TABLE3_COLUMNS) - reached, label


def _pinv_table3(ctx, img_pinv, state) -> dict:
    """Table-3 columns by least squares: the QKperp preimage under pi_1 of
    pi_1 of the state, from the pseudo-inverse of the whole QKperp image of
    pi_1, read on each component (the solve that Schur's lemma removes)."""
    coeffs = img_pinv @ cs.to_pair_coords(ctx.bank.scheme, cft.pi1_state(ctx.m, state))
    qkperp = ctx.bank.basis("QKperp")
    return {name: ctx.bank.basis(name) @ (qkperp.T @ coeffs)
            for name in tbl.TABLE3_COLUMNS}


def test_table3_matches_pseudo_inverse(bank2, tbank2):
    ctx = tbl.TableContext.build(bank2, tbank2)
    m, ps = ctx.m, bank2.scheme
    img = np.array([cs.to_pair_coords(ps, cft.pi1_operator(m, cs.from_pair_coords(ps, row)))
                    for row in bank2.basis("QKperp")])
    img_pinv = np.linalg.pinv(img.T, rcond=1e-10)
    live = [c for c in tbl.COMPS if tbank2.rank(c)]
    for seed in range(2):
        ts = {c: tbank2.random_component(c, seed) for c in live}
        states = [cft.TorsionState.make(m, D=tor.random_derivative_component(tbank2, c, seed))
                  for c in live]
        states += [cft.TorsionState.make(m, t=ts[c]) for c in live]
        states += [cft.TorsionState.make(m, t=ts[a] + ts[b])
                   for i, a in enumerate(live) for b in live[i + 1:]]
        for state in states:
            cols = tbl.evaluate_columns(ctx, state)
            want = _pinv_table3(ctx, img_pinv, state)
            scale = max(np.linalg.norm(v) for v in cols.values())
            for name in tbl.TABLE3_COLUMNS:
                assert cols[name].shape == want[name].shape
                assert np.linalg.norm(cols[name] - want[name]) <= 1e-12 * scale, name


def test_p1_matches_probes(bank, tbank):
    """The closed-form P1 of the table context equals the probe
    construction, row q the pi_1 image of the unit pair (0, q), and gives
    pi_1 of a whole tensor as C -> C P1."""
    m, ps = bank.model, bank.scheme
    probes = np.empty((ps.m, ps.m))
    for q in range(ps.m):
        unit = np.zeros(ps.m * ps.m)
        unit[q] = 1.0
        probes[q] = cs.to_pair_coords(ps, cft.pi1_operator(m, cs.from_pair_coords(ps, unit)))[:ps.m]
    P1 = tbl.TableContext.build(bank, tbank).P1
    assert np.max(np.abs(P1 - probes)) < 1e-15
    R = cs.random_curvature(m, 53).tensor
    C = cs.to_pair_coords(ps, R).reshape(ps.m, ps.m)
    want = cs.to_pair_coords(ps, cft.pi1_operator(m, R)).reshape(ps.m, ps.m)
    assert np.max(np.abs(C @ P1 - want)) < 1e-12 * np.max(np.abs(want))


def test_table_context_rejects_non_scalar_component(bank2, tbank2):
    """Rotating one V22 row towards L20E_a (where the pi_1 image scalar is
    1/4, not 1/2) makes the Schur probe fail."""
    rows = list(bank2.rows)
    even = rows[0] = rows[0].copy()
    v22, l20e_a = bank2.slices[0]["V22"].start, bank2.slices[0]["L20E_a"].start
    even[v22] = np.cos(0.1) * even[v22] + np.sin(0.1) * even[l20e_a]
    with pytest.raises(ArithmeticError, match="V22"):
        tbl.TableContext.build(dataclasses.replace(bank2, rows=tuple(rows)), tbank2)


def test_table3_needs_no_svd(monkeypatch, bank2, tbank2):
    m = tbank2.model
    state = cft.TorsionState.make(m, t=random_torsion(tbank2, 0),
                                  D=random_derivative(tbank2, 0), gammas=random_gammas(m, 0))
    calls = []
    # pinv reaches svd through its own module's global, not the numpy attribute
    linalg_globals = np.linalg.svd.__wrapped__.__globals__
    for name in ("svd", "pinv"):
        def counting(*args, _inner=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setitem(linalg_globals, name, counting)
    ctx = tbl.TableContext.build(bank2, tbank2)
    tbl.evaluate_columns(ctx, state)
    tbl.evaluate_columns(ctx, cft.TorsionState.stack([state, state]))
    assert calls == []
    np.linalg.pinv(np.eye(2))
    assert calls == ["pinv", "svd"]


def _traced_peak_mb(fn):
    """(result, peak MB of the memory traced while fn runs)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_n3_stages_hold_no_full_width_rows(model3):
    """Peak traced memory at n = 3 of the bank build, the audit and the
    table context.  None forms a dim R x m^2 copy of R's rows (59.9 MB) or
    a dense rank x m^2 image per Table-3 column (48.5 MB in all).  Measured:
    33.9, 15.9 and 1.5 MB; with those copies, 67.4, 67.6 and 80.7 MB."""
    tbank = get_torsion_bank(3)
    bank, build = _traced_peak_mb(lambda: dec.build_sp_projectors(model3))
    audit, check = _traced_peak_mb(lambda: dec.dimension_audit(bank))
    _, context = _traced_peak_mb(lambda: tbl.TableContext.build(bank, tbank))
    assert audit.ok
    assert build < 45.0 and check < 30.0 and context < 10.0, (build, check, context)


def _batches(m, tbank):
    """Three states with t, D and gamma all nonzero, and a batch mixing the
    zero state, each single piece and a full state."""
    def full(seed):
        return cft.TorsionState.make(m, t=random_torsion(tbank, ("b", seed)),
                                     D=random_derivative(tbank, ("b", seed)),
                                     gammas=random_gammas(m, ("b", seed)))
    mixed = [cft.TorsionState.make(m), cft.TorsionState.make(m, t=random_torsion(tbank, "m")),
             cft.TorsionState.make(m, D=random_derivative(tbank, "m")),
             cft.TorsionState.make(m, gammas=random_gammas(m, "m")), full(3)]
    return [[full(s) for s in range(3)], mixed]


def _assert_rows_match(batched: dict, singles: list) -> None:
    for i, single in enumerate(singles):
        scale = max(np.linalg.norm(v) for v in single.values())
        for key, value in single.items():
            got = batched[key][i]
            assert got.shape == np.shape(value), key
            assert np.linalg.norm(got - value) <= 1e-12 * scale, (i, key)


def test_batched_states_match_single_states(bank, tbank):
    """A batch of states gives, row by row, the columns and the Ricci
    formulas of each state evaluated on its own."""
    ctx = tbl.TableContext.build(bank, tbank)
    m = ctx.m
    for states in _batches(m, tbank):
        batch = cft.TorsionState.stack(states)
        _assert_rows_match(tbl.evaluate_columns(ctx, batch),
                           [tbl.evaluate_columns(ctx, st) for st in states])
        _assert_rows_match(cft.ricci_component_formulas(m, batch),
                           [cft.ricci_component_formulas(m, st) for st in states])


def test_run_tables_matches_committed_reference(bank2, tbank2):
    """run_tables(seeds=8) at n = 2 reproduces the committed benchmark
    reference: every status and tick, the ticked witnesses to 1e-9
    relative, and every direction check.  The witnesses are drawn in the
    torsion bases, which are bitwise stable only for one BLAS build."""
    version, _ = _TORSION_DIGEST_N2
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("version") != version:
        pytest.skip(f"reference recorded with BLAS {version}, not {blas.get('version')}")
    ref = json.loads(REFERENCE_N2.read_text())
    rep = tbl.run_tables(bank2, tbank2, seeds=8)
    assert len(rep.cells) == len(ref["cells"]) == 581
    for cell, (source, table, target, status, tick, witness) in zip(rep.cells, ref["cells"]):
        assert (cell.source, cell.table, cell.target) == (source, table, target)
        assert (cell.status, cell.tick) == (status, tick), (source, table, target)
        if tick:
            assert cell.witness == pytest.approx(witness, rel=1e-9), (source, table, target)
    assert len(rep.direction_checks) == len(ref["directions"]) == 41
    for d, (source, seed, aligned, cos) in zip(rep.direction_checks, ref["directions"]):
        assert (d["source"], d["seed"], d["aligned"]) == (source, seed, aligned)
        assert d["cos_direction"] == pytest.approx(cos, abs=1e-9)
