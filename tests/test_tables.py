import dataclasses

import numpy as np
import pytest

from conftest import get_bank, get_torsion_bank, random_derivative, random_gammas, random_torsion
from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import tables as tbl
from qhcurv import torsion as tor


@pytest.fixture(scope="module")
def report2():
    return tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=3)


def test_no_hard_mismatches(report2):
    assert report2.mismatches == []
    assert report2.ambiguous == []
    assert report2.ok


def test_skips_and_degeneracies(report2):
    assert set(report2.skipped_columns) == {"L20E_b", "L40E", "V211S2H"}
    low = {(c.source, c.target) for c in report2.cells if c.status == "low_n_zero"}
    assert low == tbl.LOW_N_VANISHING[2]


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
    derivative rows, four pure states and six sums, plus the gamma row."""
    calls = []
    inner = tbl.evaluate_columns

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tbl, "evaluate_columns", counting)
    tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=seeds)
    assert len(calls) == 1 + 14 * seeds


def test_corollary_vanishing_n2():
    ctx = tbl.TableContext.build(get_bank(2), get_torsion_bank(2))
    for entry in tbl.corollary_vanishing(ctx):
        assert entry["max_witness"] < tbl.TICK_OFF, entry


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
    tbl.evaluate_columns(tbl.TableContext.build(bank2, tbank2), state)
    assert calls == []
    np.linalg.pinv(np.eye(2))
    assert calls == ["pinv", "svd"]
