import pytest

from conftest import get_bank, get_torsion_bank
from qhcurv import curvature_from_torsion as cft
from qhcurv import tables as tbl


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
