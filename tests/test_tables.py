import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (assert_table2_follows_table1, get_bank, get_torsion_bank, random_derivative,
                      random_gammas, random_torsion, skip_unless_digest_blas)
from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tables as tbl
from qhcurv import torsion as tor

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


def test_skips_and_degeneracies(report2):
    # the skipped cells are those of the rank-0 columns and of the rows of
    # a rank-0 torsion component: at n = 2, the two Lambda^3_0 E ones
    tbank = get_torsion_bank(2)
    zero_rows = {tbl.row_label(key) for key in tbl.row_keys()
                 if any(tbank.rank(c) == 0 for c in key[1:])}
    assert {c for c in tbl.COMPS if tbank.rank(c) == 0} == {"33", "3H"}
    skipped = {(c.source, c.target) for c in report2.cells if c.status == "skipped"}
    assert skipped == {(c.source, c.target) for c in report2.cells if c.source in zero_rows
                       or c.target in {"L20E_b", "L40E", "V211S2H"}}
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


@pytest.mark.parametrize("seeds", [1, 2, 3])
def test_run_tables_evaluates_each_state_once(monkeypatch, seeds):
    """At n = 2 four torsion components are nonzero: per seed, four
    derivative rows, four pure states and six sums, plus the gamma row.
    The 1 + 4 seeds states linear in the state (gamma and nabla~xi) and
    the 10 seeds xi (x) xi states are evaluated apart, in one stack each,
    the first without xi and the second with xi alone; and each
    component's pure states are drawn once, for its diagonal row and its
    sums alike."""
    batches, draws = [], []
    inner, draw = tbl.evaluate_columns, tor.TorsionBank.random_component

    def counting(ctx, state):
        pieces = tuple(name for name in ("t", "D", "gammas") if getattr(state, name) is not None)
        batches.append((pieces, cft._lead(state)))
        return inner(ctx, state)

    def counting_draw(self, name, seed, derivative=False):
        if not derivative:
            draws.append((name, seed))
        return draw(self, name, seed, derivative)

    monkeypatch.setattr(tbl, "evaluate_columns", counting)
    monkeypatch.setattr(tor.TorsionBank, "random_component", counting_draw)
    tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=seeds)
    assert batches == [(("D", "gammas"), (1 + 4 * seeds,)), (("t",), (10 * seeds,))]
    assert len(draws) == len(set(draws)) == 4 * seeds


def test_each_stack_pays_only_for_the_pieces_it_carries(monkeypatch):
    """run_tables(seeds=8) at n = 2 evaluates its 33 gamma and nabla~xi
    states and its 80 xi (x) xi states in stacks of at most _STACK.  The
    xi work (the conjugate table) runs once per xi (x) xi stack and never
    on the others, and every nabla~xi contraction (brackets, gamma
    elimination, pi_1) runs once per linear stack and never on a xi (x) xi
    stack."""
    log = []
    inner = tbl.evaluate_columns

    def stack(ctx, state):
        log.append(["xi" if state.t is not None else "linear"])
        return inner(ctx, state)

    def noting(name, fn):
        def wrapped(m, *args):
            log[-1].append(name)
            return fn(m, *args)
        return wrapped

    def nabla_pi1(m, state, xy):
        if state.D is not None:
            log[-1].append("pi1 nabla")
        return pi1_block(m, state, xy)

    pi1_block = cft._pi1es_block
    monkeypatch.setattr(tbl, "evaluate_columns", stack)
    monkeypatch.setattr(cft, "_conjugate_table", noting("table", cft._conjugate_table))
    monkeypatch.setattr(cft, "_nabla_brackets", noting("brackets nabla", cft._nabla_brackets))
    monkeypatch.setattr(cft, "_gamma_nabla_terms", noting("gamma nabla", cft._gamma_nabla_terms))
    monkeypatch.setattr(cft, "_pi1es_block", nabla_pi1)
    tbl.run_tables(get_bank(2), get_torsion_bank(2), seeds=8)
    linear = ["linear", "brackets nabla", "gamma nabla", "pi1 nabla"]
    assert log == [linear] * -(-33 // tbl._STACK) + [["xi", "table"]] * -(-80 // tbl._STACK)


def _row_by_row(ctx, keys, seeds):
    """The columns of each row from one evaluate_columns batch of its own
    seeded states, drawn afresh for every row: a polarized row evaluates
    its two pure batches again."""
    m, tbank = ctx.m, ctx.tbank

    def batch(make, count=seeds):
        return tbl.evaluate_columns(ctx, cft.TorsionState.stack([make(s) for s in range(count)]))

    def pure(c):
        return batch(lambda s: cft.TorsionState.make(m, t=tbank.random_component(c, s)))

    out = {}
    for key in keys:
        if key[0] == "gamma":
            out[key] = batch(lambda s: cft.TorsionState.qk_point(m, 1.0), 1)
        elif key[0] == "D":
            out[key] = batch(lambda s: cft.TorsionState.make(
                m, D=tbank.random_component(key[1], s, derivative=True)))
        elif key[1] == key[2]:
            out[key] = pure(key[1])
        else:
            mixed = batch(lambda s: cft.TorsionState.make(
                m, t=tbank.random_component(key[1], s) + tbank.random_component(key[2], s)))
            p1, p2 = pure(key[1]), pure(key[2])
            out[key] = {k: mixed[k] - p1[k] - p2[k] for k in mixed}
    return out


@pytest.mark.parametrize("n, seeds", [(2, 8), (3, 2)])
def test_stacked_rows_match_row_by_row_oracle(monkeypatch, n, seeds):
    """The stacked evaluation gives every cell the status and tick, and
    every ticked witness and direction cosine to 1e-12 relative, that a
    row-by-row evaluation gives."""
    bank, tbank = get_bank(n), get_torsion_bank(n)
    stacked = tbl.run_tables(bank, tbank, seeds=seeds)
    monkeypatch.setattr(tbl, "_row_columns", _row_by_row)
    oracle = tbl.run_tables(bank, tbank, seeds=seeds)
    assert len(stacked.cells) == len(oracle.cells)
    for cell, want in zip(stacked.cells, oracle.cells):
        assert (cell.source, cell.table, cell.target) == (want.source, want.table, want.target)
        assert (cell.status, cell.tick, cell.seeds) == (want.status, want.tick, want.seeds)
        if want.tick:
            assert cell.witness == pytest.approx(want.witness, rel=1e-12), cell
    assert len(stacked.direction_checks) == len(oracle.direction_checks) > 0
    for d, want in zip(stacked.direction_checks, oracle.direction_checks):
        assert (d["source"], d["seed"], d["aligned"]) == (want["source"], want["seed"],
                                                          want["aligned"])
        for cos in ("cos_direction", "cos_orthogonal"):
            assert d[cos] == pytest.approx(want[cos], rel=1e-12, abs=1e-12), (d, cos)


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
    img = np.array([cs.to_pair_coords(ps, cs.pi1_operator(m, cs.from_pair_coords(ps, row)))
                    for row in bank2.basis("QKperp")])
    img_pinv = np.linalg.pinv(img.T, rcond=1e-10)
    live = [c for c in tbl.COMPS if tbank2.rank(c)]
    for seed in range(2):
        ts = {c: tbank2.random_component(c, seed) for c in live}
        states = [cft.TorsionState.make(m, D=tbank2.random_component(c, seed, derivative=True))
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


def test_pi1_of_a_state_lies_in_the_image_of_p1(tbank):
    """pi_1 of free states with xi, nabla~xi and gamma all nonzero is fixed
    by P1, the matrix of pi_1 on pair coordinates (pi_1 = C -> C P1, as it
    acts on the second 2-form slot only), to 1e-13 relative: its pair
    matrix V has V P1^T = V, so the Table-3 columns read V as it is.  Row q
    of P1 is probed by ``cs.pi1_operator`` on the unit pair (0, q); P1 is
    symmetric and gives pi_1 of a whole tensor as C -> C P1."""
    m, ps = tbank.model, cs.pair_scheme(tbank.model.dim)
    units = np.eye(ps.m, ps.m * ps.m)
    P1 = cs.to_pair_coords(ps, cs.pi1_operator(m, cs.from_pair_coords(ps, units)))[:, :ps.m]
    assert np.max(np.abs(P1 - P1.T)) < 1e-15
    R = cs.random_curvature(m, 53).tensor
    C = cs.to_pair_coords(ps, R).reshape(ps.m, ps.m)
    want = cs.to_pair_coords(ps, cs.pi1_operator(m, R)).reshape(ps.m, ps.m)
    assert np.max(np.abs(C @ P1 - want)) < 1e-12 * np.max(np.abs(want))
    for seed in range(3):
        state = cft.TorsionState.make(m, t=random_torsion(tbank, ("image", seed)),
                                      D=random_derivative(tbank, ("image", seed)),
                                      gammas=random_gammas(m, ("image", seed)))
        V = cs.to_pair_coords(ps, cft.pi1_state(m, state)).reshape(ps.m, ps.m)
        assert np.linalg.norm(V @ P1.T - V) <= 1e-13 * np.linalg.norm(V)


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
    6.6, 5.0 and 4.2 MB (the context's Schur probes are seven full d^4
    tensors); with those copies, 67.4, 67.6 and 80.7 MB."""
    tbank = get_torsion_bank(3)
    bank, build = _traced_peak_mb(lambda: dec.build_sp_projectors(model3))
    audit, check = _traced_peak_mb(lambda: dec.dimension_audit(bank))
    _, context = _traced_peak_mb(lambda: tbl.TableContext.build(bank, tbank))
    assert audit.failures == []
    assert build < 45.0 and check < 30.0 and context < 10.0, (build, check, context)


@pytest.mark.parametrize("n, bound", [(2, 10.5), (3, 50.0)])
def test_run_tables_holds_one_stack_of_states(n, bound):
    """Peak traced memory of run_tables(seeds=8): the states are made and
    evaluated one stack of at most 40 at a time, the gamma and nabla~xi
    states apart from the xi (x) xi states.  Measured: 5.1 MB at n = 2
    (113 states) and 24.8 MB at n = 3 (217 states); with every stack of 32
    carrying all three pieces, 8.3-9.0 and 42.3 MB, and making every state
    before the first stack, 12.6 MB and about 81 MB."""
    bank, tbank = get_bank(n), get_torsion_bank(n)
    _, peak = _traced_peak_mb(lambda: tbl.run_tables(bank, tbank, seeds=8))
    assert peak < bound, peak


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


def test_absent_pieces_match_explicit_zeros(bank, tbank):
    """A state that leaves pieces out gives the columns and the Ricci
    formulas of the same state with those pieces as zero arrays, to 1e-14
    relative: single states with no piece, one piece or two, and the two
    kinds of stack run_tables makes (nabla~xi and gamma; xi alone)."""
    ctx = tbl.TableContext.build(bank, tbank)
    m, d = ctx.m, ctx.m.dim
    zeros = {"t": np.zeros((d,) * 3), "D": np.zeros((d,) * 4), "gammas": np.zeros((3, d, d))}
    t, D, gammas = (random_torsion(tbank, "absent"), random_derivative(tbank, "absent"),
                    random_gammas(m, "absent"))
    given = [[{}], [{"t": t}], [{"D": D}], [{"gammas": gammas}], [{"D": D, "gammas": gammas}],
             [{"gammas": gammas}, {"D": D}, {"D": 2.0 * D}], [{"t": t}, {"t": -0.5 * t}]]
    for states in given:
        sparse = [cft.TorsionState.make(m, **pieces) for pieces in states]
        dense = [cft.TorsionState.make(m, **(zeros | pieces)) for pieces in states]
        if len(states) > 1:
            sparse, dense = [cft.TorsionState.stack(sparse)], [cft.TorsionState.stack(dense)]
        for evaluate in (lambda st: tbl.evaluate_columns(ctx, st),
                         lambda st: cft.ricci_component_formulas(m, st)):
            got, want = evaluate(sparse[0]), evaluate(dense[0])
            assert got.keys() == want.keys()
            scale = max(np.linalg.norm(v) for v in want.values())
            for key, value in want.items():
                assert np.shape(got[key]) == np.shape(value), (states, key)
                assert np.linalg.norm(got[key] - value) <= 1e-14 * scale, (states, key)


def test_run_tables_matches_committed_reference(bank2, tbank2):
    """run_tables(seeds=8) at n = 2 reproduces the committed benchmark
    reference: every status and tick, the ticked witnesses to 1e-9
    relative, and every direction check.  The witnesses are drawn in the
    torsion bases, which are bitwise stable only for one BLAS build."""
    skip_unless_digest_blas()
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
