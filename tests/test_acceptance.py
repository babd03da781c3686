"""Acceptance suite: runs every gate criterion at its stated tolerance for
n = 2 and n = 3 and prints one pass/fail line per criterion.  Criterion 13,
the formulas against the curvature of realized states, runs at n = 3 only
under ``-m slow``.

Three verdicts deviate knowingly from reference values that the anchored
implementation disproves; each such deviation is stated in the emitted
line and in the deviation records of the tables module:

* criterion 4: the Ric*_A constant on the Lambda^2_0 E S^4H embedding is
  +4(n+1) A_(2) b_A (the reference proof constant has the opposite sign);
* criterion 9: the component-norm coefficients of the scalar formulas are
  the free-state ones induced by the Ricci formulas.  The reference scalar
  expansions fail the trace oracle on free states, and they are no on-shell
  variant either: on the realized states of criterion 13 they miss scal and
  scal^q of R, while the free-state coefficients give them;
* criterion 10: reference table cells that are Schur-forbidden or that
  contradict the reference Ricci table are corrected in the embedded
  expectations (tables.REFERENCE_DEVIATIONS), and cells whose generic
  coupling degenerates at the evaluated n are reported as such
  (tables.LOW_N_VANISHING).
"""

import numpy as np
import pytest

from conftest import (get_bank, get_torsion_bank, random_derivative, random_gammas,
                      random_torsion)
from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tables as tbl
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor
from realized import r_tilde, r_tilde_block, realized_states
from reference_values import reference_deviations


def report(n, num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE[n={n}] criterion {num:>2} {label}: {verdict}{suffix}")
    assert ok, f"criterion {num} {label} failed: {detail}"


def test_criterion_1_dimension_audit(n, bank):
    rep = dec.dimension_audit(bank)
    expected_R = {2: 336, 3: 1716}[n]
    expected_QK = {2: 36, 3: 127}[n]
    ok = (rep.dim_R == expected_R and rep.dim_R_formula == expected_R
          and rep.dim_QK == expected_QK and not rep.failures)
    report(n, 1, "dimension audit", ok,
           f"dim R = {rep.dim_R}, dim QK = {rep.dim_QK}")


def test_criterion_2_spectra(n, bank):
    m = bank.model
    blocks = {"L6": 6.0, "L2": 2.0, "Lm6": -6.0}
    worst = 0.0
    total = 0
    for name, lam in blocks.items():
        rows = bank.basis(name)
        total += rows.shape[0]
        for row in rows[:: max(1, rows.shape[0] // 8)]:
            T = cs.from_pair_coords(bank.scheme, row)
            worst = max(worst, top.frob(cs.L_map(m, T) - lam * T) / top.frob(T))
    ok = total == dec.dim_R(n) and worst < 1e-9
    rep = dec.dimension_audit(bank)
    worst_sigma = max(rep.eigen_residuals.values())
    ok = ok and worst_sigma < 1e-9
    report(n, 2, "L and L_sigma spectra", ok,
           f"blocks fill R ({total}), worst eigen residual "
           f"{max(worst, worst_sigma):.2e}")


def test_criterion_3_projector_algebra(n, bank):
    rep = dec.dimension_audit(bank)
    zero = {2: {"L40E", "L20E_b", "V211S2H"}, 3: {"L40E"}}[n]
    observed_zero = {nm for nm in dec.FINE_COMPONENTS if bank.rank(nm) == 0}
    ok = (rep.algebra_residuals["orthonormality"] < 1e-9
          and rep.algebra_residuals["completeness"] < 1e-9
          and observed_zero == zero)
    report(n, 3, "fine bank algebra and zero components", ok,
           f"zero components {sorted(observed_zero)}")


def test_criterion_4_ricci_constants(n, model):
    m, g = model, model.g
    checks = []
    apb, amb = m.pi2 + 6 * m.pi1, m.pi2 - 6 * m.pi1
    checks.append(top.frob(cs.ricci(apb) - 12 * (2 * n + 1) * g))
    checks.append(top.frob(cs.ricci(amb) + 24 * (n - 1) * g))
    b = cs.bilinear_component_basis(m, "L20E")[0].reshape(m.dim, m.dim)
    checks.append(top.frob(cs.ricci(dec.vartheta(m, b, g) + 12 * top.psi(b, g))
                           - 48 * (n + 1) * b))
    checks.append(top.frob(cs.ricci(dec.vartheta(m, b, g) - 12 * top.psi(b, g))
                           + 48 * (n - 2) * b))
    c = cs.bilinear_component_basis(m, "S2ES2H")[0].reshape(m.dim, m.dim)
    checks.append(top.frob(cs.ricci(dec.vartheta(m, c, g) + 4 * top.psi(c, g))
                           - 16 * (n + 1) * c))
    checks.append(top.frob(cs.ricci(dec.vartheta(m, c, g) - 12 * top.psi(c, g))
                           + 48 * (n - 1) * c))
    f = cs.bilinear_component_basis(m, "L20ES2H")[0].reshape(m.dim, m.dim)
    checks.append(top.frob(cs.ricci_q(m, dec.l20es2h_embed(m, f)) + 16 * n * f))
    forms = [x.reshape(m.dim, m.dim)
             for x in cs.bilinear_component_basis(m, "L20ES2H")]
    bt = dec._constrained_triples(m, forms, "L20ES4H triples")[0]
    R = dec.triple_embed(m, bt)
    sign_note = "Ric*_A law verified with +4(n+1) (reference proof sign deviates)"
    for A, b_A in zip(m.triple, bt):
        checks.append(top.frob(cs.ricci_star(R, A)
                               - 4 * (n + 1) * top.slot_act(A, 2, b_A)))
    ok = max(checks) < 1e-9 * 50
    report(n, 4, "Ricci constants", ok,
           f"max residual {max(checks):.2e}; {sign_note}")


def test_criterion_5_inner_products(n, model):
    m = model
    p11 = top.curvature_inner(m.pi1, m.pi1)
    p22 = top.curvature_inner(m.pi2, m.pi2)
    p12 = top.curvature_inner(m.pi1, m.pi2)
    v1, v2 = m.pi2 + 2 * m.pi1, (n + 2) * m.pi2 - 18 * n * m.pi1
    orth = abs(top.curvature_inner(v1, v2)) / (top.frob(v1) * top.frob(v2))
    ok = (p22 == pytest.approx(288 * n * (4 * n - 1), rel=1e-12)
          and p22 == pytest.approx(36 * p11, rel=1e-12)
          and p12 == pytest.approx(144 * n, rel=1e-12)
          and orth < 1e-10)
    report(n, 5, "canonical inner products", ok,
           f"<pi2,pi2>={p22:.0f}, <pi1,pi2>={p12:.0f}, QK-ray orthogonality "
           f"{orth:.1e}")


def test_criterion_6_qk_einstein(n, bank):
    m = bank.model
    rng = cs.substream("acc-qk", n)
    worst = 0.0
    for k in range(50):
        coef = bank.basis("S4E").T @ rng.standard_normal(bank.rank("S4E"))
        R = cs.from_pair_coords(bank.scheme, coef) \
            + rng.standard_normal() * (m.pi2 + 2 * m.pi1)
        c, resid = dec.qk_einstein_verify(bank, R)
        worst = max(worst, max(resid.values()))
    ok = worst < 1e-8
    report(n, 6, "quaternionic-Kaehler Einstein laws (50 samples)", ok,
           f"worst residual {worst:.2e}")


def test_criterion_7_gamma_lemma(n, model):
    dim, triples, gap = cft.lemma_gammas_kernel(model)
    kern = triples[0] / np.linalg.norm(triples[0])
    om = model.omegas / np.linalg.norm(model.omegas)
    align = abs(float(np.vdot(kern, om)))
    ok = dim == 1 and abs(gap - 48 * (2 * n - 3)) <= cs.EIG_TOL and abs(align - 1.0) < 1e-10
    report(n, 7, "gamma rigidity kernel", ok,
           f"dim {dim}, smallest nonzero eigenvalue {gap:.12g}, alignment {align:.12f}")


def test_criterion_8_torsion(n, tbank):
    m = tbank.model
    stacked = np.vstack([tbank.comps[k] for k in tor.TORSION_COMPONENTS
                         if tbank.rank(k)])
    gram = np.max(np.abs(stacked @ stacked.T - np.eye(stacked.shape[0])))
    # orthonormal rows, each fixed by the membership projector, as many as
    # T* (x) Lambda^2_0 E S^2 H has dimensions: they fill it
    images = tor.project_to_torsion_space(m, stacked.reshape((-1,) + (m.dim,) * 3))
    complete = np.max(np.abs(images.reshape(stacked.shape) - stacked))
    dims_ok = {k: tbank.rank(k) for k in tor.TORSION_COMPONENTS} \
        == tor.expected_torsion_dims(n)
    rank_ok = stacked.shape[0] == 4 * n * 3 * (n * (2 * n - 1) - 1)
    if n == 2:
        rank_ok = (rank_ok and stacked.shape[0] == 120
                   and tbank.rank("33") == 0 and tbank.rank("3H") == 0)
    t = random_torsion(tbank, "acc")
    lambdas = cs.substream("acc-lam", n).standard_normal((3, m.dim))
    nws = tor.nabla_omega_from_torsion(m, t, lambdas)
    t2, lam2, resid = tor.torsion_from_nabla_omega(m, *nws)
    roundtrip = max(top.frob(t2 - t) / top.frob(t),
                    float(np.max(np.abs(lam2 - lambdas))), resid)
    preds = 0.0
    for name in tor.TORSION_COMPONENTS:
        if tbank.rank(name) == 0:
            continue
        tc = tbank.random_component(name, "acc")
        scale = top.frob(tc)
        if name in ("33", "K3", "E3"):
            preds = max(preds, tor.residual_s3h_conditions(m, tc) / scale)
        else:
            preds = max(preds, tor.residual_h_conditions(m, tc) / scale)
        if name == "33":
            preds = max(preds, tor.residual_skew(tc) / scale)
        if name in ("K3", "3H"):
            preds = max(preds, tor.residual_cyclic(tc) / scale)
        if name == "E3":
            preds = max(preds, top.frob(tor.xi_E3_from_trace(m, tc) - tc) / scale)
        if name == "EH":
            preds = max(preds, top.frob(tor.xi_EH_from_trace(m, tc) - tc) / scale)
        if name == "KH":
            _, r = tor.psi_k_solve(m, tc)
            preds = max(preds, r, tor.residual_trace_free(tc) / scale)
    ok = (gram < 1e-9 and complete < 1e-9 and dims_ok and rank_ok
          and roundtrip < 1e-10 and preds < 1e-8)
    report(n, 8, "torsion projectors and round trip", ok,
           f"algebra {max(gram, complete):.1e}, roundtrip {roundtrip:.1e}, "
           f"predicates {preds:.1e}")


def test_criterion_9_scalar_identity_oracle(n, model, tbank):
    m = model
    worst = 0.0
    for seed in range(100):
        st = cft.TorsionState.make(
            m, t=random_torsion(tbank, ("acc9", seed)),
            D=random_derivative(tbank, ("acc9d", seed)),
            gammas=random_gammas(m, ("acc9g", seed)))
        scal_f, scalq_f, _ = cft.scalars_from_torsion(m, tbank, st)
        formulas = cft.ricci_component_formulas(m, st)
        scal_tr = 4 * n * formulas["pi_R_ric"]      # trace of the pi_R(Ric) display
        scalq_tr = 4 * n * formulas["pi_R_ricq"]    # trace of the pi_R(Ric^q) display
        worst = max(worst,
                    abs(scal_f - scal_tr) / max(abs(scal_tr), 1.0),
                    abs(scalq_f - scalq_tr) / max(abs(scalq_tr), 1.0))
    ok = worst < 1e-8
    for label, devs in reference_deviations(n).items():
        for name, (free, ref) in devs.items():
            print(f"    reference deviation: {label} coefficient {name} = "
                  f"{free:.6g} (reference expansion {ref:.6g})")
    report(n, 9, "scalar trace oracle (100 free states)", ok,
           f"worst relative residual {worst:.2e}; free-state coefficients "
           "(reference scalar expansions miss on realized states too, criterion 13)")


@pytest.fixture(scope="module")
def tables_report(n, bank, tbank):
    """The one table run that criteria 10 and 12 read."""
    return tbl.run_tables(bank, tbank, seeds=8)


def test_criterion_10_tables(n, tables_report):
    rep = tables_report
    for (source, table, target), why in tbl.REFERENCE_DEVIATIONS.items():
        print(f"    reference deviation: {source} T{table} {target}: {why}")
    dirs_ok = all(d["aligned"] for d in rep.direction_checks)
    ok = not rep.mismatches and not rep.ambiguous and dirs_ok
    for c in rep.remark_cells:
        print(f"    remark-consistent cell: {c.source} T{c.table} {c.target} "
              f"(tick={c.tick}, reference={c.expected})")
    for c in rep.cells:
        if c.status == "low_n_zero":
            print(f"    low-n degenerate cell: {c.source} {c.target} "
                  f"(coupling vanishes at n={n}, generic tick verified at higher n)")
    report(n, 10, "contribution tables", ok,
           f"cells={len(rep.cells)}, mismatches={len(rep.mismatches)}, "
           f"ambiguous={len(rep.ambiguous)}, remark={len(rep.remark_cells)}, "
           f"directions {sum(d['aligned'] for d in rep.direction_checks)}"
           f"/{len(rep.direction_checks)}")


def test_criterion_11_lemma41_and_skew_qricci(n, model):
    m = model
    worst = 0.0
    for seed in range(100):
        R = cs.random_curvature(m, ("acc11", seed)).tensor
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)

        def tw(b):
            return sum(np.einsum("xa,yb,ab->xy", A, A, b) for A in m.triple)

        scale = max(top.frob(R), 1.0)
        worst = max(worst, top.frob(cs.ricci(cs.L_map(m, R))
                                    - 3 * ric - tw(ric)) / scale)
        worst = max(worst, top.frob(cs.ricci_q(m, cs.L_map(m, R))
                                    - 3 * ricq - tw(ricq)) / scale)
        worst = max(worst, top.frob(cs.ricci(cs.L_sigma_map(m, R))
                                    - 3 * ricq - 3 * ricq.T + 3 * ric
                                    + tw(ric)) / scale)
        rqa = top.asym2(ricq)
        worst = max(worst, top.frob(tw(rqa) + rqa) / scale)
        worst = max(worst, max(abs(top.p_form_inner(rqa, w))
                               for w in m.omegas) / scale)
    ok = worst < 1e-9
    report(n, 11, "Lemma on Ric(L R) and skew q-Ricci membership", ok,
           f"worst residual {worst:.2e}")


def test_criterion_12_corollaries_and_bhl(n, tables_report):
    entries = tbl.corollary_vanishing(tables_report)
    worst = max(e["max_witness"] for e in entries)
    co = cft.bhl_coefficients(n)
    negatives = all(co[name] < 0 for name in ("33", "E3", "3H", "KH", "EH"))
    ok = worst < tbl.TICK_OFF and negatives
    report(n, 12, "vanishing corollaries and obstruction negativity", ok,
           f"max forbidden witness {worst:.2e}, r-coefficients "
           + ", ".join(f"{k}={co[k]:.5g}" for k in ("33", "E3", "3H", "KH", "EH")))


def _reference_scalars(m, tbank, state, scal, scalq):
    """scal and scal^q by the reference coefficients: the free-state values
    plus each reference deviation times its feature (a squared component
    norm or d* theta; the gamma coefficients agree)."""
    features = dict(zip(tbank.names, tbank.squared_norms(state.t.ravel())))
    features["dstar"] = cft.d_star_theta(m, state)
    devs = reference_deviations(m.n)
    return tuple(value + sum((ref - free) * features[name] for name, (free, ref) in devs[label].items())
                 for label, value in (("scal", scal), ("scal^q", scalq)))


def _from_R(ctx, R):
    """What every formula of a state should give on a realized state, read
    from its curvature tensor R, under the formula's key."""
    m, bank = ctx.m, ctx.bank
    ric, ricq = cs.ricci(R), cs.ricci_q(m, R)
    a, b = m.pi2 + 6 * m.pi1, m.pi2 - 6 * m.pi1       # R_a and R_b are their rays
    out = {"pi_R_ric": np.trace(ric) / m.dim, "pi_R_ricq": np.trace(ricq) / m.dim,
           "R_ab": np.array([top.curvature_inner(a, R), top.curvature_inner(b, R)]) / ctx.ab_norm2,
           "pi_L20E_ric": cs.proj_sym_L20E(m, ric), "pi_L20E_ricq": cs.proj_sym_L20E(m, ricq),
           "pi_S2ES2H_ric": cs.proj_sym_S2ES2H(m, ric),
           "pi_S2ES2H_ricq": cs.proj_sym_S2ES2H(m, ricq),
           "pi_L20ES2H_ricq": cs.proj_form_L20ES2H(m, ricq),
           "pi1": cs.pi1_operator(m, R), "pi1es": cs.pi1es_operator(m, R),
           "pi1s": cs.pi1s_operator(m, R), "scal": np.trace(ric), "scal^q": np.trace(ricq)}
    for name in ("L20E_a", "L20E_b", "S2ES2H_a", "S2ES2H_b"):
        out["ric_" + name] = cs.ricci(bank.project(R, name))
    for A, name in zip(m.triple, "IJK"):
        out["ric*_" + name] = cs.ricci_star(R, A)
    v = bank.coords(R)
    for name in tbl.TABLE3_COLUMNS:                   # R's coordinates on the column
        out["T3_" + name] = np.concatenate([np.zeros(0)] + [v[c] @ B.T for c, B in bank.blocks(name)])
    return out


def _from_state(ctx, tbank, state):
    """The same values from the formulas of the package."""
    m = ctx.m
    scal, scalq, _ = cft.scalars_from_torsion(m, tbank, state)
    out = cft.ricci_component_formulas(m, state) | {
        "pi1": cft.pi1_state(m, state), "pi1es": cft.pi1es_state(m, state),
        "pi1s": cft.pi1s_state(m, state), "scal": scal, "scal^q": scalq}
    out |= {"ric*_" + name: cft.ric_star_from(m, state, a) for a, name in enumerate("IJK")}
    out |= {"T3_" + name: col for name, col in ctx.pi1_columns(state).items()}
    return out


@pytest.mark.parametrize("n", [2, pytest.param(3, marks=pytest.mark.slow)])
def test_criterion_13_realized_states(n):
    """Every formula the tables read equals the matching projection of R on
    three realized states: the states of an actual geometry, solved for by
    the first Bianchi identity (tests/realized.py).  Formulas of a module
    of rank 0 (ric_L20E_b at n = 2) and empty Table-3 columns are skipped."""
    bank, tbank = get_bank(n), get_torsion_bank(n)
    m = bank.model
    ctx = tbl.TableContext.build(bank, tbank)
    zero = {"ric_" + name for name in ("L20E_a", "L20E_b", "S2ES2H_a", "S2ES2H_b")
            if bank.rank(name) == 0} | {"T3_" + name for name in tbl.TABLE3_COLUMNS
                                        if bank.rank(name) == 0}
    worst_fit, worst_formula = 0.0, {}
    for k, real in enumerate(realized_states(m, tbank)):
        worst_fit = max(worst_fit, real.solve_residual, *cs.curvature_residuals(real.R).values())
        expect, got = _from_R(ctx, real.R), _from_state(ctx, tbank, real.state)
        assert set(got) == set(expect) >= set(tbl._FORMULA_OF_COLUMN.values())
        for key in sorted(set(expect) - zero):
            miss = top.frob(np.asarray(got[key] - expect[key])) / top.frob(np.asarray(expect[key]))
            worst_formula[key] = max(worst_formula.get(key, 0.0), miss)
        ref = _reference_scalars(m, tbank, real.state, got["scal"], got["scal^q"])
        print(f"    realized state {k}: scal of R {expect['scal']:.4g}, free-state "
              f"coefficients {got['scal']:.4g}, reference {ref[0]:.4g}; scal^q of R "
              f"{expect['scal^q']:.4g}, free-state {got['scal^q']:.4g}, reference {ref[1]:.4g}")
    key, worst = max(worst_formula.items(), key=lambda item: item[1])
    ok = worst_fit <= 1e-13 and worst <= 1e-12
    report(n, 13, "formulas against R on 3 realized states", ok,
           f"{len(worst_formula)} values, worst relative miss {worst:.1e} ({key}); "
           f"worst solve or curvature residual {worst_fit:.1e}")


def test_criterion_14_determinacy(n, bank):
    """Given (xi, nabla~xi), R is fixed up to the kernel of the R~ block of
    the realization system: 2-forms with values in sp(n) + sp(1) that are
    curvature tensors.  That kernel is S^4 E plus the QK ray, so R - R_QK is
    a function of (xi, nabla~xi).  Membership is measured by projection."""
    m = bank.model
    block = r_tilde_block(m)
    w, V = np.linalg.eigh(block.T @ block)
    k = int(np.sum(w <= cs.EIG_TOL))
    kernel = r_tilde(m, V[:, :k].T.reshape(k, bank.scheme.m, -1))
    v = cs.to_pair_coords(bank.scheme, kernel)
    off = np.linalg.norm(v - bank.project_coords(v, "QK"), axis=-1) / np.linalg.norm(v, axis=-1)
    ok = k == dec.expected_fine_dims(n)["S4E"] + 1 and w[k] >= 1e6 * cs.EIG_TOL and off.max() <= 1e-12
    report(n, 14, "determinacy: R - R_QK from (xi, nabla~xi)", ok,
           f"kernel dimension {k}, next eigenvalue {w[k]:.3g}, "
           f"worst part outside S4E + QK ray {off.max():.1e}")
