import dataclasses

import numpy as np
import pytest

from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import model_space as ms
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor


def l20e_mats(m):
    return [b.reshape(m.dim, m.dim) for b in cs.bilinear_component_basis(m, "L20E")]


def s2es2h_mats(m):
    return [b.reshape(m.dim, m.dim) for b in cs.bilinear_component_basis(m, "S2ES2H")]


def test_audit(bank):
    rep = dec.dimension_audit(bank)
    assert rep.ok, rep.failures
    assert rep.ranks == rep.expected
    assert rep.dim_R == dec.dim_R(bank.model.n)
    assert rep.dim_QK == dec.dim_QK(bank.model.n)
    assert set(rep.zero_components) == set(dec.ZERO_AT_N.get(bank.model.n, ()))
    assert max(rep.eigen_residuals.values()) < 1e-9


def test_constructor_ricci_constants(model):
    m, n, g = model, model.n, model.g
    b = l20e_mats(m)[0]
    Ra = dec.vartheta(m, b, g) + 12 * dec.psi(b, g)
    Rb = dec.vartheta(m, b, g) - 12 * dec.psi(b, g)
    assert top.frob(cs.ricci(Ra) - 48 * (n + 1) * b) < 1e-9
    assert top.frob(cs.ricci(Rb) + 48 * (n - 2) * b) < 1e-9
    c = s2es2h_mats(m)[0]
    Sa = dec.vartheta(m, c, g) + 4 * dec.psi(c, g)
    Sb = dec.vartheta(m, c, g) - 12 * dec.psi(c, g)
    assert top.frob(cs.ricci(Sa) - 16 * (n + 1) * c) < 1e-9
    assert top.frob(cs.ricci(Sb) + 48 * (n - 1) * c) < 1e-9
    f = cs.bilinear_component_basis(m, "L20ES2H")[0].reshape(m.dim, m.dim)
    E = dec.l20es2h_embed(m, f)
    assert top.frob(cs.ricci_q(m, E) + 16 * n * f) < 1e-9
    # the R_a / R_b rays
    assert top.frob(dec.vartheta(m, g, g) + 12 * dec.psi(g, g)
                    - 4 * (m.pi2 + 6 * m.pi1)) < 1e-9


def test_l_sigma_proof_identities(model):
    m = model
    rng = cs.substream("lsig-proof", m.n)
    # b1, c1 in S^2E viewed inside Lambda^2 V*
    raw = rng.standard_normal((2, m.dim, m.dim))
    b1 = cs.proj_form_S2E(m, raw[0] - raw[0].swapaxes(0, 1))
    c1 = cs.proj_form_S2E(m, raw[1] - raw[1].swapaxes(0, 1))
    mixed = dec.phi(b1, c1)
    var = dec.varphi(m, b1, c1)
    plus = 4 * mixed + var
    minus = 4 * mixed - var
    assert top.frob(cs.L_sigma_map(m, plus) - 12 * plus) < 1e-9 * top.frob(plus)
    assert top.frob(cs.L_sigma_map(m, minus)) < 1e-9 * top.frob(minus)
    # b2, c2 of Lambda^2 E type inside S^2 V* (A-invariant symmetric)
    b2, c2 = l20e_mats(m)[0], l20e_mats(m)[1]
    tplus = dec.vartheta(m, b2, c2) + 12 * dec.psi(b2, c2)
    tminus = dec.vartheta(m, b2, c2) - 12 * dec.psi(b2, c2)
    assert top.frob(cs.L_sigma_map(m, tplus)) < 1e-9 * max(top.frob(tplus), 1.0)
    if top.frob(tminus) > 1e-9:
        assert top.frob(cs.L_sigma_map(m, tminus) + 12 * tminus) < 1e-9 * top.frob(tminus)
    # S2ES2H embeddings have L_sigma eigenvalues +4 / -4
    c = s2es2h_mats(m)[0]
    sa = dec.vartheta(m, c, m.g) + 4 * dec.psi(c, m.g)
    sb = dec.vartheta(m, c, m.g) - 12 * dec.psi(c, m.g)
    assert top.frob(cs.L_sigma_map(m, sa) - 4 * sa) < 1e-9 * top.frob(sa)
    assert top.frob(cs.L_sigma_map(m, sb) + 4 * sb) < 1e-9 * top.frob(sb)


def test_phi_Phi_Psi_land_in_R(model2):
    m = model2
    rng = cs.substream("maps", 0)
    raw = rng.standard_normal((2, m.dim, m.dim))
    b = raw[0] - raw[0].T
    c = raw[1] - raw[1].T
    for T in (dec.phi(b, c), dec.Phi_map(m, b, c), dec.varphi(m, b, c)):
        assert max(cs.curvature_residuals(T).values()) < 1e-10
    s = raw[0] + raw[0].T
    t = raw[1] + raw[1].T
    for T in (dec.psi(s, t), dec.vartheta(m, s, t), dec.Psi_map(m, s, t)):
        assert max(cs.curvature_residuals(T).values()) < 1e-10


def test_project_component_examples(bank):
    m = bank.model
    comp, norm = dec.project_component(bank, m.pi2 + 2 * m.pi1, "R_a")
    assert top.frob(comp - (2.0 / 3.0) * (m.pi2 + 6 * m.pi1)) < 1e-9 * norm
    # projection onto a rank-zero component vanishes
    if bank.fine["L40E"].rank == 0:
        comp, norm = dec.project_component(bank, m.pi2 + 2 * m.pi1, "L40E")
        assert norm < 1e-12
    # idempotence
    R = cs.random_curvature(m, 17).tensor
    once = bank.project(R, "V22")
    assert top.frob(bank.project(once, "V22") - once) < 1e-9 * max(top.frob(once), 1.0)


def test_parseval(bank):
    R = cs.random_curvature(bank.model, 23)
    norms = dec.component_norms(bank, R)
    total = top.curvature_inner(R.tensor, R.tensor)
    assert sum(v * v for v in norms.values()) == pytest.approx(total, rel=1e-8)


def test_qk_split(bank):
    m, n = bank.model, bank.model.n
    v1 = m.pi2 + 2 * m.pi1
    v2 = (n + 2) * m.pi2 - 18 * n * m.pi1
    assert abs(top.curvature_inner(v1, v2)) < 1e-10 * top.frob(v1) * top.frob(v2)
    assert bank.qk.shape[0] == dec.dim_QK(n)
    assert np.allclose(cs.ricci(v1), 8 * (n + 2) * m.g)
    assert np.allclose(cs.ricci_q(m, v1), 24 * n * m.g)


def test_ric_qk_scalars_vs_direct(bank):
    m = bank.model
    R = cs.random_curvature(m, 29)
    rqk, prq = dec.ric_qk_scalars(bank, R)
    direct = cs.ricci(bank.project(R.tensor, "QK"))
    assert top.frob(rqk - direct) < 1e-9 * max(top.frob(direct), 1.0)
    perp = bank.project(R.tensor, "QKperp")
    pr_direct = (np.trace(cs.ricci(perp)) / m.dim) * m.g
    assert top.frob(prq - pr_direct) < 1e-9 * max(top.frob(pr_direct), 1.0)


def test_qk_einstein(bank):
    m, n = bank.model, bank.model.n
    rng = cs.substream("einstein", n)
    coef = bank.fine["S4E"].rows.T @ rng.standard_normal(bank.fine["S4E"].rank)
    weyl = cs.from_pair_coords(bank.scheme, coef)
    R = weyl + 1.3 * (m.pi2 + 2 * m.pi1)
    c, resid = dec.qk_einstein_verify(bank, R)
    assert c == pytest.approx(1.3 * 8.0, rel=1e-10)
    assert max(resid.values()) < 1e-9
    # pure S4E element: c = 0 and Ricci-flat
    c, resid = dec.qk_einstein_verify(bank, weyl)
    assert abs(c) < 1e-10
    assert max(resid.values()) < 1e-9
    czero, _ = dec.qk_einstein_verify(bank, np.zeros((m.dim,) * 4))
    assert czero == 0.0
    with pytest.raises(ValueError):
        dec.qk_einstein_verify(bank, cs.random_curvature(m, 31).tensor)


def _group_elements(m, seed):
    """Sp(1) rotation (left quaternion unit), an Sp(n) exponential, and a
    block permutation, all as orthogonal matrices commuting with the
    structure in the appropriate sense."""
    rng = cs.substream("equivariance", m.n, seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    lq = np.array([[q[0], -q[1], -q[2], -q[3]],
                   [q[1], q[0], -q[3], q[2]],
                   [q[2], q[3], q[0], -q[1]],
                   [q[3], -q[2], q[1], q[0]]])
    g1 = np.kron(np.eye(m.n), lq)
    # sp(n) element: real matrices commuting with I, J, K: right quaternionic;
    # generate by projecting a random antisymmetric matrix onto the commutant
    raw = rng.standard_normal((m.dim, m.dim))
    raw = raw - raw.T
    comm = raw + sum(A.T @ raw @ A for A in m.triple)
    from scipy.linalg import expm
    g2 = expm(0.3 * comm / 4.0)
    perm = rng.permutation(m.n)
    g3 = np.zeros((m.dim, m.dim))
    for blk, target in enumerate(perm):
        g3[4 * target:4 * target + 4, 4 * blk:4 * blk + 4] = np.eye(4)
    return g1, g2, g3


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _audit_with_nan_row(m, bank):
    rows = bank.fine["V22"].rows.copy()
    rows[0, 0] = np.nan
    fine = {**bank.fine, "V22": dataclasses.replace(bank.fine["V22"], rows=rows)}
    return dec.dimension_audit(dataclasses.replace(bank, fine=fine)).ok


#: Whether each tolerance gate accepts NaN input (it must not).
_NAN_GATES = {
    "validate": lambda m, bank: _accepts(lambda: cft.TorsionState.make(
        m, t=np.full((m.dim,) * 3, np.nan)).validate(m)),
    "qk_einstein_verify": lambda m, bank: _accepts(
        lambda: dec.qk_einstein_verify(bank, np.full((m.dim,) * 4, np.nan))),
    "dimension_audit": _audit_with_nan_row,
    "torsion_from_nabla_omega": lambda m, bank: _accepts(
        lambda: tor.torsion_from_nabla_omega(m, *np.full((3,) + (m.dim,) * 3, np.nan))),
}


@pytest.mark.parametrize("gate", sorted(_NAN_GATES))
def test_tolerance_gates_fail_closed_on_nan(gate, model2, bank2):
    assert not _NAN_GATES[gate](model2, bank2)


def test_projector_equivariance(bank):
    m = bank.model
    R = cs.random_curvature(m, 37).tensor
    for g in _group_elements(m, 0):
        assert np.max(np.abs(g.T @ g - np.eye(m.dim))) < 1e-12
        gR = np.einsum("ax,by,cz,du,abcd->xyzu", g, g, g, g, R, optimize=True)
        for name in ("S4E", "V22", "L20ES2H", "V22S4H", "S4H", "QK"):
            lhs = bank.project(gR, name)
            rhs = np.einsum("ax,by,cz,du,abcd->xyzu", g, g, g, g,
                            bank.project(R, name), optimize=True)
            assert top.frob(lhs - rhs) < 1e-9 * max(top.frob(rhs), 1.0)


def test_block_ricci_relations(bank):
    """Ricci laws per block: U22: Ric = Ric^q with A Ric = Ric; Lambda^4 E:
    Ric = -Ric^q; L=2 blocks: Ric vs Ric^q_s laws; L=-6 block constants.
    The Ricci-kernel components are built as complements of constructor
    images, so their kernel property is checked here, not built in."""
    m, n = bank.model, bank.model.n
    rng = cs.substream("blocks", n)

    def sample(name):
        rows = bank.fine[name].rows
        coef = rng.standard_normal(rows.shape[0])
        return cs.from_pair_coords(bank.scheme, rows.T @ coef)

    for name in ("V22", "L20E_a", "R_a"):
        R = sample(name)
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)
        scale = max(top.frob(R), 1.0)
        assert top.frob(ric - ricq) < 1e-9 * scale
        for A in m.triple:
            assert top.frob(np.einsum("xa,yb,ab->xy", A, A, ric) - ric) \
                < 1e-9 * scale
    for name in ("R_b", "L20E_b"):
        if bank.fine[name].rank == 0:
            continue
        R = sample(name)
        assert top.frob(cs.ricci(R) + cs.ricci_q(m, R)) < 1e-9 * max(top.frob(R), 1.0)
    for name in ("V31S2H", "S2ES2H_a"):
        R = sample(name)
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)
        scale = max(top.frob(R), 1.0)
        assert top.frob(ric - ricq) < 1e-9 * scale
        assert top.frob(cs.proj_sym_S2ES2H(m, ric) - ric) < 1e-9 * scale
    for name in ("V211S2H", "S2ES2H_b", "L20ES2H"):
        if bank.fine[name].rank == 0:
            continue
        R = sample(name)
        ric = cs.ricci(R)
        ricq_s = top.sym2(cs.ricci_q(m, R))
        scale = max(top.frob(ric), top.frob(ricq_s), 1.0)
        assert top.frob(ric + 3 * ricq_s) < 1e-9 * scale
    for name in ("V22S4H", "L20ES4H", "S4H"):
        R = sample(name)
        assert top.frob(cs.ricci(R)) < 1e-9 * top.frob(R)
        assert top.frob(cs.ricci_q(m, R)) < 1e-9 * top.frob(R)
    for name in ("S4E", "V22", "L40E", "V31S2H", "V211S2H"):
        if bank.fine[name].rank == 0:
            continue
        R = sample(name)
        assert top.frob(cs.ricci(R)) < 1e-9 * top.frob(R)
    R = sample("V22S4H")
    for A in m.triple:
        assert top.frob(cs.ricci_star(R, A)) < 1e-9 * top.frob(R)


def test_les4h_ric_star_constants(model):
    """Ric* laws on the L=-6 constructor images.

    On the Lambda^2_0 E S^4H embedding, Ric*_A = +4(n+1) A_(2) b_A (the
    reference proof constant carries the opposite sign; the sign here is
    forced by the same machinery that reproduces every statement-level
    constant).  On the S^4H embedding with b_I = la_II w_I +
    la_JI w_J + la_KI w_K the measured law is
    Ric*_I = 4(2n+1)(la_II g - la_KI w_J + la_JI w_K); in both cases
    Ric^q = 0 as asserted."""
    m, n = model, model.n
    forms = [b.reshape(m.dim, m.dim)
             for b in cs.bilinear_component_basis(m, "L20ES2H")]
    triples = dec._constrained_triples(m, forms)
    bt = triples[0]
    R = dec.triple_embed(m, bt)
    for A, b_A in zip(m.triple, bt):
        expect = 4 * (n + 1) * top.slot_act(A, 2, b_A)
        assert top.frob(cs.ricci_star(R, A) - expect) < 1e-9 * max(top.frob(expect), 1.0)
    assert top.frob(cs.ricci_q(m, R)) < 1e-9 * top.frob(R)
    I, J, K = m.triple
    cases = [
        # (triple, lambda matrix entries (la_II, la_JI, la_KI))
        ([m.omegas[0], -m.omegas[1], np.zeros_like(I)], (1.0, 0.0, 0.0)),
        ([m.omegas[1], m.omegas[0], np.zeros_like(I)], (0.0, 1.0, 0.0)),
        ([m.omegas[2], np.zeros_like(I), m.omegas[0]], (0.0, 0.0, 1.0)),
    ]
    for bt, (lii, lji, lki) in cases:
        bt = [b.copy() for b in bt]
        resid = sum(top.slot_act(A, 2, b) for A, b in zip(m.triple, bt))
        assert top.frob(resid) < 1e-12      # constrained triple
        R = dec.triple_embed(m, bt)
        expect_I = 4 * (2 * n + 1) * (lii * m.g - lki * J + lji * K)
        assert top.frob(cs.ricci_star(R, I) - expect_I) < 1e-9 * top.frob(expect_I)
        assert top.frob(cs.ricci_q(m, R)) < 1e-9 * top.frob(R)


def test_eigenspaces_reject_stray_eigenvalues():
    H = np.diag([6.0, 2.0, -6.0 + 1e-12, 2.0])
    spaces = dec._eigenspaces(H, (6, 2, -6), "test")
    assert {k: v.shape[1] for k, v in spaces.items()} == {6.0: 1, 2.0: 2, -6.0: 1}
    with pytest.raises(ArithmeticError):
        dec._eigenspaces(np.diag([6.0, 2.0, -6.0 + 1e-6]), (6, 2, -6), "test")


def test_eigen_gate_names_the_grade(model2, monkeypatch):
    monkeypatch.setattr(dec, "EIG_TOL", -1.0)     # every eigenvalue fails
    with pytest.raises(ArithmeticError, match=r"^L on grade \(\d, \d\): eigenvalue"):
        dec.build_gl_projectors(model2)


def test_graded_eigenspaces_match_dense_oracle(model2):
    """The per-grade L-blocks and joint (L, L_sigma) eigenspaces equal those
    of the full 336 x 336 L_R and L_sigma_R, built by applying the slot-action
    maps to every closed-form row of R (no Kronecker code)."""
    m = model2
    ps = cs.pair_scheme(m.dim)
    R_rows = cs.curvature_basis(m, ps)

    def dense(op):
        images = np.array([cs.to_pair_coords(ps, op(m, cs.from_pair_coords(ps, row)))
                           for row in R_rows])
        H = R_rows @ images.T
        return 0.5 * (H + H.T)

    def projector(rows):
        return rows.T @ rows

    L_R, Lsigma_R = dense(cs.L_map), dense(cs.L_sigma_map)
    blocks, joint = dec.build_gl_projectors(m, ps)
    w, V = np.linalg.eigh(L_R)
    for name, (lam, mus) in dec.L_BLOCKS.items():
        Vl = V[:, np.abs(w - lam) < 1.0]
        assert np.max(np.abs(w[np.abs(w - lam) < 1.0] - lam)) < 1e-10
        assert np.max(np.abs(projector(Vl.T @ R_rows) - projector(blocks[name]))) < 1e-10
        ws, W = np.linalg.eigh(Vl.T @ Lsigma_R @ Vl)
        assert sum(np.sum(np.abs(ws - mu) < 1e-10) for mu in mus) == len(ws)
        for mu in mus:
            rows = (Vl @ W[:, np.abs(ws - mu) < 1.0]).T @ R_rows
            assert np.max(np.abs(projector(rows) - projector(joint[lam, mu]))) < 1e-10


def test_unknown_component_name(bank):
    with pytest.raises(KeyError):
        bank.basis("NOPE")


@pytest.mark.slow
def test_sp_bank_ranks_at_n4():
    """At n = 4 every per-grade eigenvalue passes the EIG_TOL gates (the
    build raises otherwise) and all fifteen ranks match the formulas."""
    bank = dec.build_sp_projectors(ms.build_model(4))
    assert {name: bank.fine[name].rank for name in dec.FINE_COMPONENTS} \
        == dec.expected_fine_dims(4)
