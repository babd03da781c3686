import numpy as np
import pytest

from conftest import random_derivative, random_gammas, random_torsion
from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor


def free_state(m, tbank, seed, with_gamma=True):
    st = cft.TorsionState.make(
        m, t=random_torsion(tbank, ("st", seed)),
        D=random_derivative(tbank, ("sd", seed)),
        gammas=random_gammas(m, ("sg", seed)) if with_gamma else None)
    return st


# --- pi projections -----------------------------------------------------------

def test_pi_operators_on_qk_ray(model):
    m = model
    ray = m.pi2 + 2 * m.pi1
    assert top.frob(cft.pi1_operator(m, ray)) < 1e-10 * top.frob(ray)
    # operator identity 4 pi_1es = 3 - sum A3 A4
    R = cs.random_curvature(m, 41).tensor
    manual = 3 * R - sum(top.pair_act(A, 3, 4, R) for A in m.triple)
    assert np.allclose(cft.pi1es_operator(m, R), manual / 4.0)
    # pi_1s is a projection onto omega content of the last slot pair
    T = np.einsum("xy,zu->xyzu", random_gammas(m, 1)[0], m.omegas[1])
    once = cft.pi1s_operator(m, T)
    assert top.frob(cft.pi1s_operator(m, once) - once) < 1e-12 * top.frob(once)
    assert top.frob(once - T) < 1e-12 * top.frob(T)


def test_pi_state_matches_operator_on_qk_point(model):
    m = model
    c = 0.8
    state = cft.TorsionState.qk_point(m, c)
    Rqk = (c / 8.0) * (m.pi2 + 2 * m.pi1)
    assert top.frob(cft.pi1es_state(m, state) - cft.pi1es_operator(m, Rqk)) < 1e-10
    assert top.frob(cft.pi1s_state(m, state) - cft.pi1s_operator(m, Rqk)) < 1e-10
    assert top.frob(cft.pi1_state(m, state)) < 1e-10
    # gamma-only state: pi_1es = (1/2) sum gamma_A (x) omega_A
    gammas = random_gammas(m, 2)
    st = cft.TorsionState.make(m, gammas=gammas)
    expect = 0.5 * sum(np.einsum("xy,zu->xyzu", g, w)
                       for g, w in zip(gammas, m.omegas))
    assert top.frob(cft.pi1es_state(m, st) - expect) < 1e-12 * top.frob(expect)
    assert top.frob(cft.pi1_state(m, st)) < 1e-12 * top.frob(expect)


def test_pi1_gamma_independent(model, tbank):
    m = model
    st1 = free_state(m, tbank, 1)
    st2 = cft.TorsionState.make(m, t=st1.t, D=st1.D,
                                gammas=random_gammas(m, ("other", 1)))
    assert top.frob(cft.pi1_state(m, st1) - cft.pi1_state(m, st2)) < 1e-12
    assert top.frob(cft.pi1_state(m, st1)
                    - (cft.pi1es_state(m, st1) - cft.pi1s_state(m, st1))) < 1e-12


def test_state_validation(model, tbank):
    st = free_state(model, tbank, 2)
    st.validate(model)
    bad = cft.TorsionState.make(model,
                                t=cs.substream("junk", 0).standard_normal((model.dim,) * 3))
    with pytest.raises(ValueError):
        bad.validate(model)


# --- Ricci formulas -------------------------------------------------------------

def test_ricci_formula_consistency(model, tbank):
    m = model
    for seed in range(3):
        st = free_state(m, tbank, ("rc", seed))
        ric = cft.ric_from(m, st)
        ricq = cft.ricq_from(m, st)
        rmq = cft.ric_minus_ricq(m, st)
        scale = max(top.frob(ric), 1.0)
        # the direct 3 Ric formula equals Ric^q plus the difference formula
        assert top.frob(3 * ric - (ricq + rmq)) < 1e-9 * scale
        # Ric^q is additive over the local pieces
        assert top.frob(ricq - sum(cft.ric_star_from(m, st, a) for a in range(3))) \
            < 1e-12 * scale
        # contraction of the pi_1es expression reproduces (3 Ric - Ric^q) / 4
        es = cft.pi1es_state(m, st)
        assert top.frob(np.einsum("xiyi->xy", es) - rmq / 4.0) < 1e-9 * scale


def test_qk_point_ricci_constants(model):
    m, n = model, model.n
    c = 1.7
    st = cft.TorsionState.qk_point(m, c)
    for a in range(3):
        assert np.allclose(cft.ric_star_from(m, st, a), n * c * m.g, atol=1e-10)
    assert np.allclose(cft.ricq_from(m, st), 3 * n * c * m.g, atol=1e-10)
    assert np.allclose(cft.ric_from(m, st), (n + 2) * c * m.g, atol=1e-10)
    # gamma_A = c omega_A, xi = 0: Ric*_A = n c g comes from -n c w_A(X, A Y)
    assert cft.pi_r_ric(m, st) == pytest.approx((n + 2) * c, rel=1e-12)
    assert cft.pi_r_ricq(m, st) == pytest.approx(3 * n * c, rel=1e-12)
    ca, cb = cft.ricci_component_formulas(m, st)["R_ab"]
    assert ca == pytest.approx(c / 12.0, rel=1e-10)
    assert cb == pytest.approx(c / 24.0, rel=1e-10)


def test_eq27_trace_sanity(model):
    m = model
    gammas = random_gammas(m, 5)
    total = sum(np.einsum("xa,ay->xy", g, A) for g, A in zip(gammas, m.triple))
    pr = (np.trace(total) / m.dim) * m.g
    expect = -(1.0 / (2 * m.n)) * sum(
        0.5 * np.vdot(g, A) for g, A in zip(gammas, m.triple)) * m.g
    assert top.frob(pr - expect) < 1e-12 * max(top.frob(expect), 1e-12)


def test_l20e_formula_combinations(model, tbank):
    """6 Ric_a = 3 pi(Ric) + 3 pi(Ric^q) and 6 Ric_b = 3 pi(Ric) - 3 pi(Ric^q)
    hold between the implemented formulas."""
    m = model
    out = cft.ricci_component_formulas(m, free_state(m, tbank, 7))
    a, b = out["ric_L20E_a"], out["ric_L20E_b"]
    scale = max(top.frob(a), top.frob(b), 1.0)
    assert top.frob(a + b - out["pi_L20E_ric"]) < 1e-10 * scale
    assert top.frob(a - b - out["pi_L20E_ricq"]) < 1e-10 * scale


def test_component_formulas_land_in_their_spaces(model, tbank):
    m = model
    out = cft.ricci_component_formulas(m, free_state(m, tbank, 8))
    l20e_q = out["pi_L20E_ricq"]
    assert top.frob(cs.proj_sym_L20E(m, l20e_q) - l20e_q) < 1e-10 * top.frob(l20e_q)
    s2q = out["pi_S2ES2H_ricq"]
    assert top.frob(cs.proj_sym_S2ES2H(m, s2q) - s2q) < 1e-10 * top.frob(s2q)
    skew = out["pi_L20ES2H_ricq"]
    assert top.frob(cs.proj_form_L20ES2H(m, skew) - skew) < 1e-10 * top.frob(skew)


def test_equivariance_of_state_maps(model, tbank):
    """The free-state maps commute with a structure-preserving rotation, so
    their couplings obey the isotypic selection rules."""
    m = model
    rng = cs.substream("equiv-cft", m.n)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    lq = np.array([[q[0], -q[1], -q[2], -q[3]],
                   [q[1], q[0], -q[3], q[2]],
                   [q[2], q[3], q[0], -q[1]],
                   [q[3], -q[2], q[1], q[0]]])
    g = np.kron(np.eye(m.n), lq)
    t = random_torsion(tbank, 9)
    gt = np.einsum("ax,by,cz,abc->xyz", g, g, g, t, optimize=True)
    lhs_all = cft.ricci_component_formulas(m, cft.TorsionState.make(m, t=gt))
    rhs_all = cft.ricci_component_formulas(m, cft.TorsionState.make(m, t=t))
    for key in ("pi_L20E_ricq", "pi_S2ES2H_ricq", "pi_L20ES2H_ricq",
                "pi_S2ES2H_ric"):
        lhs = lhs_all[key]
        rhs = np.einsum("ax,by,ab->xy", g, g, rhs_all[key], optimize=True)
        assert top.frob(lhs - rhs) < 1e-9 * max(top.frob(rhs), 1e-6)


# --- scalars ---------------------------------------------------------------------

def test_scalar_trace_identities(model, tbank):
    m, n = model, model.n
    for seed in range(5):
        st = free_state(m, tbank, ("sc", seed))
        scal_f, scalq_f, _ = cft.scalars_from_torsion(m, tbank, st)
        assert scal_f == pytest.approx(4 * n * cft.pi_r_ric(m, st), rel=1e-8)
        assert scalq_f == pytest.approx(4 * n * cft.pi_r_ricq(m, st), rel=1e-8)


def test_scalq_pure_3h(model, tbank):
    # a pure H-half component has scal^q = -2 |xi|^2
    m = model
    name = "3H" if tbank.rank("3H") else "KH"
    t = tbank.random_component(name, 3)
    st = cft.TorsionState.make(m, t=t)
    _, scalq, ds = cft.scalars_from_torsion(m, tbank, st)
    assert scalq == pytest.approx(-2.0 * top.frob(t) ** 2, rel=1e-10)
    if name == "3H":
        assert ds == pytest.approx(0.0, abs=1e-12)
    zero = cft.TorsionState.make(m)
    assert cft.scalars_from_torsion(m, tbank, zero) == (0.0, 0.0, 0.0)


def test_dstar_rule(model, tbank):
    m = model
    st = cft.TorsionState.qk_point(m, 2.0)
    assert cft.d_star_theta(m, st) == 0.0
    # nabla~-only state: d* theta = -(nabla~_{e_i} theta)(e_i)
    D = random_derivative(tbank, 10)
    stD = cft.TorsionState.make(m, D=D)
    expect = -np.trace(tor.theta(m, D))
    assert cft.d_star_theta(m, stD) == pytest.approx(expect, rel=1e-12)


def test_reference_scalar_deviations(n):
    devs = cft.reference_deviations(n)
    assert set(devs["scal"]) == {"K3", "3H", "KH", "EH", "dstar"}
    assert set(devs["scal^q"]) == {"KH", "EH"}


# --- d^2 omega --------------------------------------------------------------------

def test_dd_omega_residual(model, tbank):
    m = model
    qk = cft.TorsionState.qk_point(m, 1.1)
    assert cft.dd_omega_residual(m, qk)["total"] < 1e-12
    zero = cft.TorsionState.make(m)
    assert cft.dd_omega_residual(m, zero)["total"] == 0.0
    st = free_state(m, tbank, 11)
    assert cft.dd_omega_residual(m, st)["total"] > 1.0


# --- the gamma rigidity lemma -------------------------------------------------------

def test_lemma_gammas_kernel(model):
    m = model
    dim, triples, gap = cft.lemma_gammas_kernel(m)
    assert dim == 1
    assert abs(gap - 48 * (2 * m.n - 3)) <= cs.EIG_TOL
    kern = triples[0]
    kern = kern / np.linalg.norm(kern)
    om = m.omegas / np.linalg.norm(m.omegas)
    assert abs(abs(float(np.vdot(kern, om))) - 1.0) < 1e-10
    # the kernel triple is c (w_I, w_J, w_K) with 2n c = <gamma_A, w_A> for each A
    c = top.p_form_inner(kern[0], m.omegas[0]) / (2 * m.n)
    for a in range(3):
        assert top.p_form_inner(kern[a], m.omegas[a]) == pytest.approx(2 * m.n * c)
        assert top.frob(kern[a] - c * m.omegas[a]) < 1e-10


# --- compactness obstruction ---------------------------------------------------------

def test_bhl_coefficients_negative(model, tbank):
    m, n = model, model.n
    co = cft.bhl_coefficients(n)
    for name in ("33", "E3", "3H", "KH", "EH"):
        assert co[name] < 0.0
    assert co["K3"] > 0.0        # excluded by the corollary's hypothesis
    # extraction agrees with direct evaluation on pure states
    for name in tor.TORSION_COMPONENTS:
        if tbank.rank(name) == 0:
            continue
        t = tbank.random_component(name, 5)
        st = cft.TorsionState.make(m, t=t)
        val = cft.bhl_integrand(m, tbank, st)
        ds = cft.d_star_theta(m, st)
        expect = co[name] * top.frob(t) ** 2 + co["dstar"] * ds
        assert val == pytest.approx(expect, rel=1e-10)


def test_ricci_component_formulas_dict(model, tbank):
    m = model
    st = free_state(m, tbank, 12)
    out = cft.ricci_component_formulas(m, st)
    assert set(out) == {
        "pi_R_ric", "pi_R_ricq", "ric_L20E_a", "ric_L20E_b", "pi_L20E_ric",
        "pi_L20E_ricq", "pi_S2ES2H_ric", "pi_S2ES2H_ricq", "ric_S2ES2H_a",
        "ric_S2ES2H_b", "pi_L20ES2H_ricq", "ric_QK", "pi_R_ric_QKperp", "R_ab"}
    # QK-point example: Ric_QK = (n+2) c and the QKperp scalar vanishes
    c = 0.6
    outc = cft.ricci_component_formulas(m, cft.TorsionState.qk_point(m, c))
    assert outc["ric_QK"] == pytest.approx((m.n + 2) * c, rel=1e-10)
    assert abs(outc["pi_R_ric_QKperp"]) < 1e-12
