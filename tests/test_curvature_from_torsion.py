import dataclasses
import itertools

import numpy as np
import pytest

from conftest import random_derivative, random_gammas, random_torsion
from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor
from qhcurv.model_space import sp_generators
from realized import realization_matrix, realized_states
from reference_values import reference_deviations


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
    assert top.frob(cs.pi1_operator(m, ray)) < 1e-10 * top.frob(ray)
    # operator identity 4 pi_1es = 3 - sum A3 A4
    R = cs.random_curvature(m, 41).tensor
    manual = 3 * R - sum(top.substitute(A, (2, 3), R) for A in m.omegas)
    assert np.allclose(cs.pi1es_operator(m, R), manual / 4.0)
    # pi_1s is a projection onto omega content of the last slot pair
    T = np.einsum("xy,zu->xyzu", random_gammas(m, 1)[0], m.omegas[1])
    once = cs.pi1s_operator(m, T)
    assert top.frob(cs.pi1s_operator(m, once) - once) < 1e-12 * top.frob(once)
    assert top.frob(once - T) < 1e-12 * top.frob(T)


def test_pi_state_matches_operator_on_qk_point(model):
    m = model
    c = 0.8
    state = cft.TorsionState.qk_point(m, c)
    Rqk = (c / 8.0) * (m.pi2 + 2 * m.pi1)
    pi1, pi1s = cft.pi1_state(m, state), cft.pi1s_state(m, state)
    assert top.frob(pi1 + pi1s - cs.pi1es_operator(m, Rqk)) < 1e-10
    assert top.frob(pi1s - cs.pi1s_operator(m, Rqk)) < 1e-10
    assert top.frob(pi1) < 1e-10
    # gamma-only state: pi_1es = pi_1 + pi_1s = (1/2) sum gamma_A (x) omega_A
    gammas = random_gammas(m, 2)
    st = cft.TorsionState.make(m, gammas=gammas)
    expect = 0.5 * sum(np.einsum("xy,zu->xyzu", g, w)
                       for g, w in zip(gammas, m.omegas))
    pi1 = cft.pi1_state(m, st)
    assert top.frob(pi1 + cft.pi1s_state(m, st) - expect) < 1e-12 * top.frob(expect)
    assert top.frob(pi1) < 1e-12 * top.frob(expect)


def test_make_leaves_absent_pieces_out_and_checks_the_dimension(model2, model3):
    """An absent piece stays None; a piece of another model's dimension is
    refused, naming the piece."""
    st = cft.TorsionState.make(model2, gammas=model2.omegas)
    assert st.t is None and st.D is None and st.gammas.shape == (3, 8, 8)
    with pytest.raises(ValueError, match="D must end in axes"):
        cft.TorsionState.make(model2, D=np.zeros((12,) * 4))
    with pytest.raises(ValueError, match="t must end in axes"):
        cft.TorsionState.make(model3, t=np.zeros((8,) * 3))


def test_pi1_gamma_independent(model, tbank):
    m = model
    st1 = free_state(m, tbank, 1)
    st2 = cft.TorsionState.make(m, t=st1.t, D=st1.D,
                                gammas=random_gammas(m, ("other", 1)))
    assert top.frob(cft.pi1_state(m, st1) - cft.pi1_state(m, st2)) < 1e-12


def test_pi1es_state_matches_its_terms_written_out(model, tbank):
    """pi_1es of a state with xi, nabla~xi and gamma all nonzero, read as
    pi_1 + pi_1s, equals its five terms, each written out with einsum, to
    1e-13 relative: the gamma term, a~(nabla~xi), the b~ bracket
    xi_{xi_X Y} - xi_{xi_Y X}, and -(3/4) N - (1/4) sum_A A N A for the
    commutator N = [xi_X, xi_Y], every term read at [x, y, u, z]."""
    m = model
    st = free_state(m, tbank, ("terms", m.n))
    t, D = st.t, st.D
    e = np.einsum("xwy,wmz->xymz", t, t)
    N = np.einsum("xac,ycb->xyab", t, t)
    N = N - N.swapaxes(0, 1)
    terms = (D - D.swapaxes(0, 1) + e - e.swapaxes(0, 1)
             - 0.75 * N - 0.25 * sum(A @ N @ A for A in m.omegas)).swapaxes(2, 3)
    want = 0.5 * np.einsum("axy,azu->xyzu", st.gammas, m.omegas) + terms
    got = cft.pi1_state(m, st) + cft.pi1s_state(m, st)
    assert top.frob(got - want) <= 1e-13 * top.frob(want)


# --- Ricci formulas -------------------------------------------------------------

def test_qk_point_ricci_constants(model):
    m, n = model, model.n
    c = 1.7
    st = cft.TorsionState.qk_point(m, c)
    Rqk = (c / 8.0) * (m.pi2 + 2 * m.pi1)      # R of the QK point
    for A, a in zip(m.omegas, range(3)):
        assert np.allclose(cft.ric_star_from(m, st, a), n * c * m.g, atol=1e-10)
        assert np.allclose(cs.ricci_star(Rqk, A), n * c * m.g, atol=1e-10)
    assert np.allclose(cs.ricci_q(m, Rqk), 3 * n * c * m.g, atol=1e-10)
    assert np.allclose(cs.ricci(Rqk), (n + 2) * c * m.g, atol=1e-10)
    # gamma_A = c omega_A, xi = 0: Ric*_A = n c g comes from -n c w_A(X, A Y)
    formulas = cft.ricci_component_formulas(m, st)
    assert formulas["pi_R_ric"] == pytest.approx((n + 2) * c, rel=1e-12)
    assert formulas["pi_R_ricq"] == pytest.approx(3 * n * c, rel=1e-12)
    ca, cb = formulas["R_ab"]
    assert ca == pytest.approx(c / 12.0, rel=1e-10)
    assert cb == pytest.approx(c / 24.0, rel=1e-10)


def test_eq27_trace_sanity(model):
    m = model
    gammas = random_gammas(m, 5)
    total = sum(np.einsum("xa,ay->xy", g, A) for g, A in zip(gammas, m.omegas))
    pr = (np.trace(total) / m.dim) * m.g
    expect = -(1.0 / (2 * m.n)) * sum(
        0.5 * np.vdot(g, A) for g, A in zip(gammas, m.omegas)) * m.g
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


def test_every_bracket_is_read(model2, tbank2):
    """Each entry of the bracket table reaches some Ricci formula: with that
    one entry NaN, on a stack of states with xi, nabla~xi and gamma all
    nonzero, some output of ricci_component_formulas is non-finite."""
    m = model2
    st = cft.TorsionState.stack([free_state(m, tbank2, ("read", s)) for s in range(2)])
    inner = cft._brackets
    for key in inner(m, st):
        def spoiled(m, state, key=key):
            b = inner(m, state)
            entry = b[key]
            b[key] = ([np.full_like(v, np.nan) for v in entry] if isinstance(entry, list)
                      else np.full_like(entry, np.nan))
            return b

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cft, "_brackets", spoiled)
            out = cft.ricci_component_formulas(m, st)
        assert any(not np.all(np.isfinite(v)) for v in out.values()), key


#: The six orderings (a, b, c) of (I, J, K), as indices into (1, I, J, K),
#: with their signs.
_ORDERINGS = (((1, 2, 3), 1.0), ((2, 3, 1), 1.0), ((3, 1, 2), 1.0),
              ((2, 1, 3), -1.0), ((1, 3, 2), -1.0), ((3, 2, 1), -1.0))


def _gamma_part_by_orderings(m, t, D):
    """s2es2h_gamma_part of one state with its Haar average written out:
    half the signed sum of the four ordering terms over all six orderings."""
    X = cft._conjugate_table(m, t)
    units = cft._units(m)
    u = [np.einsum("imi->m", Xc) for Xc in X[0]]
    skew = D - D.swapaxes(0, 1)
    delta = {a: np.einsum("pibq,qi->pb", skew, units[a]) for a in (1, 2, 3)}
    XA = X[1][1] + X[2][2] + X[3][3]
    mid = sum(units[a] @ X[a][0] for a in (1, 2, 3)) - XA
    rhs = 2.0 * np.einsum("xmi,ymi->xy", t, XA) + np.einsum("imx,ymi->xy", t, mid)
    for a in (1, 2, 3):
        rhs += (np.einsum("xmy,m->xy", X[a][0], u[a])
                - np.einsum("iwy,wxi->xy", X[0][a], X[0][a]) + delta[a].T @ units[a])
    for (a, b, c), sign in _ORDERINGS:
        rhs += 0.5 * sign * (np.einsum("imx,ymi->xy", X[0][a], units[b] @ X[c][0] - X[c][b])
                             + np.einsum("xmy,m->xy", X[a][b], u[c])
                             + np.einsum("iwy,wxi->xy", X[0][c], units[a] @ X[0][b])
                             - units[a] @ delta[b].T @ units[c])
    return cs.proj_sym_S2ES2H(m, rhs) / (-2.0 * (m.n - 1.0))


def test_gamma_part_is_its_six_ordering_average(model, tbank):
    """The folded cyclic loop of s2es2h_gamma_part equals half the signed
    sum over all six orderings, state by state within a stack."""
    m = model
    st = cft.TorsionState.stack([free_state(m, tbank, ("haar", s)) for s in range(2)])
    got = cft.s2es2h_gamma_part(m, st, cft._brackets(m, st))
    for k in range(2):
        want = _gamma_part_by_orderings(m, st.t[k], st.D[k])
        assert top.frob(got[k] - want) <= 1e-13 * top.frob(want)


def test_pi1s_xi_form_is_skew_on_torsion_space(model, tbank):
    """s_A(X, Y) = <xi_X e_i, xi_Y A e_i> is skew for xi in the torsion
    space, on each single component and each sum of two, so pi_1s needs no
    alternation."""
    m = model
    live = [c for c in tor.TORSION_COMPONENTS if tbank.rank(c)]
    pure = {c: tbank.random_component(c, 4) for c in live}
    xis = list(pure.values()) + [pure[a] + pure[b] for a, b in itertools.combinations(live, 2)]
    for t in xis:
        s = np.einsum("xmi,ymq,aqi->axy", t, t, m.omegas)
        assert top.frob(s + s.swapaxes(-1, -2)) <= 1e-13 * top.frob(s)


def _generic_elements(m, rng):
    """Three elements of Sp(n)Sp(1): the Cayley transform h = (1 - X)^-1 (1 + X)
    of a random X in sp(n), a random unit quaternion q = a0 + a1 I + a2 J
    + a3 K, and their product."""
    gens = sp_generators(m.n)
    eye = np.eye(m.dim)
    X = np.tensordot(rng.standard_normal(len(gens)), gens, axes=1)
    h = np.linalg.solve(eye - X, eye + X)
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    q = a[0] * eye + np.tensordot(a[1:], m.omegas, axes=1)
    return h, q, h @ q


def _state_maps(m, state):
    pi1, pi1s = cft.pi1_state(m, state), cft.pi1s_state(m, state)
    return cft.ricci_component_formulas(m, state) | {
        "pi1": pi1, "pi1es": pi1 + pi1s, "pi1s": pi1s}


def test_equivariance_of_state_maps(model, tbank):
    """Every state map commutes with generic elements g of Sp(n)Sp(1), on a
    state with xi, nabla~xi and gamma all nonzero: each tensor moves by g on
    every slot, and gamma also by the SO(3) image of g (g^T A g =
    sum_B rho[B, A] B).  So the couplings obey the isotypic selection
    rules.  At n = 2 the module of ric_L20E_b is absent, and both of its
    sides are roundoff."""
    m = model
    st = free_state(m, tbank, 9)
    scale = top.frob(st.t) ** 2 + top.frob(st.D) + top.frob(st.gammas)
    maps = _state_maps(m, st)
    for g in _generic_elements(m, cs.substream("equiv-cft", m.n)):
        rho = np.einsum("bxy,axy->ba", m.omegas, top.substitute(g, (-2, -1), m.omegas)) / m.dim
        moved = cft.TorsionState.make(
            m, t=top.substitute(g, (0, 1, 2), st.t), D=top.substitute(g, (0, 1, 2, 3), st.D),
            gammas=np.tensordot(rho, top.substitute(g, (-2, -1), st.gammas), axes=1))
        for key, value in _state_maps(m, moved).items():
            expect = maps[key]
            if np.ndim(expect) >= 2:
                expect = top.substitute(g, tuple(range(expect.ndim)), expect)
            if key == "ric_L20E_b" and m.n == 2:
                assert max(top.frob(value), top.frob(expect)) <= 1e-12 * scale
            else:
                assert top.frob(value - expect) <= 1e-12 * top.frob(expect), key


# --- scalars ---------------------------------------------------------------------

def test_scalar_trace_identities(model, tbank):
    m, n = model, model.n
    for seed in range(5):
        st = free_state(m, tbank, ("sc", seed))
        scal_f, scalq_f, _ = cft.scalars_from_torsion(m, tbank, st)
        formulas = cft.ricci_component_formulas(m, st)
        assert scal_f == pytest.approx(4 * n * formulas["pi_R_ric"], rel=1e-8)
        assert scalq_f == pytest.approx(4 * n * formulas["pi_R_ricq"], rel=1e-8)


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
    devs = reference_deviations(n)
    assert set(devs["scal"]) == {"K3", "3H", "KH", "EH", "dstar"}
    assert set(devs["scal^q"]) == {"KH", "EH"}


# --- realized states ----------------------------------------------------------------

def test_realization_system_has_full_row_rank(model2, tbank2):
    """The Bianchi rows x < y < z of the realization system (tests/realized.py)
    are independent: at n = 2, 448 rows in 1324 unknowns (960 of nabla~xi,
    364 of R~), with the eigenvalues of A A^T at 1 and above.  So every xi
    is realized, and the normal-equation solve needs no rank cut."""
    A = realization_matrix(model2, tbank2)
    assert A.shape == (448, 1324)
    assert np.linalg.eigvalsh(A @ A.T)[0] > 0.5


def test_realized_states_do_not_depend_on_the_torsion_basis(model2, tbank2):
    """Rotating the rows of the torsion bank by a random orthogonal matrix
    leaves every realized state, and its R, unchanged to 1e-13 relative:
    the draws are ambient tensors, not coordinates on the rows."""
    T = tbank2.rows[0]
    O, _ = np.linalg.qr(cs.substream("rotate-torsion-rows", 0).standard_normal((T.shape[0],) * 2))
    rotated = dataclasses.replace(tbank2, rows=(O @ T,))
    for real, turned in zip(realized_states(model2, tbank2), realized_states(model2, rotated)):
        for x, y in ((real.state.t, turned.state.t), (real.state.D, turned.state.D),
                     (real.state.gammas, turned.state.gammas), (real.R, turned.R)):
            assert top.frob(x - y) <= 1e-13 * top.frob(x)


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
        "ric_S2ES2H_b", "pi_L20ES2H_ricq", "R_ab"}
    # QK-point example: Ric_QK = (n+2) c and the QKperp scalar vanishes
    c = 0.6
    outc = cft.ricci_component_formulas(m, cft.TorsionState.qk_point(m, c))
    ric_qk, perp = dec.ricci_qk_split(m.n, outc["pi_R_ric"], outc["pi_R_ricq"])
    assert ric_qk == pytest.approx((m.n + 2) * c, rel=1e-10)
    assert abs(perp) < 1e-12
