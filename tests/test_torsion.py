import numpy as np
import pytest

from conftest import random_torsion
from qhcurv import curvature_space as cs
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor


def test_component_dimensions(tbank):
    n = tbank.model.n
    dims = {k: tbank.rank(k) for k in tor.TORSION_COMPONENTS}
    assert dims == tor.expected_torsion_dims(n)
    assert tbank.ambient.shape[0] == sum(dims.values())
    if n == 2:
        assert dims["33"] == 0 and dims["3H"] == 0
        assert tbank.ambient.shape[0] == 120


def test_projector_algebra(tbank):
    stacked = np.vstack([tbank.comps[k] for k in tor.TORSION_COMPONENTS
                         if tbank.rank(k)])
    gram = stacked @ stacked.T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9
    overlap = stacked @ tbank.ambient.T
    assert np.max(np.abs(overlap.T @ overlap - np.eye(tbank.ambient.shape[0]))) < 1e-9


def test_membership_projector(tbank):
    m = tbank.model
    t = random_torsion(tbank, 0)
    # every slice is a 2-form in Lambda^2_0 E S^2 H
    assert top.frob(t + t.swapaxes(1, 2)) < 1e-12 * top.frob(t)
    for x in range(m.dim):
        b = t[x]
        summed = sum(np.einsum("ya,zb,ab->yz", A, A, b) for A in m.triple)
        assert top.frob(summed + b) < 1e-9 * max(top.frob(b), 1e-6)
        for w in m.omegas:
            assert abs(top.p_form_inner(b, w)) < 1e-9 * max(top.frob(b), 1e-6)
    # idempotence
    assert top.frob(tor.project_to_torsion_space(m, t) - t) < 1e-12 * top.frob(t)


def test_characterizations_on_images(tbank):
    m = tbank.model
    for name in tor.TORSION_COMPONENTS:
        if tbank.rank(name) == 0:
            continue
        t = tbank.random_component(name, 0)
        scale = top.frob(t)
        if name in ("33", "K3", "E3"):
            assert tor.residual_s3h_conditions(m, t) < 1e-9 * scale
        else:
            assert tor.residual_h_conditions(m, t) < 1e-9 * scale
        if name == "33":
            assert tor.residual_skew(t) < 1e-9 * scale
        if name in ("K3", "3H"):
            assert tor.residual_cyclic(t) < 1e-9 * scale
        if name == "E3":
            assert top.frob(tor.xi_E3_from_trace(m, t) - t) < 1e-9 * scale
        if name == "EH":
            assert top.frob(tor.xi_EH_from_trace(m, t) - t) < 1e-9 * scale
        if name == "KH":
            psi, resid = tor.psi_k_solve(m, t)
            assert resid < 1e-9
            assert top.frob(psi - top.alt(psi)) < 1e-9 * max(top.frob(psi), 1e-9)
            assert tor.residual_trace_free(t) < 1e-9 * scale


def test_trace_formula_reconstructions_kill_other_components(tbank):
    m = tbank.model
    for name in tor.TORSION_COMPONENTS:
        if tbank.rank(name) == 0 or name == "E3":
            continue
        t = tbank.random_component(name, 1)
        assert top.frob(tor.xi_E3_from_trace(m, t)) < 1e-9 * top.frob(t)
    for name in tor.TORSION_COMPONENTS:
        if tbank.rank(name) == 0 or name == "EH":
            continue
        t = tbank.random_component(name, 1)
        assert top.frob(tor.xi_EH_from_trace(m, t)) < 1e-9 * top.frob(t)


def test_theta_identities(tbank):
    m = tbank.model
    t = random_torsion(tbank, 3)
    th = tor.theta(m, t)
    assert np.linalg.norm(3 * th - sum(tor.theta_A(m, t, A) for A in m.triple)) \
        < 1e-10 * max(np.linalg.norm(th), 1e-12)
    # theta of a tensor with no E parts vanishes
    no_e = t - tbank.project(t, "E3") - tbank.project(t, "EH")
    assert np.linalg.norm(tor.theta(m, no_e)) < 1e-10 * top.frob(no_e)
    assert np.linalg.norm(tor.theta(m, np.zeros_like(t))) == 0.0


def test_skew_three_form_lands_in_33(tbank):
    """A totally skew tensor inside the torsion space is pure xi_33.

    Alternating projections between the 3-forms and the torsion space
    converge onto their intersection."""
    m = tbank.model
    if tbank.rank("33") == 0:
        pytest.skip("33 component vanishes at this n")
    skew = random_torsion(tbank, 4)
    for _ in range(200):
        skew = tor.project_to_torsion_space(m, top.alt(skew))
    assert top.frob(skew) > 1e-6
    norms = tbank.component_norms(skew)
    total = np.linalg.norm(skew.ravel())
    assert norms["33"] == pytest.approx(total, rel=1e-8)
    assert tor.residual_skew(skew) < 1e-8 * total


def test_nabla_omega_roundtrip(tbank):
    m = tbank.model
    t = random_torsion(tbank, 5)
    lambdas = cs.substream("lambdas", m.n).standard_normal((3, m.dim))
    nws = tor.nabla_omega_from_torsion(m, t, lambdas)
    t2, lam2, resid = tor.torsion_from_nabla_omega(m, *nws)
    assert resid < 1e-10
    assert top.frob(t2 - t) < 1e-10 * top.frob(t)
    assert np.max(np.abs(lam2 - lambdas)) < 1e-10
    # zero data
    zero = np.zeros((3, m.dim, m.dim, m.dim))
    t0, l0, r0 = tor.torsion_from_nabla_omega(m, *zero)
    assert top.frob(t0) == 0.0 and np.max(np.abs(l0)) == 0.0 and r0 == 0.0
    # unrealizable data is flagged through the residual
    bad = zero.copy()
    w = cs.substream("bad-nw", m.n).standard_normal((m.dim,) * 3)
    bad[0] = 0.5 * (w - w.swapaxes(1, 2))
    _, _, rbad = tor.torsion_from_nabla_omega(m, *bad)
    assert rbad > 1e-3


def test_class_masks(tbank):
    m = tbank.model
    assert tbank.class_mask(np.zeros((m.dim,) * 3)) == "000000"
    eh = tbank.random_component("EH", 7)
    assert tbank.class_mask(eh) == "000001"
    mixed = tbank.random_component("K3", 7) + eh
    mask = tbank.class_mask(mixed)
    assert mask[1] == "1" and mask[5] == "1" and mask[2] == "0"


def test_class_mask_rejects_non_finite(tbank2):
    with pytest.raises(ValueError):
        tbank2.class_mask(np.full((8, 8, 8), np.nan))


def test_derivative_split(tbank):
    m = tbank.model
    from conftest import random_derivative
    D = random_derivative(tbank, 9)
    parts = tor.split_torsion_derivative(tbank, D)
    recon = sum(parts.values())
    assert top.frob(recon - D) < 1e-9 * top.frob(D)
    # constant-in-W single-component derivative only hits its own component
    t = tbank.random_component("KH", 11)
    Dc = np.repeat(t[None], m.dim, axis=0)
    parts = tor.split_torsion_derivative(tbank, Dc)
    for name in tor.TORSION_COMPONENTS:
        expect = top.frob(Dc) if name == "KH" else 0.0
        assert top.frob(parts[name]) == pytest.approx(expect, abs=1e-9 * top.frob(Dc))
    assert top.frob(tor.project_derivative_component(tbank, Dc, "KH") - Dc) \
        < 1e-9 * top.frob(Dc)


def test_nabla_omega_covariance_under_adapted_rotation(tbank):
    """Rotating the adapted basis rotates the lambda triple and leaves the
    intrinsic torsion unchanged (constant rotations have no derivative
    term)."""
    from qhcurv import model_space as ms
    m = tbank.model
    t = random_torsion(tbank, 21)
    lambdas = cs.substream("cov-lam", m.n).standard_normal((3, m.dim))
    nws = tor.nabla_omega_from_torsion(m, t, lambdas)
    rot = ms.random_rotation(cs.substream("cov-rot", m.n))
    rotated = np.einsum("ab,bxyz->axyz", rot, nws)
    t2, lam2, resid = tor.torsion_from_nabla_omega(m, *rotated)
    # the rotated data describes the same structure in a rotated basis:
    # recompute lambda against the rotated omegas by hand
    lam_expect = rot @ lambdas
    # recovery uses the canonical omegas, so compare against the covariant law
    d = m.dim
    omr = np.einsum("ab,bxy->axy", rot, m.omegas)
    lam_check = np.empty((3, d))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        lam_check[a] = np.einsum("xyz,yz->x", rotated[b], omr[c]) / (4.0 * m.n)
    assert np.max(np.abs(lam_check - lam_expect)) < 1e-10
    # and the intrinsic torsion recovered from the rotated data in the
    # rotated basis equals the original
    xi2 = np.zeros((d, d, d))
    triple2 = ms.adapted_basis(m, rot)
    for a, A in enumerate(triple2):
        xi2 += -0.25 * np.einsum("ma,xaz->xmz", A, rotated[a]) \
            + 0.5 * np.einsum("x,mz->xmz", lam_check[a], A)
    assert top.frob(xi2 - t) < 1e-10 * top.frob(t)
