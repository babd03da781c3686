import hashlib

import numpy as np
import pytest

from conftest import one_thread_digests, random_rotation, random_torsion, skip_unless_digest_blas
from qhcurv import curvature_space as cs
from qhcurv import model_space as ms
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor


def torsion_space_dim(n):
    """Real dimension of T* (x) Lambda^2_0 E S^2 H: 4n times 3 dim Lambda^2_0 E."""
    return 4 * n * 3 * (n * (2 * n - 1) - 1)


def test_component_dimensions(tbank):
    n = tbank.model.n
    dims = {k: tbank.rank(k) for k in tor.TORSION_COMPONENTS}
    assert dims == tor.expected_torsion_dims(n)
    assert tbank.rows[0].shape[0] == sum(dims.values()) == torsion_space_dim(n)
    if n == 2:
        assert dims["33"] == 0 and dims["3H"] == 0
        assert tbank.rows[0].shape[0] == 120


#: The six ranks at n = 2..5, in TORSION_COMPONENTS order, as the earlier
#: hand-written formulas gave them.
_TORSION_RANKS = {2: (0, 64, 16, 0, 32, 8), 3: (56, 256, 24, 28, 128, 12),
                  4: (192, 640, 32, 96, 320, 16), 5: (440, 1280, 40, 220, 640, 20)}


def test_expected_torsion_dims_are_pinned():
    for n, ranks in _TORSION_RANKS.items():
        assert tor.expected_torsion_dims(n) == dict(zip(tor.TORSION_COMPONENTS, ranks))


def _rho(X, t):
    """rho(X) t: the sum of the three slot actions of X on a rank-3 tensor."""
    return sum(top.slot_act(X, i, t) for i in (1, 2, 3))


def test_components_are_eigenspaces_of_both_casimirs(tbank):
    """The first, middle and last row of every nonzero component is an
    eigenvector of the Sp(n) Casimir -sum_X rho(X)^2 over sp_generators with
    value casimir_value(lambda, n), and of the Sp(1) Casimir
    sum_A rho(A)^2 with value -k(k + 2), for (lambda, k) in
    TORSION_SPECTRUM.  The Sp(n) values are (2n+1)/4 on E, (6n+3)/4 on K
    and (6n-3)/4 on Lambda^3_0 E."""
    m = tbank.model
    n = m.n
    X = ms.sp_generators(n)
    closed = {(1,): (2 * n + 1) / 4, (2, 1): (6 * n + 3) / 4, (1, 1, 1): (6 * n - 3) / 4}
    for name, (weight, k) in tor.TORSION_SPECTRUM.items():
        B = tbank.basis(name)
        if not B.shape[0]:
            continue
        cas = ms.casimir_value(weight, n)
        assert cas == closed[weight]
        for r in sorted({0, B.shape[0] // 2, B.shape[0] - 1}):
            t = B[r].reshape((m.dim,) * 3)
            sp = -sum(_rho(x, _rho(x, t)) for x in X)
            s1 = sum(_rho(A, _rho(A, t)) for A in m.omegas)
            assert top.frob(sp - cas * t) < 1e-12, name
            assert top.frob(s1 + k * (k + 2) * t) < 1e-12, name


def test_projector_algebra(tbank):
    """The six bases fill the torsion space: their rows are orthonormal,
    each is fixed by the membership projector, and there are as many as
    the space has dimensions."""
    m = tbank.model
    stacked = np.vstack([tbank.basis(k) for k in tor.TORSION_COMPONENTS
                         if tbank.rank(k)])
    gram = stacked @ stacked.T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9
    images = tor.project_to_torsion_space(m, stacked.reshape((-1,) + (m.dim,) * 3))
    assert np.max(np.abs(images.reshape(stacked.shape) - stacked)) < 1e-9
    assert stacked.shape[0] == torsion_space_dim(m.n)


#: sha256 of the six torsion bases at n = 2, in TORSION_COMPONENTS order,
#: recorded on the BLAS build DIGEST_BLAS.
_TORSION_DIGEST_N2 = "a0e582d81a3b813bc64dffa8f09aa0714a7a69461c4191569ae9ac114d2d3444"


def test_torsion_bank_is_bitwise_stable(tbank2):
    """The torsion bank does not depend on how the curvature bank is built
    or stored: its bases at n = 2 hash to the recorded digest."""
    skip_unless_digest_blas()
    h = hashlib.sha256()
    for name in tor.TORSION_COMPONENTS:
        h.update(tbank2.basis(name).tobytes())
    assert h.hexdigest() == _TORSION_DIGEST_N2


#: The same digest at n = 3, built with one BLAS thread: at n = 3 the
#: bases' bits depend on the thread count.
_TORSION_DIGEST_N3 = "fa51e9be2ab14a8a53f2eedead08f5ab18c6672f9750bdf78a476a5b0383a674"

_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from qhcurv import torsion as tor
from qhcurv.model_space import build_model
tbank = tor.build_torsion_bank(build_model(3))
h = hashlib.sha256()
for name in tor.TORSION_COMPONENTS:
    h.update(tbank.basis(name).tobytes())
print(h.hexdigest())
"""


def test_torsion_bank_n3_is_bitwise_stable():
    """The n = 3 bases, built in a fresh process with one BLAS thread, hash
    to the recorded digest."""
    skip_unless_digest_blas()
    assert one_thread_digests(_DIGEST_SCRIPT) == [_TORSION_DIGEST_N3]


def test_trace_forms_act_on_stacks_bitwise(model):
    """theta, theta_A and both trace reconstructions give each tensor of a
    stack its own result bit for bit: the torsion bank builds the E3 and EH
    images in one call on its whole row stack."""
    m = model
    T = cs.substream("trace-stack", m.n).standard_normal((5,) + (m.dim,) * 3)
    maps = [lambda t: tor.theta(m, t), lambda t: tor.xi_E3_from_trace(m, t),
            lambda t: tor.xi_EH_from_trace(m, t)]
    maps += [lambda t, A=A: tor.theta_A(m, t, A) for A in m.omegas]
    for f in maps:
        stacked = f(T)
        for t, got in zip(T, stacked):
            assert np.array_equal(f(t), got)


def test_membership_projector(tbank):
    m = tbank.model
    t = random_torsion(tbank, 0)
    # every slice is a 2-form in Lambda^2_0 E S^2 H
    assert top.frob(t + t.swapaxes(1, 2)) < 1e-12 * top.frob(t)
    for x in range(m.dim):
        b = t[x]
        summed = sum(np.einsum("ya,zb,ab->yz", A, A, b) for A in m.omegas)
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
    assert np.linalg.norm(3 * th - sum(tor.theta_A(m, t, A) for A in m.omegas)) \
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
    norms = dict(zip(tbank.names, np.sqrt(tbank.squared_norms(skew.ravel()))))
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


def test_nabla_omega_antisymmetry_gate_is_scale_invariant(tbank):
    """Data off antisymmetry by 1e-3 (relative) is refused at any scale,
    also far below unit norm, before any reconstruction."""
    m = tbank.model
    t = random_torsion(tbank, 6)
    lambdas = cs.substream("gate-lam", m.n).standard_normal((3, m.dim))
    nws = tor.nabla_omega_from_torsion(m, t, lambdas)
    sym = cs.substream("gate-sym", m.n).standard_normal(nws.shape)
    sym = sym + sym.swapaxes(2, 3)
    bad = nws + 1e-3 * top.frob(nws) / top.frob(sym) * sym
    for scale in (1e6, 1.0, 1e-12):
        with pytest.raises(ValueError, match="antisymmetric"):
            tor.torsion_from_nabla_omega(m, *(scale * bad))
        _, _, resid = tor.torsion_from_nabla_omega(m, *(scale * nws))
        assert resid < 1e-10


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


def test_class_mask_rejects_every_non_finite_entry(tbank2):
    """One NaN or infinity anywhere raises; a finite tensor whose squared
    norm overflows does not, and gets the mask of the unscaled tensor."""
    t = tbank2.random_component("EH", 3)
    for value in (np.nan, np.inf, -np.inf):
        for where in ((0, 0, 0), (7, 7, 7), (2, 5, 1)):
            bad = t.copy()
            bad[where] = value
            with pytest.raises(ValueError, match="NaN or infinite"):
                tbank2.class_mask(bad)
    assert tbank2.class_mask(1e300 * t) == "000001"


def test_class_mask_rejects_wrong_shapes(tbank2):
    """A derivative, whose first d^3 entries would read as a torsion
    tensor, and a tensor of the wrong dimension both raise ValueError; so
    does projecting the latter."""
    from conftest import random_derivative
    for bad in (random_derivative(tbank2, 0), np.ones((4, 4, 4))):
        with pytest.raises(ValueError, match="shape"):
            tbank2.class_mask(bad)
    with pytest.raises(ValueError, match="shape"):
        tor.project_to_torsion_space(tbank2.model, np.ones((4, 4, 4)))


def test_bank_bases_are_views_of_one_stacked_array(tbank):
    """The six bases are stored once: each component's block is a view of
    the stacked rows, over all coordinates, in TORSION_COMPONENTS order."""
    (rows,) = tbank.rows
    at = 0
    for name in tor.TORSION_COMPONENTS:
        blocks = tbank.blocks(name)
        assert len(blocks) == (1 if tbank.rank(name) else 0)
        for coords, B in blocks:
            assert B.base is rows
            assert np.shares_memory(B, rows)
            assert np.array_equal(coords, np.arange(rows.shape[1]))
            assert np.array_equal(B, rows[at:at + tbank.rank(name)])
        at += tbank.rank(name)
    assert at == rows.shape[0] == torsion_space_dim(tbank.model.n)


def test_bank_arrays_own_their_data_or_view_rows(tbank):
    """No bank array pins a larger buffer: each owns its data or is a view
    of the stacked rows."""
    arrays = [v for v in vars(tbank).values() if isinstance(v, np.ndarray)]
    arrays += [a for v in vars(tbank).values() if isinstance(v, tuple)
               for a in v if isinstance(a, np.ndarray)]
    views = [B for name in tbank.names for _, B in tbank.blocks(name)]
    assert len(arrays) == 3                         # classes, rows and labels
    for a in arrays + views:
        assert a.base is None or a.base is tbank.rows[0]


def test_projector_rows_match_the_unit_sweep_bitwise(model):
    """The ambient SVD input, I (x) P2, is the projection of every d^3 unit
    tensor one at a time, byte for byte (the sign of every zero included)."""
    d = model.dim
    unit = np.zeros(d ** 3)
    sweep = np.empty((d ** 3, d ** 3))
    for k in range(d ** 3):
        unit[k] = 1.0
        sweep[k] = tor.project_to_torsion_space(model, unit.reshape(d, d, d)).ravel()
        unit[k] = 0.0
    assert tor._projector_rows(model).tobytes() == sweep.tobytes()


def test_stacked_projection_matches_single_calls_bitwise(model):
    """A stack of k rank-3 tensors projects as k single calls, bit for bit."""
    d = model.dim
    rng = cs.substream("stacked-projection", model.n)
    for lead in ((d,), (2, 3)):
        stack = rng.standard_normal(lead + (d, d, d))
        flat = stack.reshape((-1, d, d, d))
        single = np.stack([tor.project_to_torsion_space(model, t) for t in flat])
        got = tor.project_to_torsion_space(model, stack)
        assert got.shape == stack.shape
        assert got.reshape(single.shape).tobytes() == single.tobytes()


def test_projection_matches_the_oracle(model):
    """One product with P2 agrees with the stepwise oracle to roundoff."""
    t = cs.substream("projection-oracle", model.n).standard_normal((model.dim,) * 3)
    want = _project_oracle(model, t)
    assert top.frob(tor.project_to_torsion_space(model, t) - want) <= 1e-15 * top.frob(want)


def test_form_projector_is_cached_read_only_and_orthogonal(model):
    P2 = cs.L20ES2H_projector(model.n)
    assert cs.L20ES2H_projector(model.n) is P2
    assert not P2.flags.writeable
    assert np.max(np.abs(P2 - P2.T)) <= 1e-15
    assert np.max(np.abs(P2 @ P2 - P2)) <= 1e-15


def test_projection_does_not_rebuild_the_projector(monkeypatch, model):
    """After warm-up, projecting tensors runs only the product with P2."""
    rng = cs.substream("projector-calls", model.n)
    tor.project_to_torsion_space(model, rng.standard_normal((model.dim,) * 3))
    calls = []
    inner = cs._L20ES2H_stepwise
    monkeypatch.setattr(cs, "_L20ES2H_stepwise",
                        lambda *args: calls.append(args) or inner(*args))
    for _ in range(10):
        tor.project_to_torsion_space(model, rng.standard_normal((model.dim,) * 3))
    assert calls == []


def test_component_norms_match_per_component_products(tbank):
    """The bank's per-component norms, one product per class, equal one
    product per component basis; components of rank 0 read exactly 0."""
    for seed in range(3):
        t = random_torsion(tbank, seed)
        norms = dict(zip(tbank.names, np.sqrt(tbank.squared_norms(t.ravel()))))
        assert list(norms) == list(tor.TORSION_COMPONENTS)
        for name in tor.TORSION_COMPONENTS:
            want = np.linalg.norm(tbank.basis(name) @ t.ravel())
            assert abs(norms[name] - want) <= 1e-14 * want
            if tbank.rank(name) == 0:
                assert norms[name] == 0.0


@pytest.mark.parametrize("size", [1, 2, 3])
def test_class_mask_of_seeded_mixtures(tbank, size):
    """A seeded mixture of one, two or three components gets exactly their
    bits, as the per-component norms give them."""
    names = [c for c in tor.TORSION_COMPONENTS if tbank.rank(c)]
    rng = cs.substream("mask-mixtures", tbank.model.n, size)
    for trial in range(4):
        chosen = {names[i] for i in rng.choice(len(names), size=size, replace=False)}
        t = sum(rng.uniform(0.5, 2.0) * tbank.random_component(c, trial) for c in chosen)
        want = "".join("1" if c in chosen else "0" for c in tor.TORSION_COMPONENTS)
        assert tbank.class_mask(t) == want
        scale = np.linalg.norm(t.ravel())
        assert want == "".join(
            "1" if np.linalg.norm(tbank.basis(c) @ t.ravel()) > tor.MASK_TOL * scale else "0"
            for c in tor.TORSION_COMPONENTS)


def test_derivative_split(tbank):
    m = tbank.model
    from conftest import random_derivative
    D = random_derivative(tbank, 9)
    parts = {name: tbank.project(D, name) for name in tor.TORSION_COMPONENTS}
    recon = sum(parts.values())
    assert top.frob(recon - D) < 1e-9 * top.frob(D)
    # constant-in-W single-component derivative only hits its own component
    t = tbank.random_component("KH", 11)
    Dc = np.repeat(t[None], m.dim, axis=0)
    parts = {name: tbank.project(Dc, name) for name in tor.TORSION_COMPONENTS}
    for name in tor.TORSION_COMPONENTS:
        expect = top.frob(Dc) if name == "KH" else 0.0
        assert top.frob(parts[name]) == pytest.approx(expect, abs=1e-9 * top.frob(Dc))
    assert top.frob(tbank.project(Dc, "KH") - Dc) < 1e-9 * top.frob(Dc)


def test_nabla_omega_covariance_under_adapted_rotation(tbank):
    """Rotating the adapted basis rotates the lambda triple and leaves the
    intrinsic torsion unchanged (constant rotations have no derivative
    term)."""
    m = tbank.model
    t = random_torsion(tbank, 21)
    lambdas = cs.substream("cov-lam", m.n).standard_normal((3, m.dim))
    nws = tor.nabla_omega_from_torsion(m, t, lambdas)
    rot = random_rotation(cs.substream("cov-rot", m.n))
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


# ---------------------------------------------------------------------------
# The slot kernels are exact signed-permutation matmuls.  The torsion bank
# feeds their output to SVDs, whose bases rotate under rounding noise, so
# each kernel must match its einsum definition bit for bit.


def _es(expr, *ops):
    return np.einsum(expr, *ops, optimize=True)


def _project_oracle(m, t):
    t = 0.5 * (t - t.swapaxes(1, 2))
    s2e = 0.25 * (t + sum(_es("by,cz,xbc->xyz", A, A, t) for A in m.omegas))
    t = t - s2e
    for w in m.omegas:
        coef = _es("xyz,yz->x", t, w) / (4.0 * m.n)
        t = t - _es("x,yz->xyz", coef, w)
    return t


def _theta_oracle(m, t):
    return -_es("ixi->x", t) / tor._theta_scale(m.n)


def _xi_eh_oracle(m, t):
    th = _theta_oracle(m, t)
    out = 3.0 * (_es("xy,z->xyz", m.g, th) - _es("xz,y->xyz", m.g, th))
    for A in m.omegas:      # omega_A has the matrix of A
        ath = A @ th
        out -= (_es("yx,z->xyz", A, ath) - _es("zx,y->xyz", A, ath))
        out -= (2.0 / m.n) * _es("x,yz->xyz", ath, A)
    return out


def _nabla_omega_oracle(m, t, lambdas):
    out = np.empty((3, m.dim, m.dim, m.dim))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        out[a] = (_es("x,yz->xyz", lambdas[c], m.omegas[b])
                  - _es("x,yz->xyz", lambdas[b], m.omegas[c])
                  - _es("xyc,cz->xyz", t, m.omegas[a])
                  - _es("by,xbz->xyz", m.omegas[a], t))
    return out


def _from_nabla_omega_oracle(m, nws):
    lambdas = np.empty((3, m.dim))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        lambdas[a] = _es("xyz,yz->x", nws[b], m.omegas[c]) / (4.0 * m.n)
    t = np.zeros((m.dim,) * 3)
    for a, A in enumerate(m.omegas):
        t += -0.25 * _es("ma,xaz->xmz", A, nws[a]) \
             + 0.5 * _es("x,mz->xmz", lambdas[a], A)
    recon = _nabla_omega_oracle(m, t, lambdas)
    return t, lambdas, float(top.frob(recon - nws) / max(top.frob(nws), 1e-300))


_KERNELS = {
    # the S^3H and H conditions: sum_A t(A.,.,A.) + t, sum_A t(A.,A.,.) + t,
    # and t(A.,.,A.) + t(A.,A.,.) + t(.,A.,A.) - t per A
    "sum_op13": (lambda m, t, lam, nws: tor._s3h_defects(m, t)[0],
                 lambda m, t, lam, nws: sum(_es("ax,cz,ayc->xyz", A, A, t)
                                            for A in m.omegas) + t),
    "sum_op12": (lambda m, t, lam, nws: tor._s3h_defects(m, t)[1],
                 lambda m, t, lam, nws: sum(_es("ax,by,abz->xyz", A, A, t)
                                            for A in m.omegas) + t),
    "op_h": (lambda m, t, lam, nws: list(tor._h_defects(m, t)),
             lambda m, t, lam, nws: [_es("ax,cz,ayc->xyz", A, A, t)
                                     + _es("ax,by,abz->xyz", A, A, t)
                                     + _es("by,cz,xbc->xyz", A, A, t) - t
                                     for A in m.omegas]),
    # the map psi_k_solve inverts, as it writes it on its stack of 3-forms
    "psi_k_image": (lambda m, t, lam, nws:
                    3.0 * t - top.substitute(m.omegas, (-2, -1), t).sum(0),
                    lambda m, t, lam, nws: 3.0 * t - sum(_es("by,cz,xbc->xyz", A, A, t)
                                                         for A in m.omegas)),
    # projection reads the cached P2; its stepwise builder holds the bits
    "project_to_torsion_space": (lambda m, t, lam, nws: cs._L20ES2H_stepwise(m, t),
                                 lambda m, t, lam, nws: _project_oracle(m, t)),
    "theta": (lambda m, t, lam, nws: tor.theta(m, t),
              lambda m, t, lam, nws: _theta_oracle(m, t)),
    "theta_A": (lambda m, t, lam, nws: [tor.theta_A(m, t, A) for A in m.omegas],
                lambda m, t, lam, nws: [_es("iab,ax,bi->x", t, A, A)
                                        / (tor._theta_scale(m.n) / 3.0)
                                        for A in m.omegas]),
    "xi_EH_from_trace": (lambda m, t, lam, nws: tor.xi_EH_from_trace(m, t),
                         lambda m, t, lam, nws: _xi_eh_oracle(m, t)),
    "residual_trace_free": (lambda m, t, lam, nws: tor.residual_trace_free(t),
                            lambda m, t, lam, nws: float(np.linalg.norm(_es("ixi->x", t)))),
    "nabla_omega_from_torsion": (lambda m, t, lam, nws: tor.nabla_omega_from_torsion(m, t, lam),
                                 lambda m, t, lam, nws: _nabla_omega_oracle(m, t, lam)),
    "torsion_from_nabla_omega": (lambda m, t, lam, nws: tor.torsion_from_nabla_omega(m, *nws),
                                 lambda m, t, lam, nws: _from_nabla_omega_oracle(m, nws)),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_kernels_match_einsum_definitions_bitwise(model, kernel):
    m = model
    rng = cs.substream("kernel-oracle", m.n, kernel)
    t = rng.standard_normal((m.dim,) * 3)
    lam = rng.standard_normal((3, m.dim))
    nws = rng.standard_normal((3,) + (m.dim,) * 3)
    nws = nws - nws.swapaxes(2, 3)
    fast, oracle = _KERNELS[kernel]
    got, want = fast(m, t, lam, nws), oracle(m, t, lam, nws)
    if not isinstance(got, (list, tuple)):
        got, want = [got], [want]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_verdict_paths_plan_no_einsum(monkeypatch, bank2, tbank2):
    """Certification, both torsion classifications and one table-state
    evaluation run fixed contractions only: no einsum path is planned."""
    from conftest import random_derivative, random_gammas
    from qhcurv import curvature_from_torsion as cft
    from qhcurv import decomposition as dec
    from qhcurv import tables as tbl
    m = tbank2.model
    ctx = tbl.TableContext.build(bank2, tbank2)
    R = cs.random_curvature(m, 0).tensor
    t = random_torsion(tbank2, 0)
    nws = tor.nabla_omega_from_torsion(m, t, cs.substream("plan-lam").standard_normal((3, m.dim)))
    state = cft.TorsionState.make(m, t=t, D=random_derivative(tbank2, 0),
                                  gammas=random_gammas(m, 0))
    calls = []
    inner = np.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    # np.einsum plans through its own module's global, not the numpy attribute
    monkeypatch.setattr(np, "einsum_path", counting)
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", counting)
    dec.component_norms(bank2, cs.CurvatureTensor.certify(R))
    tbank2.class_mask(tor.project_to_torsion_space(m, t))
    tbank2.class_mask(tor.torsion_from_nabla_omega(m, *nws)[0])
    tbl.evaluate_columns(ctx, state)
    assert calls == []


def test_rank_decisions_raise_below_the_margin():
    """Singular values 1, 1e-7 and 1e-10: a cut at rank 2 keeps 1e-7 and
    drops 1e-10, a margin of 1e3 < _SV_MARGIN, so it raises as a row-space
    and as a kernel cut, with a message that names the basis given as
    ``label``.  With 1e-14 in place of 1e-10 the margin is 1e7 and the cut
    returns 2 rows, or the 5 - 2 kernel rows."""
    rng = cs.substream("margin", 0)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((5, 5)))[0][:3]
    for kernel in (False, True):
        with pytest.raises(ArithmeticError, match="^probe basis: rank decision too close"):
            tor._svd_cut(U @ np.diag([1.0, 1e-7, 1e-10]) @ V, 2, "probe basis", kernel=kernel)
    clear = U @ np.diag([1.0, 1e-7, 1e-14]) @ V
    assert tor._svd_cut(clear, 2, "probe").shape == (2, 5)
    assert tor._svd_cut(clear, 2, "probe", kernel=True).shape == (3, 5)


def test_full_rank_cut_is_gated_by_roundoff():
    """With nothing dropped the smallest singular value is compared with
    s_max * eps * max(rows, cols): 1e-9 clears it by less than _SV_MARGIN
    and raises, 1e-3 passes, with an empty kernel."""
    rng = cs.substream("margin", 1)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((5, 5)))[0][:3]
    for kernel in (False, True):
        with pytest.raises(ArithmeticError, match="^full: rank decision too close"):
            tor._svd_cut(U @ np.diag([1.0, 0.5, 1e-9]) @ V, 3, "full", kernel=kernel)
    clear = U @ np.diag([1.0, 0.5, 1e-3]) @ V
    assert tor._svd_cut(clear, 3, "full").shape == (3, 5)
    assert tor._svd_cut(clear.T, 3, "full", kernel=True).shape == (0, 3)


@pytest.mark.parametrize("shape, rank", [((4, 6), 2), ((4, 6), 0), ((0, 6), 0), ((0, 6), 1)])
@pytest.mark.parametrize("kernel", [False, True])
def test_zero_or_empty_cut_raises(shape, rank, kernel):
    """A zero or empty matrix has no singular value to keep above the
    margin: every cut raises ArithmeticError, never IndexError, even the
    rank-2 cut of a 4 x 6 zero that a non-strict 0 >= 1e6 * 0 would pass."""
    with pytest.raises(ArithmeticError, match="^nothing: rank decision too close"):
        tor._svd_cut(np.zeros(shape), rank, "nothing", kernel=kernel)


def test_rank_helpers_return_owned_rows():
    """The bases own their data, so none keeps the whole V^T alive."""
    mat = cs.substream("owned-rows", 0).standard_normal((3, 6))
    for rows in (tor._svd_cut(mat, 3, "rows"), tor._svd_cut(mat, 3, "kernel", kernel=True),
                 tor._svd_cut(mat.T, 3, "kernel", kernel=True)):
        assert rows.base is None and rows.flags.owndata
    assert tor._svd_cut(mat.T, 3, "kernel", kernel=True).shape == (0, 3)


@pytest.mark.parametrize("source, target", [("K3", "E3"), ("KH", "EH")])
def test_a_moved_weight_dimension_raises_naming_its_basis(model2, monkeypatch, source, target):
    """Every rank of the bank comes from expected_torsion_dims: moving one
    dimension between two components of one half keeps the half's rank and
    fails the first of the two cuts, naming its basis."""
    true_dims = tor.expected_torsion_dims

    def moved(n):
        dims = true_dims(n)
        dims[source] -= 1
        dims[target] += 1
        return dims

    monkeypatch.setattr(tor, "expected_torsion_dims", moved)
    with pytest.raises(ArithmeticError, match=f"^torsion {target}: "):
        tor.build_torsion_bank(model2)
