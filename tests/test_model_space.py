import itertools
import math

import numpy as np
import pytest

from qhcurv import curvature_space as cs
from qhcurv import model_space as ms
from qhcurv import tensor_ops as top


def omega_inner_oracle(a, b):
    # independent brute-force 2-form inner product: (1/2!) sum a(ei,ej) b(ei,ej)
    d = a.shape[0]
    total = 0.0
    for i in range(d):
        for j in range(d):
            total += a[i, j] * b[i, j]
    return total / 2.0


def test_structure_invariants(model):
    eye = np.eye(model.dim)
    I, J, K = model.triple
    assert np.max(np.abs(I @ I + eye)) == 0
    assert np.max(np.abs(J @ J + eye)) == 0
    assert np.max(np.abs(K - I @ J)) == 0
    assert np.max(np.abs(K + J @ I)) == 0
    for A in model.triple:
        assert np.max(np.abs(A.T @ A - eye)) == 0
        assert np.max(np.abs(A + A.T)) == 0  # omega_A antisymmetric


def test_omega_inner_products(model):
    for a, b in itertools.product(range(3), repeat=2):
        expect = 2 * model.n if a == b else 0.0
        assert omega_inner_oracle(model.omegas[a], model.omegas[b]) == pytest.approx(expect)
        assert top.p_form_inner(model.omegas[a], model.omegas[b]) == pytest.approx(expect)


def test_pi_inner_products(model):
    n = model.n
    assert top.curvature_inner(model.pi1, model.pi1) == pytest.approx(8 * n * (4 * n - 1))
    assert top.curvature_inner(model.pi2, model.pi2) == pytest.approx(288 * n * (4 * n - 1))
    assert top.curvature_inner(model.pi1, model.pi2) == pytest.approx(144 * n)


def test_pi_combinations(model):
    apb = model.pi2 + 6 * model.pi1
    amb = model.pi2 - 6 * model.pi1
    assert top.frob(apb) > 1.0 and top.frob(amb) > 1.0
    assert abs(top.curvature_inner(apb, amb)) < 1e-10 * top.frob(apb) * top.frob(amb)


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        ms.build_model(1)
    with pytest.raises(ValueError):
        ms.build_model(0)
    with pytest.raises(ValueError):
        ms.build_model(20)           # dim**4 over the cap
    ms.build_model(20, allow_large=True).dim  # explicit override works


def test_adapted_basis_identity_and_quarter_turn(model2):
    I, J, K = model2.triple
    trip = ms.adapted_basis(model2, np.eye(3))
    assert all(np.array_equal(a, b) for a, b in zip(trip, (I, J, K)))
    # 90 degree rotation about the K axis maps I to J
    rot = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    I2, J2, K2 = ms.adapted_basis(model2, rot)
    assert np.allclose(I2, J)
    assert np.allclose(K2, K)


def test_adapted_basis_rejects_bad_rotation(model2):
    with pytest.raises(ValueError):
        ms.adapted_basis(model2, 2.0 * np.eye(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        ms.adapted_basis(model2, refl)


def test_adapted_basis_quaternion_identities_and_omega(model):
    rng = cs.substream("adapted", model.n)
    rot = ms.random_rotation(rng)
    I2, J2, K2 = ms.adapted_basis(model, rot)
    eye = np.eye(model.dim)
    assert np.allclose(I2 @ I2, -eye, atol=1e-12)
    assert np.allclose(K2, I2 @ J2, atol=1e-12)
    # Omega recomputed from the rotated triple agrees (basis independence)
    omegas2 = np.stack([I2, J2, K2])
    Omega2 = ms.fundamental_four_form(omegas2)
    assert top.frob(Omega2 - model.Omega) < 1e-10 * top.frob(model.Omega)
    # structure tensor sum_A omega_A (x) omega_A is basis independent
    s1 = sum(np.einsum("xy,zu->xyzu", w, w) for w in model.omegas)
    s2 = sum(np.einsum("xy,zu->xyzu", w, w) for w in omegas2)
    assert top.frob(s1 - s2) < 1e-10 * top.frob(s1)


def test_orientation_volume_nonzero(model2):
    assert abs(ms.orientation_volume(model2)) > 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sp_generators_are_an_orthonormal_basis_of_sp_n(n):
    """n(2n+1) skew matrices of 4 or 8 nonzero entries, orthonormal in the
    Frobenius norm, commuting with I, J and K, and spanning every skew
    matrix that does."""
    m = ms.build_model(n)
    X = ms.sp_generators(n)
    assert X.shape == (n * (2 * n + 1), m.dim, m.dim)
    assert np.max(np.abs(np.einsum("aij,bij->ab", X, X) - np.eye(len(X)))) < 1e-15
    assert np.array_equal(X, -X.swapaxes(1, 2))
    assert set(np.count_nonzero(X, axis=(1, 2)).tolist()) == {4, 8}
    for A in m.triple:
        assert np.array_equal(X @ A, A @ X)
    raw = cs.substream("sp-generators", n).standard_normal((m.dim, m.dim))
    raw = raw - raw.T
    commuting = (raw + sum(A.T @ raw @ A for A in m.triple)) / 4.0
    assert np.max(np.abs(sum(A @ commuting - commuting @ A for A in m.triple))) < 1e-12
    coef = np.einsum("aij,ij->a", X, commuting)
    assert np.max(np.abs(np.einsum("a,aij->ij", coef, X) - commuting)) < 1e-12


def test_weyl_dimension_matches_the_classical_modules():
    """The Weyl product gives the familiar Sp(n) modules: E, S^2 E = sp(n),
    Lambda^2_0 E, Lambda^3_0 E and the trivial module; a weight with more
    than n parts gives 0, where casimir_value gives None."""
    for n in range(2, 9):
        e = 2 * n
        assert ms.weyl_dimension((), n) == 1
        assert ms.weyl_dimension((1,), n) == e
        assert ms.weyl_dimension((2,), n) == n * (2 * n + 1)
        assert ms.weyl_dimension((1, 1), n) == math.comb(e, 2) - 1
        assert ms.weyl_dimension((1, 1, 1), n) == (math.comb(e, 3) - e if n >= 3 else 0)
        assert ms.weyl_dimension((1,) * (n + 1), n) == 0
        assert ms.casimir_value((1,) * (n + 1), n) is None
