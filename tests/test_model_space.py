import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import random_rotation
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


#: sha256 of the raw float64 bytes of pi1, pi2 and the fundamental 4-form
#: Omega = sum_A omega_A ^ omega_A.  Their entries are small integers and
#: halves, so any summation order gives these bits.
STRUCTURE_SHA256 = {
    2: {"pi1": "39df4391a2d208cd56eca16e663ca335e9592c454deb7599099aa392bf097666",
        "pi2": "642537928cd6b9a7f72e7b6280033135c7a5a3dbe0643ebec9fee47902ce82f9",
        "Omega": "db9614d91580e7d0dd6bb1eca5ed99add09cb815f0daa2c674736052a4f69683"},
    3: {"pi1": "ad457ddbc7c562cd323aac4820c9927d6bb68af3587730038ccb5b429b3fd398",
        "pi2": "683f0ffda3ee9f859f79bcd1042c66b079be2f901eba68a579d0063de2ad2fbf",
        "Omega": "687dfb602f35d4662acff03e4ddd92f1dde1463b69902eb860a4a3a1a6c8260c"},
}


@pytest.mark.parametrize("n", sorted(STRUCTURE_SHA256))
def test_structure_tensors_are_pinned(n):
    m = ms.build_model(n)
    structure = {"pi1": m.pi1, "pi2": m.pi2, "Omega": top.wedge2(m.omegas, m.omegas).sum(0)}
    for name, digest in STRUCTURE_SHA256[n].items():
        T = structure[name]
        assert T.flags.c_contiguous and T.dtype == np.float64
        assert hashlib.sha256(T.tobytes()).hexdigest() == digest, name


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        ms.build_model(1)
    with pytest.raises(ValueError):
        ms.build_model(0)


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
    with pytest.raises(ValueError, match="not orthogonal"):
        ms.adapted_basis(model2, np.full((3, 3), np.nan))


def test_adapted_basis_quaternion_identities_and_omega(model):
    rng = cs.substream("adapted", model.n)
    rot = random_rotation(rng)
    I2, J2, K2 = ms.adapted_basis(model, rot)
    eye = np.eye(model.dim)
    assert np.allclose(I2 @ I2, -eye, atol=1e-12)
    assert np.allclose(K2, I2 @ J2, atol=1e-12)
    # Omega recomputed from the rotated triple agrees (basis independence)
    omegas2 = np.stack([I2, J2, K2])
    Omega = top.wedge2(model.omegas, model.omegas).sum(0)
    Omega2 = top.wedge2(omegas2, omegas2).sum(0)
    assert top.frob(Omega2 - Omega) < 1e-10 * top.frob(Omega)
    # structure tensor sum_A omega_A (x) omega_A is basis independent
    s1 = sum(np.einsum("xy,zu->xyzu", w, w) for w in model.omegas)
    s2 = sum(np.einsum("xy,zu->xyzu", w, w) for w in omegas2)
    assert top.frob(s1 - s2) < 1e-10 * top.frob(s1)


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
