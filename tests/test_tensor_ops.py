import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tensor_ops as top
from qhcurv.model_space import build_model

M2 = build_model(2)
I2, J2, _ = M2.omegas


def rand(shape, seed):
    return cs.substream("tops", shape, seed).standard_normal(shape)


# --- substitution, slot and full actions -----------------------------------

def _substitute_oracle(A, axes, T):
    """T(..., A x, ...) on each axis, as one einsum over integer labels."""
    axes = [ax % T.ndim for ax in axes]
    given = list(range(T.ndim))
    operands = [T, given]
    for k, ax in enumerate(axes):
        given[ax] = T.ndim + k            # the summed label a of A[a, x]
        operands += [A, [T.ndim + k, ax]]
    return np.einsum(*operands, list(range(T.ndim)))


@pytest.mark.parametrize("shape, axes", [((8, 8, 8), (0,)), ((8, 8, 8), (1, 2)),
                                         ((8, 8, 8, 8), (0, 1, 2, 3)),
                                         ((5, 8, 8, 8), (-3,)), ((5, 8, 8, 8), (-1, -3)),
                                         ((2, 3, 8, 8), (-2, -1))])
def test_substitute_matches_einsum_bitwise(shape, axes):
    """substitute(A, axes, T)[..., x, ...] = A[a, x] T[..., a, ...] on each
    listed axis, bit for bit, as I, J and K are signed permutations: for
    one A, for the stack of all three (a new leading axis), and on tensors
    with leading stack axes."""
    T = rand(shape, 21)
    for A in M2.omegas:
        assert np.array_equal(top.substitute(A, axes, T), _substitute_oracle(A, axes, T))
    expect = np.stack([_substitute_oracle(A, axes, T) for A in M2.omegas])
    assert np.array_equal(top.substitute(M2.omegas, axes, T), expect)


def test_slot_act_is_signed_substitution():
    """A_(i) b = -b(..., A X_i, ...) on the 1-based slot i, bit for bit."""
    b = rand((8, 8, 8), 22)
    for A in M2.omegas:
        for i in (1, 2, 3):
            assert np.array_equal(top.slot_act(A, i, b), -_substitute_oracle(A, (i - 1,), b))
            assert np.array_equal(top.slot_act(A, i, b), -top.substitute(A, (i - 1,), b))


def test_slot_act_definition_elementwise():
    b = rand((8, 8, 8), 3)
    out = top.slot_act(J2, 2, b)
    # A_(2) b(x, y, z) = -b(x, Ay, z)
    for idx in [(0, 1, 2), (3, 3, 3), (7, 0, 5)]:
        x, y, z = idx
        expect = -sum(J2[a, y] * b[x, a, z] for a in range(8))
        assert out[idx] == pytest.approx(expect)


def test_slot_act_examples():
    # I_(1) omega_I(x, y) = -omega_I(Ix, y) = -<Ix, Iy> = -<x, y>
    assert np.allclose(top.slot_act(I2, 1, I2), -M2.g)
    # twice with the same A and slot is minus the identity
    b = rand((8, 8), 0)
    assert np.allclose(top.slot_act(I2, 1, top.slot_act(I2, 1, b)), -b)
    # I_(1) g (x,y) = -g(Ix,y) = -omega_I(y,x)
    assert np.allclose(top.slot_act(I2, 1, M2.g), -I2.T)


def test_slot_act_errors():
    with pytest.raises(ValueError):
        top.slot_act(I2, 0, rand((8, 8), 1))
    with pytest.raises(ValueError):
        top.slot_act(I2, 3, rand((8, 8), 1))


def test_full_act_examples():
    """The full action on a rank-2 tensor, A b = b(A., A.), is substitution
    in both slots."""
    for A in M2.omegas:
        assert np.allclose(top.substitute(A, (0, 1), M2.g), M2.g)
    assert np.allclose(top.substitute(I2, (0, 1), I2), I2)      # I omega_I = omega_I
    assert np.allclose(top.substitute(I2, (0, 1), J2), -J2)     # I omega_J = -omega_J


def test_slot_acts_on_distinct_slots_commute_exactly():
    b = rand((8, 8, 8, 8), 5)
    one = top.slot_act(I2, 1, top.slot_act(J2, 3, b))
    two = top.slot_act(J2, 3, top.slot_act(I2, 1, b))
    assert np.array_equal(one, two)


def test_adjoint_identity_under_curvature_inner():
    a4, b4 = rand((8,) * 4, 7), rand((8,) * 4, 8)
    for A in M2.omegas:
        for i in range(1, 5):
            lhs = top.curvature_inner(top.slot_act(A, i, a4), b4)
            rhs = -top.curvature_inner(a4, top.slot_act(A, i, b4))
            assert lhs == pytest.approx(rhs, rel=1e-10)


# --- inner products ---------------------------------------------------------

def test_p_form_inner_examples():
    assert top.p_form_inner(I2, J2) == pytest.approx(0.0)
    assert top.p_form_inner(I2, I2) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        top.p_form_inner(I2, rand((8, 8, 8), 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_p_form_inner_positive_definite(seed):
    raw = cs.substream("hyp-form", seed).standard_normal((8, 8))
    a = raw - raw.T
    val = top.p_form_inner(a, a)
    assert val >= 0.0
    if np.max(np.abs(a)) > 1e-12:
        assert val > 0.0


def test_curvature_inner_examples():
    assert top.curvature_inner(np.zeros((8,) * 4), M2.pi1) == 0.0
    with pytest.raises(ValueError):
        top.curvature_inner(rand((8, 8), 0), rand((8, 8), 1))
    # frob is the square root of the raw self-contraction, NaN stays NaN
    a4 = rand((8,) * 4, 3)
    assert top.frob(a4) == pytest.approx(np.sqrt(top.curvature_inner(a4, a4)), rel=1e-14)
    assert top.frob(I2) == np.sqrt(8.0)
    assert top.frob(np.zeros((8,) * 4)) == 0.0
    a4[1, 2, 3, 4] = np.nan
    assert np.isnan(top.frob(a4))


# --- products ----------------------------------------------------------------

def wedge2_oracle(b, c):
    """Independent elementwise shuffle-sum wedge of 2-forms."""
    d = b.shape[0]
    out = np.zeros((d,) * 4)
    for x, y, z, u in itertools.product(range(d), repeat=4):
        out[x, y, z, u] = (b[x, y] * c[z, u] - b[x, z] * c[y, u]
                           + b[x, u] * c[y, z] + b[y, z] * c[x, u]
                           - b[y, u] * c[x, z] + b[z, u] * c[x, y])
    return out


def test_wedge2_matches_oracle_and_alternation():
    d = 4  # small dimension keeps the elementwise oracle cheap
    rng = cs.substream("wedge", 0)
    b = rng.standard_normal((d, d)); b -= b.T
    c = rng.standard_normal((d, d)); c -= c.T
    w = top.wedge2(b, c)
    assert np.allclose(w, wedge2_oracle(b, c))
    assert np.allclose(w, 6.0 * top.alt(np.einsum("xy,zu->xyzu", b, c)))
    assert np.allclose(w, top.wedge2(c, b))


def test_odot_symmetry():
    b, c = rand((8, 8), 1), rand((8, 8), 2)
    assert np.allclose(top.odot(b, c), top.odot(c, b))
    assert np.allclose(top.odot(b, -b), -top.odot(b, b))


def test_psi_vartheta_normalization():
    # the wedge convention is pinned by these two identities
    assert np.allclose(top.psi(M2.g, M2.g), 2.0 * M2.pi1)
    assert np.allclose(dec.vartheta(M2, M2.g, M2.g), 4.0 * M2.pi2)


def test_omega_wedge_term_of_fundamental_form():
    w = M2.omegas
    assert np.array_equal(top.wedge2(w[:1], w[:1]).sum(0), top.wedge2(w[0], w[0]))
    assert np.array_equal(top.wedge2(w, w).sum(0),
                          sum(top.wedge2(w[a], w[a]) for a in range(3)))


def test_phi_and_psi_match_their_definitions():
    b, c = rand((8, 8), 5), rand((8, 8), 6)
    phi = 6.0 * top.odot(b, c) - top.wedge2(b, c)
    assert np.max(np.abs(top.phi(b, c) - phi)) < 1e-15 * np.max(np.abs(phi))
    psi = (np.einsum("xz,yu->xyzu", b, c) - np.einsum("xu,yz->xyzu", b, c)
           + np.einsum("xz,yu->xyzu", c, b) - np.einsum("xu,yz->xyzu", c, b))
    assert np.array_equal(top.psi(b, c), psi)


@pytest.mark.parametrize("product", [top.odot, top.wedge2, top.phi, top.psi])
def test_products_act_on_stacks(product):
    """Leading axes broadcast, and each slice of a stacked product is the
    product of the slices, bit for bit."""
    b, c = rand((3, 8, 8), 3), rand((2, 1, 8, 8), 4)
    out = product(b, c)
    assert out.shape == (2, 3) + (8,) * 4
    for i, j in itertools.product(range(2), range(3)):
        assert np.array_equal(out[i, j], product(b[j], c[i, 0]))


# --- batched contraction -----------------------------------------------------

@pytest.mark.parametrize("spec", ["xmi,imy->xy", "iwy,wxi->xy", "xmy,m->xy",
                                  "w,wxy->xy", "ipxq,api->axq", "xac,ycb->xyab",
                                  "axy,azu->xyzu"])
def test_contract_matches_einsum_over_leading_axes(spec):
    """Each operand is tried with and without two leading axes; the result
    equals the einsum with those axes leading."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    size = {c: 3 if c == "a" else 8 for c in sa + sb}
    for la, lb in ((), ()), ((2, 5), ()), ((), (2, 5)), ((2, 5), (2, 5)):
        a = rand(la + tuple(size[c] for c in sa), (spec, 0, la))
        b = rand(lb + tuple(size[c] for c in sb), (spec, 1, lb))
        want = np.einsum(f"...{sa},...{sb}->...{out}", a, b)
        got = top.contract(spec, a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_alt_is_projection_with_correct_signs():
    T = rand((6, 6, 6), 12)
    a = top.alt(T)
    assert np.allclose(top.alt(a), a)
    assert np.allclose(a, -a.swapaxes(0, 1))
    assert np.allclose(a, -a.swapaxes(1, 2))


@pytest.mark.parametrize("shape", [(8, 8), (8,) * 3, (12,) * 3, (8,) * 4, (12,) * 4])
def test_alt_matches_signed_sum_bitwise(shape):
    """The in-place signed accumulation equals sum_p sign(p) T^p / r! bit for
    bit (the torsion bank's SVD inputs pass through alt).  Each sign is the
    determinant of the permutation matrix, not the package's parity rule."""
    T = rand(shape, 14)
    expect = np.zeros_like(T)
    for perm in itertools.permutations(range(T.ndim)):
        sign = round(np.linalg.det(np.eye(T.ndim)[list(perm)]))
        expect += sign * T.transpose(perm)
    assert np.array_equal(top.alt(T), expect / math.factorial(T.ndim))


def test_alt_over_axes_of_a_stack_is_bitwise_per_tensor():
    T = rand((4, 8, 8, 8), 15)
    stacked = top.alt(T, (-3, -2, -1))
    for t, got in zip(T, stacked):
        assert np.array_equal(top.alt(t), got)


def test_sigma_perm():
    R = rand((8,) * 4, 13)
    S = top.sigma_perm(R)
    assert S[2, 5, 1, 7] == R[1, 2, 5, 7]
    assert np.allclose(top.sigma_perm(top.sigma_perm(S)), R)
    # on a stack it permutes the last four axes of each tensor
    assert np.array_equal(top.sigma_perm(np.stack([R, S]))[1], top.sigma_perm(S))

