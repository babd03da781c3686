"""The space R of algebraic curvature tensors and its equivariant operators.

A rank-4 tensor belongs to R when it is antisymmetric in slots (1,2) and
(3,4), symmetric under pair exchange, and satisfies the first Bianchi
identity (equivalently, its fully antisymmetric part vanishes: R is the
kernel of the wedging map S^2(Lambda^2 V*) -> Lambda^4 V*).

This module provides membership certification (the pair symmetries and
the cyclic Bianchi sum), orthogonal projection onto R, seeded random
sampling, the equivariant endomorphisms L, L_sigma and the Sp(n) Casimir
whose joint spectrum separates the fifteen components, the projection
pi_1 = pi_1es - pi_1s whose kernel in R is the quaternionic-Kaehler space,
the Ricci-type contractions, the probe tensors realizing the
L-eigenvalues, and the bilinear-form projectors on S^2 V* and Lambda^2 V*
(the Lambda^2_0 E S^2 H one is a cached matrix,
:func:`L20ES2H_projector`).

Coordinates: tensors with the two pair antisymmetries are stored, when
linear algebra over subspaces is needed, as matrices over the m = C(4n, 2)
increasing index pairs, flattened and scaled so that the Euclidean inner
product of coordinate vectors equals the raw rank-4 contraction.  In these
coordinates R has a closed-form orthonormal basis, and L is the Sp(1)
Casimir 6 + (1/2) sum_A rho(A)^2 with rho(A) C = D_A C + C D_A^T.  On R,
L_sigma = 3 M - L with M = sum_A (A_(1)A_(2) + A_(3)A_(4)); this does not
hold off R.  A coordinate's sign class is its character under the
diagonal sign matrices of Sp(n)Sp(1): the line flips and conjugation by i
and j (:func:`sign_classes`).  L, L_sigma and the Sp(n) Casimir Cas all
keep each class, and every closed-form row of R lies in one, so
:func:`curvature_basis` builds the basis class by class, each class's rows
restricted to its own coordinates.  :func:`h_terms` gives
H = (n + 2)(3 L + L_sigma) + Cas on R as one sum of Kronecker products of
m x m matrices, one term per distinct pair, each factor given by its
nonzero entries, and :func:`_kron_block` forms such a sum on a set of
pair coordinates it keeps, such as a class.  The tensor-level
:func:`L_map`, :func:`L_sigma_map` and :func:`Cas_map` stay independent
oracles, on a stack of rank-4 tensors and not through pair coordinates:
each is one :func:`_pair_sum`, Q M + M Q^T over the three ways to pair
the four slots into the rows and columns of a d^2 x d^2 matrix M, with Q
the :func:`.tensor_ops.pair_matrix` of the omega_A or of sp(n).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import tensor_ops as top
from .model_space import ModelSpace, build_model, sp_generators

#: Relative certification threshold for curvature symmetries.
CERT_TOL = 1e-10


class CertificationError(ValueError):
    """Raised when a tensor fails the curvature symmetry checks."""


# ---------------------------------------------------------------------------
# Membership and projection.

#: The four conditions of R, in the order :meth:`CurvatureTensor.certify`
#: checks them: (name, residual), a function of R / 2^e and its norm
#: (:func:`.tensor_ops.binary_scaled`), relative to it.  The Bianchi
#: residual is |b(R)| / 3 with b the first Bianchi sum over slots 1, 2, 3.
#: Its 3-cycles are even, so alt(b(R)) = 3 alt(R) and |b(R)| / 3 >= |alt(R)|
#: for every rank-4 tensor; once the pair symmetries hold, b(R) = 3 alt(R)
#: is a 4-form and the two are equal.
CURVATURE_CONDITIONS = (
    ("antisym_12", lambda R, scale: top.frob(R + R.swapaxes(0, 1)) / scale),
    ("antisym_34", lambda R, scale: top.frob(R + R.swapaxes(2, 3)) / scale),
    ("pair_exchange", lambda R, scale: top.frob(R - R.transpose(2, 3, 0, 1)) / scale),
    ("bianchi", lambda R, scale: top.frob(top.cyclic3(R)) / (3.0 * scale)),
)


def curvature_residuals(R: np.ndarray) -> dict:
    """Relative residuals of the four curvature conditions
    (:data:`CURVATURE_CONDITIONS`), all of them, in their order."""
    with top.binary_scaled(R) as s:
        return {name: residual(s.unit, s.norm) for name, residual in CURVATURE_CONDITIONS}


@dataclass
class CurvatureTensor:
    """A rank-4 tensor that passed :meth:`certify`: it lies in R to
    CERT_TOL.  Functions that read curvature take it or a raw array alike."""

    tensor: np.ndarray

    @classmethod
    def certify(cls, R: np.ndarray) -> "CurvatureTensor":
        """Certify R, checking :data:`CURVATURE_CONDITIONS` in order.

        Raises CertificationError at the first condition whose residual is
        not <= CERT_TOL (NaN included), naming it and its residual; accepts
        exactly when every value of :func:`curvature_residuals` is <= CERT_TOL.
        """
        with top.binary_scaled(R) as s:
            for name, residual in CURVATURE_CONDITIONS:
                value = residual(s.unit, s.norm)
                if not value <= CERT_TOL:
                    raise CertificationError(
                        f"curvature condition {name} failed: residual {value:.3e} "
                        f"not <= tol {CERT_TOL:g}")
        return cls(tensor=np.asarray(R, dtype=float))


def project_to_R(S: np.ndarray) -> CurvatureTensor:
    """Orthogonal projection of S in S^2(Lambda^2 V*) onto R, certified.

    Inside S^2(Lambda^2 V*) the orthogonal complement of R is Lambda^4 V*,
    so the projection simply subtracts the total antisymmetrization, a
    4-form: an S lacking a pair symmetry keeps that defect, and fails it.
    """
    return CurvatureTensor.certify(S - top.alt(S))


def substream(*key_parts) -> np.random.Generator:
    """Deterministic counter-based substream keyed by an arbitrary path.

    Philox is splittable: distinct keys give statistically independent
    streams, so sampling is independent of evaluation order.  numpy 2
    imports ``numpy.random`` on its first use, and this is usually a
    process's first use, so the first call, and with it the first
    ``tables.run_tables``, pays that import (about 5-15 ms by ``python -X
    importtime`` on a 2-core machine).  Importing it earlier would only
    move the cost.
    """
    digest = hashlib.blake2b(repr(key_parts).encode(), digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_curvature(m: ModelSpace, seed) -> CurvatureTensor:
    """Seeded random element of R: symmetrized Gaussian noise projected to R."""
    rng = substream("random_curvature", seed)
    d = m.dim
    raw = rng.standard_normal((d, d, d, d))
    raw = raw - raw.swapaxes(0, 1)
    raw = raw - raw.swapaxes(2, 3)
    raw = raw + raw.transpose(2, 3, 0, 1)
    return project_to_R(raw)


# ---------------------------------------------------------------------------
# The equivariant endomorphisms L, L_sigma and Cas.

def _pair_sum(Q: np.ndarray, R12: np.ndarray, R13: np.ndarray, R14: np.ndarray) -> np.ndarray:
    """sum_{i<j} P_(ij), P_(ij) = sum_X X_(i) X_(j) for Q the
    :func:`.tensor_ops.pair_matrix` of the X, on the last four axes (leading
    axes index a stack): P_(12) + P_(34) on R12, P_(13) + P_(24) on R13 and
    P_(14) + P_(23) on R14.  With slots (1 k | i j) as the rows and columns
    of a d^2 x d^2 matrix M, P_(1k) + P_(ij) is Q M + M Q^T."""
    d = R12.shape[-1]

    def grouped(T, k):      # slot k moved next to slot 1, and back
        M = np.moveaxis(T, k, -3).reshape(T.shape[:-4] + (d * d, d * d))
        return np.moveaxis((Q @ M + M @ Q.T).reshape(T.shape), -3, k)
    return grouped(R12, -3) + grouped(R13, -2) + grouped(R14, -1)


def L_map(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """L(R) = sum over slot pairs i < j and A of A_(i) A_(j) R, on the last
    four axes of R (leading axes index a stack)."""
    return _pair_sum(top.pair_matrix(m.omegas), R, R, R)


def L_sigma_map(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """L_sigma(R) = sum_A (A1A2 + A2A3 s + A1A3 s^2 + A3A4 + A1A4 s + A2A4 s^2) R
    on the last four axes of R (leading axes index a stack), with s the cyclic
    permutation s R(x,y,z,u) = R(z,x,y,u), applied before the slot actions."""
    s1 = top.sigma_perm(R)
    return _pair_sum(top.pair_matrix(m.omegas), R, top.sigma_perm(s1), s1)


def Cas_map(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """The Sp(n) Casimir Cas R = -sum_X rho(X)^2 R over the orthonormal
    basis X of sp(n), rho(X) the sum of the four slot actions, on the last
    four axes of R (leading axes index a stack): as sum_X X^2 = -c 1 on V,
    c = (2n + 1)/4, Cas R = 4c R - 2 sum_{i<j} P_(ij) R."""
    return (2.0 * m.n + 1.0) * R - 2.0 * _pair_sum(top.pair_matrix(sp_generators(m.n)), R, R, R)


# ---------------------------------------------------------------------------
# The projections pi_1 = pi_1es - pi_1s, with
#
#     4 pi_1es(a) = 3a - sum_A A_(3) A_(4) a,
#     pi_1s(a)(X,Y,Z,U) = (1/4n) sum_A a(X,Y,Ae_i,e_i) omega_A(Z,U).
#
# The quaternionic-Kaehler space is the kernel of pi_1 in R.  (The pairing
# inside pi_1s is the raw contraction; with the 1/p!-normalized pairing
# pi_1s would fail to be a projection and pi_1 would not kill pi2 + 2 pi1.)
# Both act on the last two axes of a tensor, flattened, so leading axes
# index a stack.

def pi1es_operator(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """pi_1es on the last two axes of R: one product with ``m.pi1es_34``."""
    return (R.reshape(R.shape[:-2] + (-1,)) @ m.pi1es_34).reshape(R.shape)


def pi1s_operator(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """pi_1s on the last two axes of R: with W the omega_A flattened, the
    coefficients R W^T, then their omega parts R W^T W / 4n."""
    W = m.omegas.reshape(3, -1)
    R2 = R.reshape(R.shape[:-2] + (-1,))
    return ((R2 @ W.T) @ W / (4.0 * m.n)).reshape(R.shape)


def pi1_operator(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """pi_1 = pi_1es - pi_1s on the last two axes of R."""
    return pi1es_operator(m, R) - pi1s_operator(m, R)


# ---------------------------------------------------------------------------
# Ricci-type contractions.

def ricci(R: np.ndarray) -> np.ndarray:
    """Ric(R)(x, y) = R(x, e_i, y, e_i)."""
    return np.einsum("xiyi->xy", R)


def ricci_star(R: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Ric*_A(R)(x, y) = R(x, e_i, A y, A e_i)."""
    return np.einsum("xipq,py,qi->xy", R, A, A)


def ricci_q(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """Ric^q = sum_A Ric*_A."""
    return sum(ricci_star(R, A) for A in m.omegas)


# ---------------------------------------------------------------------------
# Probe tensors with known L-eigenvalues (-6, 6, 2).

def _one_form_c(m: ModelSpace, a: np.ndarray, which: str) -> np.ndarray:
    """Complex one-forms restricting the E*-H* generators to V.

    ``which`` selects the H*-factor: 'h' gives J a - i K a and 'ht' gives
    a + i I a, with (A a)(x) = -a(A x) realized as the matrix-vector product
    A @ a for skew orthogonal A.
    """
    I, J, K = m.omegas
    if which == "h":
        return J @ a - 1j * (K @ a)
    if which == "ht":
        return a + 1j * (I @ a)
    raise ValueError(which)


def probe_tensors(m: ModelSpace, a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three real probe tensors built from four one-forms.

    Phi1 (L-eigenvalue -6) is the real part of the product of the four
    'ht'-type complex one-forms; Phi2 (eigenvalue 6) and Phi3 (eigenvalue 2)
    are the real parts of the corresponding symplectic combinations of
    'h'/'ht' factors.
    """
    forms = [np.asarray(v, dtype=float) for v in (a, b, c, d)]
    h = [_one_form_c(m, v, "h") for v in forms]
    ht = [_one_form_c(m, v, "ht") for v in forms]

    def prod(f0, f1, f2, f3):
        return np.einsum("x,y,z,u->xyzu", f0, f1, f2, f3)

    phi1 = np.real(prod(ht[0], ht[1], ht[2], ht[3]))
    phi2 = np.real(prod(h[0], ht[1], h[2], ht[3])
                   - prod(h[0], ht[1], ht[2], h[3])
                   - prod(ht[0], h[1], h[2], ht[3])
                   + prod(ht[0], h[1], ht[2], h[3]))
    phi3 = np.real(prod(h[0], h[1], ht[2], ht[3])
                   - prod(ht[0], ht[1], h[2], h[3]))
    return phi1, phi2, phi3


# ---------------------------------------------------------------------------
# Bilinear-form projectors.
#
# S^2 V*      = R g + Lambda^2_0 E + S^2 E S^2 H      (symmetric forms)
# Lambda^2 V* = S^2 E + S^2 H + Lambda^2_0 E S^2 H    (2-forms)
#
# where the S^2E-type pieces satisfy A b = b for all A, the others
# sum_A A b = -b; S^2 H is the span of the omega_A.  The full action of
# all three A on the last two axes, sum_A b(A., A.), is one substitution
# of ``m.omegas`` summed over A in order, exact as every A is a signed
# permutation.  Every projector acts on the last two axes, so a stack of
# forms is projected in one call.


# The six bilinear-form projectors.  Each starts by projecting onto the
# symmetric (resp. antisymmetric) part, so they are genuine orthogonal
# projectors on arbitrary bilinear forms; the curvature-from-torsion
# formulas feed them free-state values whose symmetry is not guaranteed.

def proj_sym_R(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Trace part: (tr b / 4n) g."""
    return (np.trace(b, axis1=-2, axis2=-1) / m.dim)[..., None, None] * m.g


def proj_sym_S2ES2H(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """S^2 E S^2 H part (symmetric, eigenvalue -1 of sum_A A): (3 s +
    sum_A A s A) / 4 of the symmetric part s, which is pi_1es on the last
    two axes."""
    return pi1es_operator(m, top.sym2(b))


def proj_sym_L20E(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Lambda^2_0 E part (symmetric, A-invariant, trace-free)."""
    s = top.sym2(b)
    return s - proj_sym_R(m, s) - proj_sym_S2ES2H(m, s)


def proj_form_S2E(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """S^2 E part of a 2-form (A b = b for all A)."""
    a = top.asym2(b)
    return (a + top.substitute(m.omegas, (-2, -1), a).sum(0)) / 4.0


def proj_form_S2H(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Component in span{omega_I, omega_J, omega_K}: pi_1s of the
    antisymmetric part."""
    return pi1s_operator(m, top.asym2(b))


def _L20ES2H_stepwise(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Lambda^2_0 E S^2 H part of 2-forms, step by step: the builder of
    :func:`L20ES2H_projector`.

    The S^2E part is removed first, then the omega parts one at a time,
    each coefficient one matvec read after the previous omega part is
    removed.  The torsion bank's SVDs see P2's bits (I (x) P2 spans the
    torsion space), so this order is pinned: reading all three
    coefficients in one product changes the last bits at n = 3.
    """
    a = top.asym2(b)
    a = a - proj_form_S2E(m, a)
    flat = a.reshape(-1, m.dim ** 2)
    for w in m.omegas.reshape(3, -1):
        flat = flat - (flat @ w / (4.0 * m.n))[:, None] * w
    return flat.reshape(a.shape)


@functools.lru_cache(maxsize=None)
def L20ES2H_projector(n: int) -> np.ndarray:
    """P2, the d^2 x d^2 matrix of the Lambda^2_0 E S^2 H projector on
    flattened bilinear forms: row k is the image of the k-th unit form.
    Built once per n by :func:`_L20ES2H_stepwise`, on the model of n (a
    model is fixed by n), and returned read-only; it is an orthogonal
    projector, so symmetric and idempotent."""
    m = build_model(n)
    d2 = m.dim ** 2
    P2 = _L20ES2H_stepwise(m, np.eye(d2).reshape(d2, m.dim, m.dim)).reshape(d2, d2)
    P2.setflags(write=False)
    return P2


def proj_form_L20ES2H(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Lambda^2_0 E S^2 H part of a 2-form, on the last two axes: one
    product with the cached :func:`L20ES2H_projector`, so a stack of forms
    (such as the first-slot slices of a torsion tensor) projects in one
    call.  P2's builder holds the order of operations whose bits the
    torsion bank's SVDs see.  Raises ValueError unless the last two axes
    are (dim, dim)."""
    d = m.dim
    if b.shape[-2:] != (d, d):
        raise ValueError(f"2-forms must have shape (..., {d}, {d}), got {b.shape}")
    return (b.reshape(-1, d * d) @ L20ES2H_projector(m.n)).reshape(b.shape)


def form_basis(dim: int) -> np.ndarray:
    """Spanning stack of antisymmetric matrices: e_ij - e_ji (i < j)."""
    i, j = np.triu_indices(dim, 1)
    out = np.zeros((len(i), dim, dim))
    k = np.arange(len(i))
    out[k, i, j], out[k, j, i] = 1.0, -1.0
    return out


def bilinear_component_basis(m: ModelSpace, name: str) -> np.ndarray:
    """Orthonormal basis (rows of flattened matrices, Frobenius metric) of a
    bilinear-form component; names: R, L20E, S2ES2H (symmetric side) and
    S2E, S2H, L20ES2H (2-form side).  The d^2 x d^2 matrix of the
    component's images of the unit forms is an orthogonal projector, so one
    gated ``eigh`` of it, against the eigenvalues 0 and 1, gives the basis."""
    proj = {
        "R": proj_sym_R, "L20E": proj_sym_L20E, "S2ES2H": proj_sym_S2ES2H,
        "S2E": proj_form_S2E, "S2H": proj_form_S2H, "L20ES2H": proj_form_L20ES2H,
    }[name]
    d2 = m.dim ** 2
    P = proj(m, np.eye(d2).reshape(d2, m.dim, m.dim)).reshape(d2, d2)
    return _eigenspaces(P, (0, 1), f"bilinear-form component {name}")[1.0].T


# ---------------------------------------------------------------------------
# Pair coordinates for tensors antisymmetric in (1,2) and (3,4).

@dataclass(frozen=True)
class PairScheme:
    """Index bookkeeping for the m = C(dim,2) increasing pairs."""

    dim: int
    first: np.ndarray
    second: np.ndarray
    pair_index: np.ndarray  # (dim, dim) -> pair id (diagonal: 0, masked by sign)
    sign: np.ndarray        # (dim, dim): +1 for i<j, -1 for i>j, 0 diagonal

    @property
    def m(self) -> int:
        return len(self.first)

    @property
    def flat_index(self) -> np.ndarray:
        """x dim + y for each pair (x, y): where the pair sits among the
        flattened last two axes of a tensor."""
        return self.first * self.dim + self.second


def pair_scheme(dim: int) -> PairScheme:
    first, second = np.triu_indices(dim, 1)
    pair_index = np.zeros((dim, dim), dtype=int)
    pair_index[first, second] = pair_index[second, first] = np.arange(len(first))
    i, j = np.indices((dim, dim), dtype=float)
    return PairScheme(dim=dim, first=first, second=second,
                      pair_index=pair_index, sign=np.sign(j - i))


def to_pair_coords(ps: PairScheme, T: np.ndarray) -> np.ndarray:
    """Flattened pair-matrix coordinates, scaled so the Euclidean inner
    product of coordinate vectors equals the raw rank-4 contraction.  Leading
    axes of T stay leading axes of the result."""
    k = ps.flat_index
    C = T.reshape(T.shape[:-4] + (ps.dim ** 2,) * 2)[..., k[:, None], k[None, :]]
    return 2.0 * C.reshape(C.shape[:-2] + (-1,))


def from_pair_coords(ps: PairScheme, v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_pair_coords`.  Leading axes of v stay leading
    axes of the result."""
    C = v.reshape(v.shape[:-1] + (ps.m, ps.m)) / 2.0
    T = C[..., ps.pair_index[:, :, None, None], ps.pair_index[None, None, :, :]]
    return T * ps.sign[:, :, None, None] * ps.sign[None, None, :, :]


# ---------------------------------------------------------------------------
# Rank decisions: a gated eigh against closed-form eigenvalues, the one rule
# outside the torsion bank.

#: Largest distance allowed between a computed eigenvalue and the expected
#: one; a build that needs more raises instead of guessing.
EIG_TOL = 1e-8


def _eigenspaces(H: np.ndarray, expected, what: str) -> dict:
    """Orthonormal eigenvector columns of symmetric H, grouped by expected
    value, in the order of ``expected``.

    Every eigenvalue must lie within EIG_TOL of one expected value, else
    ArithmeticError, which ``what`` opens by naming what was split."""
    w, V = np.linalg.eigh(H)
    expected = np.asarray(expected, dtype=float)
    nearest = np.argmin(np.abs(w[:, None] - expected[None, :]), axis=1)
    off = np.abs(w - expected[nearest])
    if not np.all(off <= EIG_TOL):
        raise ArithmeticError(
            f"{what}: eigenvalue {w[np.argmax(off)]} is {np.max(off)} away from "
            f"the expected values {expected.tolist()}")
    return {float(e): V[:, nearest == k] for k, e in enumerate(expected)}


# ---------------------------------------------------------------------------
# Sign classes and the closed-form basis of R.
#
# Three kinds of diagonal sign matrix lie in Sp(n)Sp(1) in this basis:
# flipping one quaternionic line (in Sp(n)), and conjugation by i,
# diag(1, 1, -1, -1) on every line, or by j, diag(1, -1, 1, -1).  Each
# conjugation is left multiplication by a unit quaternion (in Sp(1)) times
# right multiplication by its inverse (in Sp(n)).  A diagonal sign matrix g
# multiplies a pair coordinate ((ij),(kl)) by g_i g_j g_k g_l, so L, L_sigma
# and Cas, which commute with Sp(n)Sp(1), keep each sign class of
# coordinates (one character of the group the n + 2 generate), and every
# closed-form row of R lies inside one class (its entries share one index
# set): on R all three are block-diagonal over the classes, 8 blocks at
# n = 2, 16 at n = 3.

def sign_generators(n: int) -> np.ndarray:
    """(n + 2, 4n): the diagonals (+-1) of the generators of the sign group,
    the flip of each quaternionic line, then conjugation by i and by j."""
    idx = np.arange(4 * n)
    odd = np.vstack([np.eye(n, dtype=bool)[idx // 4].T, idx % 4 >= 2, idx % 2 == 1])
    return np.where(odd, -1.0, 1.0)


def sign_classes(m: ModelSpace, ps: PairScheme) -> tuple[np.ndarray, tuple]:
    """(characters, classes): the distinct characters of the m * m pair
    coordinates under :func:`sign_generators`, one 0/1 row per class (1
    where that generator acts by -1), sorted, so the trivial character
    comes first; and each class's pair coordinates, increasing.  The line
    part has an even number of odd lines, at most four, and conjugation by
    i and j give any of four characters: 4 (C(n, 0) + C(n, 2) + C(n, 4))
    classes, 8, 16, 32, 64 and 124 at n = 2 to 6."""
    k = m.n + 2
    weights = 1 << np.arange(k - 1, -1, -1)        # generator 0 is the leading bit
    bits = weights @ (sign_generators(m.n) < 0)    # one code per index
    pair = bits[ps.first] ^ bits[ps.second]
    codes, label = np.unique(pair[:, None] ^ pair[None, :], return_inverse=True)
    order = np.argsort(label.reshape(-1), kind="stable")
    classes = np.split(order, np.cumsum(np.bincount(label.reshape(-1)))[:-1])
    return ((codes[:, None] & weights) != 0).astype(int), tuple(classes)


def curvature_basis(m: ModelSpace, ps: PairScheme, classes: tuple) -> Iterator[np.ndarray]:
    """Orthonormal basis of R in pair coordinates, in closed form, by class.

    A symmetric pair matrix C lies in R exactly when, for every quadruple
    i<j<k<l, C[(ij),(kl)] - C[(ik),(jl)] + C[(il),(jk)] = 0.  Entries whose
    two pairs share an index are left free, so each gets one unit row
    (e_pp, or (e_pq + e_qp)/sqrt 2).  The three entries of each quadruple,
    with symmetric units s_a, s_b, s_c, get the two orthonormal rows
    (s_a + s_b)/sqrt 2 and (s_a - s_b - 2 s_c)/sqrt 6 spanning the plane
    x_a - x_b + x_c = 0.  That makes C(m+1, 2) - C(dim, 4) rows in all, in
    that order.  The c-th block yielded is dense: the rows in
    ``classes[c]``, the class-c coordinates of :func:`sign_classes`, in
    that order, written from their nonzero entries straight into the
    class's coordinates.  Blocks are made one at a time, so a reader that
    keeps none holds one.
    """
    mm = ps.m
    p, q = np.triu_indices(mm)
    shared = ((ps.first[p] == ps.first[q]) | (ps.first[p] == ps.second[q])
              | (ps.second[p] == ps.first[q]) | (ps.second[p] == ps.second[q]))
    p, q = p[shared], q[shared]
    quads = np.array(list(itertools.combinations(range(m.dim), 4)))
    i, j, k, l = quads.T
    pairs = ((ps.pair_index[i, j], ps.pair_index[k, l]),
             (ps.pair_index[i, k], ps.pair_index[j, l]),
             (ps.pair_index[i, l], ps.pair_index[j, k]))

    # (row, pair, pair, value) of every nonzero entry, then of its mirror
    n_free, n_quad, r12 = len(p), len(quads), np.sqrt(12.0)
    planes = ((0.5, 0.5, 0.0), (1.0 / r12, -1.0 / r12, -2.0 / r12))
    entries = [(np.arange(n_free), p, q, np.where(p == q, 1.0, np.sqrt(0.5)))]
    entries += [(n_free + at * n_quad + np.arange(n_quad), u, v, np.full(n_quad, w))
                for at, weights in enumerate(planes) for (u, v), w in zip(pairs, weights) if w]
    row, u, v, value = (np.concatenate(x) for x in zip(*entries))
    row, col, value = np.tile(row, 2), np.concatenate([u * mm + v, v * mm + u]), np.tile(value, 2)

    for coords in classes:
        on = np.isin(col, coords)
        rows = np.unique(row[on])
        block = np.zeros((rows.size, coords.size))
        block[np.searchsorted(rows, row[on]), np.searchsorted(coords, col[on])] = value[on]
        yield block


# ---------------------------------------------------------------------------
# The Sp(1) and Sp(n) Casimirs in pair coordinates.
#
# Let D_X be the m x m matrix of X_(1) + X_(2) on 2-forms in pair
# coordinates.  On a tensor with pair matrix C, rho(X) = sum_i X_(i) acts as
# rho(X) C = D_X C + C D_X^T, and since A_(i)^2 = -1 for A = I, J, K,
#
#     L C = 6 C + (1/2) sum_A rho(A)^2 C,
#     M C = sum_A (A_(1)A_(2) + A_(3)A_(4)) C
#         = 6 C + (1/2) sum_A (D_A^2 C + C (D_A^2)^T).
#
# On R (and only there) L_sigma = 3 M - L.  For the orthonormal basis X of
# sp(n) (:func:`.model_space.sp_generators`) D_X is skew, and the Casimir
# Cas = -sum_X rho(X)^2 is Cas C = S C + C S - 2 sum_X D_X C D_X^T with
# S = -sum_X D_X^2.  On the flattened coordinate P * m + Q these are sums of
# Kronecker products (D^2 x 1, 1 x D^2, D x D):
#
#     L = 6 + half + cross,   L_sigma = 12 + 2 half - cross   (on R),
#     half = (1/2) sum_A (D_A^2 x 1 + 1 x D_A^2),   cross = sum_A D_A x D_A,
#
# and :func:`h_terms` collects the one weighted sum H of all three that the
# bank splits.  D_A keeps the line counts of a pair, so L keeps them on
# every coordinate; a generator joining two lines moves an index between
# them, so Cas, and with it H, keeps only what every element of
# Sp(n)Sp(1) keeps, such as each sign class.

def _pair_derivations(ps: PairScheme, mats: np.ndarray) -> np.ndarray:
    """D_X for each X in the stack ``mats``: the matrix of X_(1) + X_(2) on
    2-forms in pair coordinates."""
    units = form_basis(ps.dim)      # unit p at (first[p], second[p]): pair order
    # X_(1) b + X_(2) b = -(X^T b + b X); column p is the image of unit p
    return np.stack([-(X.T @ units + units @ X)[:, ps.first, ps.second].T
                     for X in mats])


def _kron_block(ps: PairScheme, terms, coords: np.ndarray) -> np.ndarray:
    """Dense block of sum_t w_t A_t x B_t, for the ``terms`` (w_t, A_t, B_t)
    of :func:`h_terms`, each factor as its nonzero entries, on the pair
    coordinates ``coords``, which it must keep (else ValueError), summed
    from the products of those entries."""
    size = len(coords)
    at = np.full(ps.m ** 2, -1)
    at[coords] = np.arange(size)
    keys, values = [], []
    for w, (pa, qa, va), (pb, qb, vb) in terms:
        row = at[(pa[:, None] * ps.m + pb).ravel()]
        on = row >= 0
        col = at[(qa[:, None] * ps.m + qb).ravel()[on]]
        if np.any(col < 0):
            raise ValueError("the operator maps these pair coordinates outside themselves")
        keys.append(row[on] * size + col)
        values.append(w * np.outer(va, vb).ravel()[on])
    block = np.bincount(np.concatenate(keys), np.concatenate(values), minlength=size * size)
    return block.reshape(size, size)


def h_terms(m: ModelSpace, ps: PairScheme) -> list:
    """The Kronecker terms (w, A, B) of H = (n + 2)(3 L + L_sigma) + Cas,
    for :func:`_kron_block`, each factor as its nonzero entries (rows,
    cols, values) in row-major order, so a build finds them once, not once
    per block.  With k = n + 2, 3 L + L_sigma = 30 + 5 half
    + 2 cross on R, so

        H = T x 1 + 1 x T + 2k sum_A D_A x D_A - 2 sum_X D_X x D_X,
        T = 15k + (5k/2) sum_A D_A^2 + S,

    one term per distinct Kronecker pair.  Like L_sigma = 3 M - L, they
    give H on R only."""
    k = m.n + 2.0
    D = _pair_derivations(ps, m.omegas)
    DX = _pair_derivations(ps, sp_generators(m.n))
    one = np.eye(ps.m)
    # S = -sum_X D_X^2, as D_X is skew
    T = 15.0 * k * one + 2.5 * k * sum(DA @ DA for DA in D) \
        + np.tensordot(DX, DX, axes=([0, 1], [0, 1]))
    T, one = _entries(T), _entries(one)
    D, DX = map(_entries, D), map(_entries, DX)
    return ([(1.0, T, one), (1.0, one, T)] + [(2.0 * k, DA, DA) for DA in D]
            + [(-2.0, X, X) for X in DX])


def _entries(M: np.ndarray) -> tuple:
    """(rows, cols, values) of the nonzero entries of M, in row-major order."""
    p, q = np.nonzero(M)
    return p, q, M[p, q]
