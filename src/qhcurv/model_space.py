"""Quaternion-Hermitian model vector space R^{4n}.

Builds the flat model space carrying the standard Euclidean metric and a
compatible quaternionic triple I, J, K, together with the derived structure
tensors: the three fundamental 2-forms omega_A(x, y) = <x, A y>, the
two canonical curvature-type tensors pi1 = psi(g, g) / 2 (constant
curvature) and pi2 = sum_A phi(omega_A, omega_A) (quaternionic type), each
one call of a :mod:`.tensor_ops` product on the stack of the omega_A, and
the matrix of the projection pi_1es on the last two slots of a tensor.

Basis convention: coordinates are grouped into n quaternionic blocks
(e_{4a+1}, ..., e_{4a+4}) on which I, J, K act as left multiplication by
i, j, k on (1, i, j, k).  This makes K = I J hold exactly in integer
arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor_ops as top

#: Absolute tolerance used to validate structure invariants at build time.
BUILD_TOL = 1e-12
#: Largest entry of rot^T rot - 1 that :func:`adapted_basis` accepts.
ROTATION_TOL = 1e-10

# Left multiplication by i, j, k on one quaternionic block (1, i, j, k).
_LI = np.array([[0, -1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, 1, 0]], dtype=float)
_LJ = np.array([[0, 0, -1, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
                [0, -1, 0, 0]], dtype=float)
_LK = np.array([[0, 0, 0, -1],
                [0, 0, -1, 0],
                [0, 1, 0, 0],
                [1, 0, 0, 0]], dtype=float)

# Right multiplication by q = i, j, k on one block: x q = conj(-q conj(x)).
# It commutes with every left multiplication.
_CONJ = np.diag([1.0, -1.0, -1.0, -1.0])
_RI, _RJ, _RK = (-_CONJ @ L @ _CONJ for L in (_LI, _LJ, _LK))


#: The indices into (I, J, K) that follow a in the cyclic order once and
#: twice: the cyclic triple (a, b, c) with a at index j has b = NEXT[j]
#: and c = AFTER[j], so a stack over A indexed by NEXT or AFTER holds the
#: b or c of each triple.
NEXT, AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelSpace:
    """Immutable model space; safe to share read-only between workers.

    Attributes
    ----------
    n : int
        Quaternionic dimension (>= 2).
    dim : int
        Real dimension, 4 * n.
    g : (dim, dim) ndarray
        Gram matrix of the metric (identity in the chosen basis).
    I, J, K : (dim, dim) ndarray
        Orthogonal almost complex structures with I@I = J@J = -1 and
        K = I@J = -J@I.
    omegas : (3, dim, dim) ndarray
        Matrices of the 2-forms omega_A(x, y) = <x, A y> for A = I, J, K;
        numerically these coincide with the matrices I, J, K.
    pi1, pi2 : (dim,)*4 ndarray
        Canonical curvature tensors; pi1(x,y,z,u) = <x,z><y,u> - <x,u><y,z>
        = psi(g, g) / 2 and pi2 = sum_A phi(omega_A, omega_A)
        = sum_A (6 omega_A . omega_A - omega_A ^ omega_A).
    pi1es_34 : (dim**2, dim**2) ndarray
        4 pi_1es = 3 - sum_A A_(3) A_(4) on the last two slots, divided by
        4, as the matrix that multiplies them flattened: with T the last
        two axes of a tensor, pi_1es maps T to (3 T + sum_A A T A) / 4,
        that is T.reshape(..., dim**2) @ pi1es_34.  Its entries are
        multiples of 1/4.
    """

    n: int
    dim: int
    g: np.ndarray
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    omegas: np.ndarray
    pi1: np.ndarray
    pi2: np.ndarray
    pi1es_34: np.ndarray

    @property
    def triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The structure triple (I, J, K)."""
        return (self.I, self.J, self.K)

    def __repr__(self) -> str:  # keep reprs short; arrays are large
        return f"ModelSpace(n={self.n}, dim={self.dim})"


def structure_triple(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal matrices of I, J, K for quaternionic dimension n."""
    eye_n = np.eye(n)
    return tuple(np.kron(eye_n, blk) for blk in (_LI, _LJ, _LK))


@functools.lru_cache(maxsize=None)
def sp_generators(n: int) -> np.ndarray:
    """Frobenius-orthonormal basis of sp(n), the skew matrices commuting with
    I, J and K: n(2n+1) matrices of 4 or 8 nonzero entries, built once per
    n and returned read-only.

    For each line a and q in {i, j, k}: right multiplication by q on block
    a, over 2.  For each pair of lines a < b and q in {1, i, j, k}:
    E_ab x R_q - E_ba x R_q^T, over sqrt 8.
    """
    units = np.eye(n)
    out = [np.kron(np.outer(units[a], units[a]), R) / 2.0
           for a in range(n) for R in (_RI, _RJ, _RK)]
    for a, b in itertools.combinations(range(n), 2):
        E = np.outer(units[a], units[b])
        out += [(np.kron(E, R) - np.kron(E.T, R.T)) / math.sqrt(8.0)
                for R in (np.eye(4), _RI, _RJ, _RK)]
    return _freeze(np.stack(out))


def casimir_value(weight: tuple, n: int) -> float | None:
    """<lambda, lambda + 2 rho> / 4, rho = (n, ..., 1): the Casimir
    -sum_X rho(X)^2 over :func:`sp_generators` on the Sp(n) module of highest
    weight lambda; None if lambda has more than n parts."""
    if len(weight) > n:
        return None
    lam = np.pad(np.asarray(weight, dtype=float), (0, n - len(weight)))
    return float(lam @ (lam + 2.0 * np.arange(n, 0, -1))) / 4.0


def weyl_dimension(weight: tuple, n: int) -> int:
    """Complex dimension of the Sp(n) module of highest weight lambda: the
    Weyl product of <lambda + rho, a> / <rho, a> over the positive roots
    a = e_i - e_j, e_i + e_j (i < j) and 2 e_i, in integers; 0 if lambda has
    more than n parts."""
    if len(weight) > n:
        return 0
    rho = range(n, 0, -1)
    shifted = [lam + r for lam, r in zip(tuple(weight) + (0,) * n, rho)]

    def product(v):
        return math.prod(v) * math.prod((a - b) * (a + b)
                                        for a, b in itertools.combinations(v, 2))
    return product(shifted) // product(rho)


def build_model(n: int) -> ModelSpace:
    """Construct the model space for quaternionic dimension n >= 2.

    Raises
    ------
    ValueError
        If n is not an integer >= 2.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"quaternionic dimension must be an integer >= 2, got {n!r}")
    dim = 4 * n
    g = np.eye(dim)
    I, J, K = structure_triple(n)
    omegas = np.stack([I, J, K]).copy()
    # every entry is a small integer or a half, so each sum is exact
    pi2 = top.phi(omegas, omegas).sum(0)
    pi1 = 0.5 * top.psi(g, g)
    # with Q = pair_matrix(omegas), (T Q)[a, b] = sum_A,pq T[p, q] A[a, p] A[b, q]
    # = -sum_A (A T A)[a, b], as A[b, q] = -A[q, b]; every entry is 0 or +-1
    pi1es_34 = (3.0 * np.eye(dim * dim) - top.pair_matrix(omegas)) / 4.0

    m = ModelSpace(n=int(n), dim=dim, g=_freeze(g), I=_freeze(I),
                   J=_freeze(J), K=_freeze(K), omegas=_freeze(omegas),
                   pi1=_freeze(pi1), pi2=_freeze(pi2), pi1es_34=_freeze(pi1es_34))
    _check_invariants(m)
    return m


def _check_invariants(m: ModelSpace) -> None:
    """Check the structure invariants to BUILD_TOL; raise on violation."""
    I, J, K = m.triple
    eye = np.eye(m.dim)
    checks = {
        "I^2 = -1": I @ I + eye,
        "J^2 = -1": J @ J + eye,
        "K = IJ": K - I @ J,
        "K = -JI": K + J @ I,
        "I orthogonal": I.T @ I - eye,
        "J orthogonal": J.T @ J - eye,
        "K orthogonal": K.T @ K - eye,
    }
    for A, name in zip(m.triple, "IJK"):
        checks[f"omega_{name} antisymmetric"] = A + A.T
    for name, resid in checks.items():
        err = np.max(np.abs(resid))
        if err > BUILD_TOL:
            raise AssertionError(f"model-space invariant '{name}' fails: {err}")


def adapted_basis(m: ModelSpace, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotate the structure triple by ``rot`` in SO(3).

    Each returned A' = a I + b J + c K with (a, b, c) the rows of ``rot``;
    the new triple satisfies the quaternion identities.

    Raises
    ------
    ValueError
        If ``rot`` is not special orthogonal to ROTATION_TOL.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {rot.shape}")
    if not np.max(np.abs(rot.T @ rot - np.eye(3))) <= ROTATION_TOL:     # NaN fails
        raise ValueError("rotation is not orthogonal")
    if np.linalg.det(rot) < 0:
        raise ValueError("rotation reverses orientation (det < 0)")
    I, J, K = m.triple
    return tuple(r[0] * I + r[1] * J + r[2] * K for r in rot)
