"""Realized torsion states: the states of an actual geometry, as the
solutions of one linear system.

Let nabla~ be the minimal connection, which preserves the Sp(n)Sp(1)
structure, and nabla the Levi-Civita connection, so that xi = nabla~ - nabla.
Their curvatures are related by

    R = R~ - [(nabla~_X xi)_Y - (nabla~_Y xi)_X + xi_{xi_X Y - xi_Y X}] + [xi_X, xi_Y],

where R~, the curvature of nabla~, is a 2-form with values in
sp(n) + sp(1).  At a point of a geometry, (xi, nabla~xi, R~) make R an
algebraic curvature tensor: R is skew in each slot pair by construction,
and it satisfies the first Bianchi identity, which then gives the pair
symmetry too.  For a given xi the Bianchi identity is linear in
(nabla~xi, R~).  Its rows x < y < z of b(R)(x, y, z, u) suffice (b(R) is a
3-form in its first slots once the skew symmetries hold), and the system
has full row rank, so a normal-equation solve needs no rank cut.  A
realized state is the minimum-norm solution plus a seeded kernel part,
with gamma_A = 2 c_A for c_A the coefficient of A in R~.

Conventions, as in :mod:`qhcurv.curvature_from_torsion`:
t[x, m, z] = <e_m, xi_{e_x} e_z>, D[w, x, m, z] = <e_m, (nabla~_w xi)_x e_z>,
and R[x, y, z, u] = <e_z, R(e_x, e_y) e_u>.  Every formula of the package
must equal the matching projection of this R (acceptance criterion 13).
This module evaluates none of those formulas: it reads only the model, the
rows of the torsion bank, the torsion-space projection, sp(n) and the pair
scheme.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from qhcurv import curvature_from_torsion as cft
from qhcurv import curvature_space as cs
from qhcurv.model_space import sp_generators
from qhcurv.torsion import project_to_torsion_space


@dataclass
class Realized:
    """A realized state, its curvature tensor R and the relative residual
    |A x - b| / |b| of the solve that made it."""

    state: cft.TorsionState
    R: np.ndarray
    solve_residual: float


def _triples(d: int) -> np.ndarray:
    """The index triples x < y < z, as three rows."""
    return np.array(list(itertools.combinations(range(d), 3))).T


def _algebra(m) -> np.ndarray:
    """sp(n), then I, J and K: a basis of sp(n) + sp(1), the Lie algebra of
    Sp(n)Sp(1)."""
    return np.concatenate([sp_generators(m.n), m.omegas])


def _pair_forms(ps) -> np.ndarray:
    """e_a ^ e_b = E_ab - E_ba for every pair a < b of the pair scheme."""
    F = np.zeros((ps.m, ps.dim, ps.dim))
    F[np.arange(ps.m), ps.first, ps.second], F[np.arange(ps.m), ps.second, ps.first] = 1.0, -1.0
    return F


def r_tilde(m, c: np.ndarray) -> np.ndarray:
    """R~ = sum_(p, alpha) c[p, alpha] F_p (x) G_alpha, over any leading
    axes of c, with F_p = e_a ^ e_b and G_alpha running over sp(n), I, J, K."""
    return np.einsum("pxy,...pa,azu->...xyzu", _pair_forms(cs.pair_scheme(m.dim)), c, _algebra(m),
                     optimize=True)


def bianchi_rows(R: np.ndarray) -> np.ndarray:
    """b(R)(x, y, z, u) = R(x,y,z,u) + R(y,z,x,u) + R(z,x,y,u) on the rows
    x < y < z, flattened with u last; R may carry leading axes."""
    b = R + np.moveaxis(R, -2, -4) + np.moveaxis(R, -4, -2)
    x, y, z = _triples(R.shape[-1])
    return b[..., x, y, z, :].reshape(R.shape[:-4] + (-1,))


def r_tilde_block(m) -> np.ndarray:
    """The Bianchi rows of R~ = sum_(p, alpha) c[p, alpha] F_p (x) G_alpha,
    one column per (pair, algebra element): F[x,y] G[z,u] + F[y,z] G[x,u]
    + F[z,x] G[y,u], and F_p(z, x) = -F_p(x, z).  It does not depend on the
    state."""
    d, G, ps = m.dim, _algebra(m), cs.pair_scheme(m.dim)
    x, y, z = _triples(d)
    rows = np.arange(x.size)
    block = np.zeros((x.size, d, ps.m, len(G)))
    for p, q, r, sign in ((x, y, z, 1.0), (y, z, x, 1.0), (x, z, y, -1.0)):
        block[rows, :, ps.pair_index[p, q], :] += sign * G[:, r, :].transpose(1, 2, 0)
    return block.reshape(x.size * d, -1)


def _derivative_block(m, T: np.ndarray) -> np.ndarray:
    """The Bianchi rows of -D(X; Y) + D(Y; X), D = sum_(w, k) C[w, k]
    e_w (x) T_k, one column per (w, k): -(S_k(y,z,u) [w = x] + S_k(z,x,u)
    [w = y] + S_k(x,y,u) [w = z]) with S_k(a,b,u) = T_k(a,b,u) - T_k(b,a,u)."""
    d, r = m.dim, T.shape[0]
    S = T - T.swapaxes(1, 2)
    x, y, z = _triples(d)
    rows = np.arange(x.size)
    block = np.zeros((x.size, d, d, r))
    for w, p, q in ((x, y, z), (y, z, x), (z, x, y)):
        block[rows, :, w, :] -= S[:, p, q, :].transpose(1, 2, 0)
    return block.reshape(x.size * d, d * r)


def xi_part(t: np.ndarray) -> np.ndarray:
    """[xi_X, xi_Y] - xi_{xi_X Y - xi_Y X} as R[x, y, z, u]."""
    comm = np.einsum("xzm,ymu->xyzu", t, t)
    skew = t - t.swapaxes(0, 2)                     # skew[x, p, y] = (xi_X Y - xi_Y X)_p
    return comm - comm.swapaxes(0, 1) - np.einsum("xpy,pzu->xyzu", skew, t)


def realization_matrix(m, tbank) -> np.ndarray:
    """A: the Bianchi rows of R as a linear map of [C; c], with nabla~xi =
    C (d x r) on the torsion rows of ``tbank`` and R~ = c on the pair forms
    times sp(n) + sp(1).  The same for every xi: b(R) = A [C; c] +
    b(xi_part(t))."""
    T = tbank.rows[0].reshape((-1,) + (m.dim,) * 3)
    return np.hstack([_derivative_block(m, T), r_tilde_block(m)])


def realized_states(m, tbank, count: int = 3) -> list:
    """``count`` realized states, the k-th over xi = a seeded Gaussian
    tensor projected to the torsion space: the minimum-norm solution of
    A [C; c] = -b(xi_part(xi)) plus the kernel part of a seeded vector
    Z = [G T^T; z], all of them from one solve with the normal matrix
    A A^T.  G is a Gaussian d x d^3 matrix, an ambient nabla~xi read in the
    torsion rows T, and z is Gaussian.  Neither draw reads T as a
    coordinate system, so the states do not depend on the basis of the
    torsion space."""
    d, T = m.dim, tbank.rows[0]
    A = realization_matrix(m, tbank)
    ts = np.stack([project_to_torsion_space(
        m, cs.substream("realized-xi", m.n, k).standard_normal((d,) * 3)) for k in range(count)])
    rhs = -bianchi_rows(np.stack([xi_part(t) for t in ts]))
    rngs = [cs.substream("realized", m.n, k) for k in range(count)]
    Z = np.stack([np.concatenate([(rng.standard_normal((d, T.shape[1])) @ T.T).ravel(),
                                  rng.standard_normal(A.shape[1] - d * T.shape[0])])
                  for rng in rngs])
    W = np.linalg.solve(A @ A.T, np.concatenate([rhs, Z @ A.T]).T).T
    sols = W[:count] @ A + Z - W[count:] @ A
    residuals = np.linalg.norm(sols @ A.T - rhs, axis=1) / np.linalg.norm(rhs, axis=1)
    F, out = _pair_forms(cs.pair_scheme(d)), []
    for t, sol, residual in zip(ts, sols, residuals):
        C, c = sol[:d * T.shape[0]].reshape(d, -1), sol[d * T.shape[0]:].reshape(F.shape[0], -1)
        D = (C @ T).reshape((d,) * 4)
        R = r_tilde(m, c) - D + D.swapaxes(0, 1) + xi_part(t)
        gammas = 2.0 * np.einsum("pxy,pa->axy", F, c[:, -3:])
        out.append(Realized(cft.TorsionState.make(m, t=t, D=D, gammas=gammas), R, float(residual)))
    return out
