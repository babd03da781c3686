"""Curvature components from intrinsic-torsion data.

A *torsion state* is a triple (xi, nabla~xi, gamma): the rank-3 torsion
tensor t[x,m,z] = <e_m, xi_{e_x} e_z>, its covariant derivative D[w,x,m,z]
= <e_m, (nabla~_{e_w} xi)_{e_x} e_z> with respect to the minimal
connection, and the three curvature 2-forms gamma_A of the structure
bundle.  Every operation in this module evaluates one of the closed
formulas expressing a curvature component, a Ricci-type component, or a
scalar in terms of such a state; on states coming from an actual geometry
these equal the corresponding components of the curvature tensor, and for
free states they define the linear/quadratic maps whose vanishing pattern
is tabulated by the contribution engine in :mod:`.tables`.

Each Ricci, q-Ricci and scalar formula is a fixed linear combination of
a few contractions of the state (the brackets <xi_X e_i, xi_{AY} A e_i>,
<(nabla~_X xi)_{e_i} Y, e_i>, ...).  Almost every quadratic one pairs xi
with a conjugate B_(1) C_(3) xi, B, C in (1, I, J, K), so each state
first builds the conjugate table of these sixteen tensors (two matmuls
each); every bracket, including each term of the gamma elimination
``s2es2h_gamma_part``, is then a two-operand contraction of table
entries (``tensor_ops.contract``, one batched matmul), and the nabla~xi
brackets are traces of nabla~xi against one A.  ``_brackets`` computes
each bracket once, and :func:`ricci_component_formulas` evaluates every
formula as a combination of its entries.  The scalar-only formulas
``pi_r_ric`` and ``pi_r_ricq`` read the scalar entries alone.

A state's arrays may carry leading axes (``TorsionState.stack``): the
bracket table, the Ricci formulas and the pi-state formulas then evaluate
the whole batch in the same calls, with the batch axes leading every
value.  The table engine evaluates one batch per source row.

The two projections

    4 pi_1es(a) = 3a - sum_A A_(3) A_(4) a
    pi_1s(a)(X,Y,Z,U) = (1/4n) sum_A a(X,Y,Ae_i,e_i) omega_A(Z,U)

are also provided as operators on rank-4 tensors; pi_1 = pi_1es - pi_1s
and the quaternionic-Kaehler space is its kernel in R.  (The pairing
inside pi_1s is the raw contraction; with the 1/p!-normalized pairing
pi_1s would fail to be a projection and pi_1 would not kill pi2 + 2 pi1.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature_space as cs
from . import decomposition as dec
from . import tensor_ops as top
from . import torsion as tor
from .model_space import ModelSpace


# ---------------------------------------------------------------------------
# States.

@dataclass
class TorsionState:
    """(xi, nabla~xi, gamma) with zero defaults for absent pieces.

    The arrays may share leading axes, making one batch of states
    (``stack``): t[..., x, m, z], D[..., w, x, m, z] and gammas[..., A, x, y].
    Every state formula below maps over those axes and puts them in front
    of its value; an unbatched state gives unbatched values.
    """

    t: np.ndarray
    D: np.ndarray
    gammas: np.ndarray

    @classmethod
    def make(cls, m: ModelSpace, t=None, D=None, gammas=None):
        """One state; absent pieces are zero."""
        d = m.dim
        return cls(
            t=np.zeros((d, d, d)) if t is None else np.asarray(t, dtype=float),
            D=np.zeros((d, d, d, d)) if D is None else np.asarray(D, dtype=float),
            gammas=np.zeros((3, d, d)) if gammas is None
            else np.asarray(gammas, dtype=float))

    @classmethod
    def stack(cls, states) -> TorsionState:
        """One batch of states, stacked along a new leading axis."""
        return cls(t=np.stack([s.t for s in states]),
                   D=np.stack([s.D for s in states]),
                   gammas=np.stack([s.gammas for s in states]))

    @classmethod
    def qk_point(cls, m: ModelSpace, c: float):
        """The quaternionic-Kaehler state: xi = 0, gamma_A = c omega_A."""
        return cls.make(m, gammas=c * m.omegas)

    def validate(self, m: ModelSpace, tol: float = 1e-10) -> None:
        """Check, for one unbatched state, that xi and all of D (every slice
        D(W; .) in one call) lie in the torsion space, and that each gamma_A
        is antisymmetric, each relative to its size; NaN fails."""
        if not tor.torsion_space_residual(m, self.t) <= tol:
            raise ValueError("xi is not a torsion tensor")
        if not tor.torsion_space_residual(m, self.D) <= tol:
            raise ValueError("nabla~xi slice outside the torsion space")
        for gam in self.gammas:
            with top.binary_scaled(gam) as s:
                if not top.frob(s.unit + s.unit.T) <= tol * s.norm:
                    raise ValueError("gamma_A must be antisymmetric")


# ---------------------------------------------------------------------------
# The conjugate table.  Every quadratic bracket of the formulas pairs xi
# with one of its conjugates B_(1) C_(3) xi, B, C in (1, I, J, K):
#
#     X[b][c][y, m, i] = sum_{p,q} B[p, y] t[p, m, q] C[q, i]
#                      = <e_m, xi_{B e_y} C e_i>,
#
# index 0 being the identity (so X[0][0] = t) and a = 1, 2, 3 the triple.
# Each bracket is then one two-operand contraction (``top.contract``, a
# batched matmul) of t or a table entry with another table entry; the
# nabla~xi brackets are traces of D, or of D against each A.  ``m.omegas``
# is the stacked triple (I, J, K) wherever all three A act at once.

def _units(m: ModelSpace) -> np.ndarray:
    """(1, I, J, K) as one stack of matrices."""
    return np.concatenate([np.eye(m.dim)[None], m.omegas])


def _conjugate_table(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """X[b][c] = B_(1) C_(3) xi for B, C in (1, I, J, K): two stacked
    substitutions, b and c on two new leading axes.  C is substituted
    last, so each entry X[b][c] is one contiguous block."""
    units = _units(m)
    return top.substitute(units, (-1,), top.substitute(units, (-3,), t)).swapaxes(0, 1)


def _gamma_trace(m: ModelSpace, gammas: np.ndarray) -> np.ndarray:
    """Gamma = sum_A <gamma_A, omega_A>, normalized 2-form pairing, over
    any leading axes of ``gammas``."""
    return 0.5 * np.einsum("...aij,aij->...", gammas, m.omegas)


def _full(a: np.ndarray, b: np.ndarray, rank: int) -> np.ndarray:
    """Full contraction of the last ``rank`` axes of a and b."""
    return (a * b).sum(axis=tuple(range(-rank, 0)))


# ---------------------------------------------------------------------------
# The bracket table: every contraction the Ricci, q-Ricci and scalar
# formulas combine, each computed once per state.

def _scalar_brackets(m: ModelSpace, state: TorsionState) -> dict:
    """The scalar brackets, with what the rank-2 brackets reuse: the
    conjugate table X, XA = sum_A X[A][A] and the vectors

    u[a][m] = <e_m, xi_{e_i} A e_i>, the trace of X[0][a] (u[0] = v).

    vv = <v, v>, s2 = <xi_{e_i} e_j, xi_{e_j} e_i>,
    phi = <(nabla~_{e_i} xi)_{e_j} e_i, e_j>, Gamma = sum_A <gamma_A, omega_A>,
    S4 = sum_A <u_A, u_A>, S5 = sum_A <xi_{e_i} e_j, xi_{A e_j} A e_i>,
    S6 = sum_A <xi_{e_i} e_j, xi_{A e_i} A e_j>.
    """
    t = state.t
    X = _conjugate_table(m, t)
    XA = X[1][1] + X[2][2] + X[3][3]
    u = [np.einsum("...imi->...m", Xc) for Xc in X[0]]
    return {
        "X": X, "XA": XA, "u": u, "vv": _full(u[0], u[0], 1),
        "s2": _full(t, t.swapaxes(-3, -1), 3),
        "phi": np.einsum("...ijji->...", state.D),
        "Gamma": _gamma_trace(m, state.gammas),
        "S4": sum(_full(uA, uA, 1) for uA in u[1:]),
        "S5": _full(t, XA.swapaxes(-3, -1), 3),
        "S6": _full(t, XA, 3),
    }


def _brackets(m: ModelSpace, state: TorsionState) -> dict:
    """The scalar brackets plus the rank-2 ones:

    N0 = 4 <(nabla~_X xi)_{e_i} Y, e_i> - 4 <(nabla~_{e_i} xi)_X Y, e_i>
         - <xi_X e_i, xi_{e_i} Y> - 3 <xi_X Y, v> - 4 <xi_{xi_{e_i} X} Y, e_i>,
    P  = sum_A <xi_X e_i, xi_{AY} A e_i>,
    Q  = sum_A (<xi_X e_i, xi_{A e_i} A Y> + <xi_X A Y, xi_{e_i} A e_i>),
    M  = sum_A (<X, xi_{u_A} A Y> + <X, (nabla~_{e_i} xi)_{A e_i} A Y>),
    W  = sum_A <xi_{e_i} X, xi_{A e_i} A Y>,
    G  = sum_A gamma_A(X, A Y),
    E  = <xi_X e_i, xi_{e_i} Y> + 3 <xi_X Y, v> + 4 (<X, xi_{xi_{e_i} Y} e_i>
         + <X, (nabla~_{e_i} xi)_Y e_i> - <X, (nabla~_Y xi)_{e_i} e_i>).

    N0 is the gamma-free Ricci bracket; E holds the extra terms of the
    skew q-Ricci formula.
    """
    t, D = state.t, state.D
    ct = top.contract
    b = _scalar_brackets(m, state)
    X, XA, u = b["X"], b["XA"], b["u"]
    xixi = ct("xmi,imy->xy", t, t) + 3.0 * ct("xmy,m->xy", t, u[0])
    b["N0"] = (4.0 * (np.einsum("...xiiy->...xy", D) - np.einsum("...ixiy->...xy", D))
               - xixi - 4.0 * ct("iwx,wiy->xy", t, t))
    b["E"] = xixi + 4.0 * (ct("iwy,wxi->xy", t, t) + np.einsum("...iyxi->...xy", D)
                           - np.einsum("...yixi->...xy", D))
    b["P"] = ct("xmi,ymi->xy", t, XA)
    b["Q"] = ct("xmi,imy->xy", t, XA) + sum(
        ct("xmy,m->xy", X[0][a], u[a]) for a in (1, 2, 3))
    b["M"] = (sum(ct("w,wxy->xy", u[a], X[0][a]) for a in (1, 2, 3))
              + (ct("ipxq,api->axq", D, m.omegas) @ m.omegas).sum(axis=-3))
    b["W"] = ct("imx,imy->xy", t, XA)
    b["G"] = (state.gammas @ m.omegas).sum(axis=-3)
    return b


# ---------------------------------------------------------------------------
# Ricci formulas on states.

def ric_star_from(m: ModelSpace, state: TorsionState, a_idx: int) -> np.ndarray:
    """Ric*_A(X,Y) = -n gamma_A(X, A Y) - <xi_X e_i, xi_{AY} A e_i>, as one
    direct contraction, independent of the bracket table."""
    A, t = m.triple[a_idx], state.t
    return (-m.n * (state.gammas[..., a_idx, :, :] @ A)
            - np.einsum("...xmi,py,...pmq,qi->...xy", t, A, t, A))


def ricq_from(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """Ric^q = sum_A Ric*_A = -n G - P."""
    b = _brackets(m, state)
    return -m.n * b["G"] - b["P"]


def ric_minus_ricq(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """3 Ric - Ric^q = N0 - 2 G + Q."""
    b = _brackets(m, state)
    return b["N0"] - 2.0 * b["G"] + b["Q"]


def ric_from(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """3 Ric = N0 - (n+2) G - P + Q (the Ric^q terms plus the difference
    terms), over 3."""
    b = _brackets(m, state)
    return (b["N0"] - (m.n + 2.0) * b["G"] - b["P"] + b["Q"]) / 3.0


# ---------------------------------------------------------------------------
# The pi projections: operators on rank-4 tensors.

def pi1es_operator(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """4 pi_1es(a) = 3a - sum_A A_(3) A_(4) a."""
    return (3.0 * R - top.substitute(m.omegas, (-2, -1), R).sum(0)) / 4.0


def pi1s_operator(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """pi_1s(a) = (1/4n) sum_A a(X,Y,Ae_i,e_i) omega_A(Z,U)."""
    out = np.zeros_like(R)
    for A, w in zip(m.triple, m.omegas):
        coef = np.einsum("xyab,ab->xy", R, A)
        out += np.einsum("xy,zu->xyzu", coef, w)
    return out / (4.0 * m.n)


def pi1_operator(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    return pi1es_operator(m, R) - pi1s_operator(m, R)


# ---------------------------------------------------------------------------
# The pi projections: state formulas.  Each is a sum of forms tensored
# with omega_A (the gamma terms and, for pi_1s, the xi term) plus, for
# pi_1es, the xi and nabla~xi terms.

def _with_omegas(m: ModelSpace, forms: np.ndarray) -> np.ndarray:
    """sum_A forms[..., A, x, y] omega_A[z, u]."""
    return top.contract("axy,azu->xyzu", forms, m.omegas)


def _pi1es_xi_part(m: ModelSpace, t: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The gamma-free terms of pi_1es(R):

    <a~(nabla~xi)_{X,Y} Z, U> - (3/4) <a~(xi o xi)_{X,Y} Z, U>
    - (1/4) sum_A <A a~(xi o xi)_{X,Y} A Z, U> + <b~(xi x xi)_{X,Y} Z, U>,

    with N[x,y,a,b] = (xi_x xi_y - xi_y xi_x)[a,b] and <A N A Z, U> =
    (A N A)[x,y,u,z]."""
    p = top.contract("xac,ycb->xyab", t, t)
    N = p - p.swapaxes(-4, -3)
    core = 3.0 * N + sum(A @ N @ A for A in m.triple)
    e = D.swapaxes(-1, -2)  # D[x,y,u,z] -> slot order (x,y,z,u)
    return (e - e.swapaxes(-4, -3)
            + (top.b_tilde(t, t) - 0.25 * core).swapaxes(-1, -2))


def _pi1s_xi_forms(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """(s_A - s_A^T) / 4n with s_A[x,y] = t[x,m,i] t[y,m,q] A[q,i], stacked
    over A: the xi term of pi_1s, alternated in (X, Y)."""
    s = top.contract("xmi,aymi->axy", t, t[..., None, :, :, :] @ m.omegas[:, None])
    return (s - s.swapaxes(-1, -2)) / (4.0 * m.n)


def pi1es_state(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """The curvature-from-torsion expression of pi_1es(R):

    (1/2) sum_A gamma_A (x) omega_A + <a~(nabla~xi)_{X,Y} Z, U>
    - (3/4) <a~(xi o xi)_{X,Y} Z, U>
    - (1/4) sum_A <A a~(xi o xi)_{X,Y} A Z, U>
    + <b~(xi x xi)_{X,Y} Z, U>.
    """
    return (_with_omegas(m, 0.5 * state.gammas)
            + _pi1es_xi_part(m, state.t, state.D))


def pi1s_state(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """pi_1s(R) from the state; the xi-term is alternated in (X, Y) so the
    expression is 2-form valued on free states (on-shell the symmetric part
    of s_A(X,Y) = <xi_X e_i, xi_Y A e_i> cancels either way)."""
    return _with_omegas(m, 0.5 * state.gammas + _pi1s_xi_forms(m, state.t))


def pi1_state(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """pi_1(R) from the state; gamma-independent (the gamma terms cancel)."""
    return (_pi1es_xi_part(m, state.t, state.D)
            - _with_omegas(m, _pi1s_xi_forms(m, state.t)))


# ---------------------------------------------------------------------------
# gamma elimination: the S^2E S^2H part of sum_A gamma_A(., A.) expressed
# through (xi, nabla~xi) via the d^2 omega identity.

#: The six orderings (a, b, c) of (I, J, K), as indices into ``_units``,
#: with their signs.
_ORDERINGS = (((1, 2, 3), 1.0), ((2, 3, 1), 1.0), ((3, 1, 2), 1.0),
              ((2, 1, 3), -1.0), ((1, 3, 2), -1.0), ((3, 2, 1), -1.0))


def _cyc(f):
    """Equivariant version of the cyclic sum over (I, J, K) of f(a, b, c).

    The curvature identities use sums over the three cyclic orderings of a
    fixed adapted basis; these hold on-shell in every basis, but are not
    Sp(1)-equivariant termwise, so as free-state maps they would couple
    components that representation theory forbids.  Haar-averaging the
    cyclic sum over the adapted-basis family replaces it by half the
    signed sum over all six orderings (E[R x R x R] over SO(3) is
    epsilon x epsilon / 6), which agrees with the cyclic sum on-shell and
    is equivariant.
    """
    return sum(0.5 * sign * f(*abc) for abc, sign in _ORDERINGS)


def s2es2h_gamma_part(m: ModelSpace, state: TorsionState, brackets: dict) -> np.ndarray:
    """pi_{S2ES2H}(sum_A gamma_A(., A.)) in terms of (xi, nabla~xi).

    This is the component of the d^2 Omega consequence that eliminates the
    S^2E S^2H part of gamma; dividing its right-hand side by
    -2(n-1).  ``brackets`` is the bracket table of the state (see
    ``_brackets``).  Every xi term pairs two entries of its conjugate
    table X, one of them possibly acted on in the middle slot
    (``B @ X[c][0]`` is B_(2) X[c][0]); the nabla~xi terms use the traces
    delta_A[p, b] = sum_{i,q} (D[p,i,b,q] - D[i,p,b,q]) A[q,i].
    """
    t, X, u = state.t, brackets["X"], brackets["u"]
    ct = top.contract
    units = _units(m)
    skew = state.D - state.D.swapaxes(-4, -3)
    delta = dict(zip((1, 2, 3), np.moveaxis(ct("pibq,aqi->apb", skew, m.omegas), -3, 0)))
    mid = sum(units[a] @ X[a][0] for a in (1, 2, 3)) - brackets["XA"]
    rhs = 2.0 * brackets["P"] + ct("imx,ymi->xy", t, mid)
    for a in (1, 2, 3):
        rhs = rhs + (ct("xmy,m->xy", X[a][0], u[a])
                     - ct("iwy,wxi->xy", X[0][a], X[0][a])
                     + delta[a].swapaxes(-1, -2) @ units[a])
    rhs = rhs + _cyc(lambda a, b, c: (
        ct("imx,ymi->xy", X[0][a], units[b] @ X[c][0] - X[c][b])
        + ct("xmy,m->xy", X[a][b], u[c])
        + ct("iwy,wxi->xy", X[0][c], units[a] @ X[0][b])
        - units[a] @ delta[b].swapaxes(-1, -2) @ units[c]))
    return cs.proj_sym_S2ES2H(m, rhs) / (-2.0 * (m.n - 1.0))


# ---------------------------------------------------------------------------
# Ricci component formulas (with the gamma parts eliminated through the
# d^2 Omega identities, so only the scalar part of gamma remains).

def _ra_rb_coefficients(n: int, c_r: float, c_q: float) -> tuple[float, float]:
    """Coefficients (c_a, c_b) of the curvature component in R_a + R_b with
    respect to a = pi2 + 6 pi1 and b = pi2 - 6 pi1, from the coefficients
    c_r of pi_R(Ric) and c_q of pi_R(Ric^q).

    Reconstructed by feeding pi_R(Ric) and pi_R(Ric^q) through the exact
    split :func:`.decomposition.ricci_qk_split`.  (The standalone QKperp
    bracket ``pi_R_ric_QKperp`` trades quadratic xi-terms using on-shell
    identities and is not used here; the QK bracket ``ric_QK`` agrees with
    this route identically.)
    """
    sigma_qk, sigma_perp = dec.ricci_qk_split(n, c_r, c_q)
    mu = sigma_qk / (8.0 * (n + 2.0))           # R_QK part: mu (pi2 + 2 pi1)
    nu = sigma_perp / (-36.0 * (2.0 * n + 1.0) * (n - 1.0))
    c_a = (2.0 / 3.0) * mu + (1.0 - n) * nu
    c_b = (1.0 / 3.0) * mu + (2.0 * n + 1.0) * nu
    return c_a, c_b


def _scalar_formulas(n: int, b: dict) -> dict:
    """The g-coefficients of pi_R(Ric), pi_R(Ric^q), Ric(pi_QK R) and
    pi_R(Ric_QKperp), and the R_a + R_b coefficients, from the scalar
    brackets; the three Ricci ones share -3 v.v - 5 s2 + 8 phi."""
    base = -3.0 * b["vv"] - 5.0 * b["s2"] + 8.0 * b["phi"]
    gam, s4, s5, s6 = b["Gamma"], b["S4"], b["S5"], b["S6"]
    ric = (base + 2.0 * (n + 2.0) * gam + s4 + s5 - s6) / (12.0 * n)
    ricq = 0.5 * (gam - s6 / (2.0 * n))
    return {
        "pi_R_ric": ric,
        "pi_R_ricq": ricq,
        "ric_QK": ((base + 4.0 * (5.0 * n + 1.0) * gam + s4 + s5 - 10.0 * s6)
                   * (n + 2.0) / (24.0 * n * (5.0 * n + 1.0))),
        "pi_R_ric_QKperp": (base + s4 + s5 + 2.0 * s6) * 3.0 / (8.0 * (5.0 * n + 1.0)),
        "R_ab": np.stack(_ra_rb_coefficients(n, ric, ricq), axis=-1),
    }


def pi_r_ricq(m: ModelSpace, state: TorsionState) -> float:
    """Coefficient c in pi_R(Ric^q) = c g:

    c = (1/2) sum_A (<gamma_A, omega_A> - (1/2n) <xi_{e_i} e_j, xi_{Ae_i} A e_j>).
    """
    return _scalar_formulas(m.n, _scalar_brackets(m, state))["pi_R_ricq"]


def pi_r_ric(m: ModelSpace, state: TorsionState) -> float:
    """Coefficient c in pi_R(Ric) = c g."""
    return _scalar_formulas(m.n, _scalar_brackets(m, state))["pi_R_ric"]


def ricci_component_formulas(m: ModelSpace, state: TorsionState) -> dict:
    """Every closed Ricci-component formula evaluated on the state, each a
    combination of the entries of one bracket table.

    Scalar entries are coefficients of g, and ``R_ab`` holds the
    coefficients (c_a, c_b) of the R_a + R_b component; tensor entries are
    bilinear forms lying in their named component (verified by the test
    suite).
    """
    n = m.n
    b = _brackets(m, state)
    out = _scalar_formulas(n, b)
    # Lambda^2_0 E: with x, y the projections of N0 + Q + (2/n) P and M + W,
    # 3 pi(Ric) = x - (n+2)/n y, 6 Ric_a = x - 2(2n+1)/n y,
    # 6 Ric_b = x + 2(n-1)/n y and pi(Ric^q) = -y
    x = cs.proj_sym_L20E(m, b["N0"] + b["Q"] + (2.0 / n) * b["P"])
    y = cs.proj_sym_L20E(m, b["M"] + b["W"])
    out["pi_L20E_ric"] = (x - (n + 2.0) / n * y) / 3.0
    out["pi_L20E_ricq"] = -y
    out["ric_L20E_a"] = (x - 2.0 * (2.0 * n + 1.0) / n * y) / 6.0
    out["ric_L20E_b"] = (x + 2.0 * (n - 1.0) / n * y) / 6.0
    # S^2E S^2H: Ric^q = -n G - P and 3 Ric = N0 - (n+2) G - P + Q, with the
    # S^2E S^2H part of G replaced through d^2 Omega
    gp = s2es2h_gamma_part(m, state, b)
    q = -n * gp - cs.proj_sym_S2ES2H(m, b["P"])
    r = (-(n + 2.0) * gp + cs.proj_sym_S2ES2H(m, b["N0"] - b["P"] + b["Q"])) / 3.0
    out["pi_S2ES2H_ric"] = r
    out["pi_S2ES2H_ricq"] = q
    out["ric_S2ES2H_a"] = 0.25 * (r + 3.0 * q)
    out["ric_S2ES2H_b"] = 0.75 * (r - q)
    # the skew q-Ricci content
    out["pi_L20ES2H_ricq"] = (n / 2.0) * cs.proj_form_L20ES2H(
        m, b["E"] - b["Q"] + b["M"] + b["W"] - (2.0 / n) * b["P"])
    return out


# ---------------------------------------------------------------------------
# Scalars.

def d_star_theta(m: ModelSpace, state: TorsionState) -> float:
    """d* theta = -(nabla~_{e_i} theta)(e_i) - theta(xi_{e_i} e_i).

    theta is a fixed metric contraction of xi and nabla~ is metric, so
    nabla~ theta is the same contraction of nabla~ xi; the second term
    converts nabla~ back to the Levi-Civita divergence.
    """
    nabla_theta = tor.theta(m, state.D)     # the theta-contraction of each D(W; .)
    th = tor.theta(m, state.t)
    v = np.einsum("imi->m", state.t)
    return float(-np.trace(nabla_theta) - th @ v)


# The component-norm expansions of scal and scal^q.
#
# The coefficients below are the unique ones valid on *free* torsion
# states: the six components are mutually inequivalent, so every invariant
# quadratic form on the torsion space is a combination of the component
# norms, and tracing the Ricci formulas fixes the combination.  They were
# extracted exactly (as rationals, identical at n = 2, 3, 4) from the
# traces of the q-Ricci / Ricci formulas, which in turn are anchored by the
# quaternionic-Kaehler constants.  The commonly tabulated scalar
# expansions carry different coefficients on some components (K3, 3H,
# KH, EH and the d*theta term); those versions hold only modulo the
# d^2 Omega relations that couple nabla~xi to xi (x) xi on integrable
# states, and fail on free states.  They are kept below as the
# reference_* variants.

def _dstar_coefficient(n: int) -> float:
    # forced by the nabla~xi trace of pi_r_ric; the reference value has
    # (n+1) in place of (n-1)
    return 16.0 * (2.0 * n + 1.0) * (n - 1.0) / n


def scal_coefficients(n: int) -> dict:
    """Free-state coefficients of scal against component norms, the gamma
    trace and d* theta."""
    return {
        "gamma": 2.0 * (n + 2.0) / 3.0,
        "33": 7.0 / 3.0,
        "K3": -2.0 / 3.0,
        "E3": (2.0 * n * n + 3.0 * n + 2.0) / (3.0 * n),
        "3H": -2.0 / 3.0,
        "KH": -2.0 / 3.0,
        "EH": 2.0 * (4.0 * n * n - 3.0 * n - 2.0) / (3.0 * n),
        "dstar": -_dstar_coefficient(n),
    }


def scalq_coefficients(n: int) -> dict:
    """Free-state coefficients of scal^q (no derivative term): +1 on the
    S^3H half and -2 on the H half."""
    return {
        "gamma": 2.0 * n,
        "33": 1.0, "K3": 1.0, "E3": 1.0,
        "3H": -2.0, "KH": -2.0, "EH": -2.0,
        "dstar": 0.0,
    }


def reference_scal_coefficients(n: int) -> dict:
    """The commonly tabulated coefficients (valid only modulo on-shell
    relations); kept for the deviation report of ``reference_deviations``."""
    return {
        "gamma": 2.0 * (n + 2.0) / 3.0,
        "33": 7.0 / 3.0, "K3": -1.0 / 3.0,
        "E3": (2.0 * n * n + 3.0 * n + 2.0) / (3.0 * n),
        "3H": -1.0 / 3.0, "KH": -7.0 / 3.0,
        "EH": 2.0 * (4.0 * n * n + 6.0 * n + 1.0) / (3.0 * n),
        "dstar": -16.0 * (2.0 * n + 1.0) * (n + 1.0) / n,
    }


def reference_scalq_coefficients(n: int) -> dict:
    """The commonly tabulated q-scalar coefficients (on-shell variant)."""
    return {
        "gamma": 2.0 * n,
        "33": 1.0, "K3": 1.0, "E3": 1.0,
        "3H": -2.0, "KH": -9.0, "EH": -2.0 / 3.0,
        "dstar": 0.0,
    }


def reference_deviations(n: int) -> dict:
    """Every coefficient where a reference scalar expansion differs from
    the free-state one: {"scal": {name: (free, reference)}, "scal^q": ...}."""
    out = {}
    for label, free, ref in (
            ("scal", scal_coefficients(n), reference_scal_coefficients(n)),
            ("scal^q", scalq_coefficients(n), reference_scalq_coefficients(n))):
        out[label] = {name: (free[name], ref[name]) for name in free
                      if abs(free[name] - ref[name]) > 1e-12}
    return out


def scalars_from_torsion(m: ModelSpace, bank: tor.TorsionBank,
                         state: TorsionState) -> tuple[float, float, float]:
    """(scal, scal^q, d* theta) from squared component norms and the gamma trace."""
    squares = dict(zip(bank.names, bank.squared_norms(state.t.ravel())))
    gam_tr = _gamma_trace(m, state.gammas)
    ds = d_star_theta(m, state)

    def combine(coefs):
        out = coefs["gamma"] * gam_tr + coefs["dstar"] * ds
        for name in tor.TORSION_COMPONENTS:
            out += coefs[name] * squares[name]
        return out

    return (combine(scal_coefficients(m.n)),
            combine(scalq_coefficients(m.n)), ds)


# ---------------------------------------------------------------------------
# d^2 omega identities.

def _nabla_pair_term(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """F[w,p,m,u] = <e_m, A (nabla~_w xi)_p e_u> - <e_m, (nabla~_w xi)_p A e_u>."""
    return A @ D - D @ A


def _xi_pair_term(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """K[p,q,m,u] = <e_m, xi_p A xi_q e_u> - <e_m, xi_p xi_q A e_u>."""
    tA = t @ A
    return (np.tensordot(tA, t, axes=(2, 1))
            - np.tensordot(t, tA, axes=(2, 1))).transpose(0, 2, 1, 3)


def isquare_residual_tensors(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """The three rank-4 tensors (one per structure direction) whose vanishing
    expresses d^2 omega_A = 0 on the state; stacked along axis 0."""
    t, D = state.t, state.D
    out = np.empty((3,) + (m.dim,) * 4)
    for a in range(3):
        A = m.triple[a]
        b, c = (a + 1) % 3, (a + 2) % 3
        gam_part = (top.wedge2(state.gammas[c], m.omegas[b])
                    - top.wedge2(state.gammas[b], m.omegas[c]))
        F = _nabla_pair_term(A, D)
        e1 = F.transpose(0, 1, 2, 3)            # (X,Y,Z,U) ~ F[x,y,z,u]
        term = top.cyclic3(e1, axes=(1, 2, 3))
        term -= top.cyclic3(e1.swapaxes(0, 1), axes=(0, 2, 3))
        e3 = F.transpose(1, 2, 0, 3)            # <Y, .(nabla~_Z xi)_X U.>
        term += top.cyclic3(e3, axes=(0, 1, 3))
        e4 = F.transpose(1, 2, 3, 0)            # <Y, .(nabla~_U xi)_X Z.>
        term -= top.cyclic3(e4, axes=(0, 1, 2))
        K = _xi_pair_term(A, t)
        k1 = K.transpose(0, 1, 2, 3)
        term -= top.cyclic3(k1, axes=(1, 2, 3))
        term += top.cyclic3(k1.swapaxes(0, 1), axes=(0, 2, 3))
        k3 = K.transpose(1, 2, 0, 3)
        term -= top.cyclic3(k3, axes=(0, 1, 3))
        k4 = K.transpose(1, 2, 3, 0)
        term += top.cyclic3(k4, axes=(0, 1, 2))
        out[a] = gam_part + term
    return out


def dd_omega_residual(m: ModelSpace, state: TorsionState) -> dict:
    """Norms of the d^2 omega obstruction: the three 4-tensor identities and
    their quaternionic contraction (the bilinear identity)."""
    tensors = isquare_residual_tensors(m, state)
    four_form = float(np.sqrt(sum(top.frob(x) ** 2 for x in tensors)))
    bil = np.zeros((m.dim, m.dim))
    for a in range(3):
        B, C = m.triple[(a + 1) % 3], m.triple[(a + 2) % 3]
        bil += np.tensordot(tensors[a], C, axes=([2, 3], [0, 1])) @ B
    return {"four_form": four_form, "bilinear": float(top.frob(bil)),
            "total": float(np.hypot(four_form, top.frob(bil)))}


# ---------------------------------------------------------------------------
# The gamma rigidity lemma.

def lemma_gammas_kernel(m: ModelSpace):
    """Null space of the constraint gamma_A ^ omega_B = gamma_B ^ omega_A
    (cyclic pairs) on triples of 2-forms.

    Returns (kernel dimension, basis triples, smallest nonzero eigenvalue);
    the lemma asserts the kernel is exactly the line c (omega_I, omega_J,
    omega_K).  The kernel is read from one gated ``eigh`` of the Gram
    matrix G = C^T C of the constraint matrix C, summed from the Gram
    matrix of the wedges f_j ^ omega_b without forming C.  G has the
    eigenvalue 0 once, and every other eigenvalue is 48 j with
    2n - 3 <= j < 6n; any other spectrum, or another kernel dimension,
    raises ArithmeticError naming the "gamma rigidity kernel".  The smallest
    nonzero eigenvalue, the gap the kernel is decided by, is 48 (2n - 3).
    """
    forms = cs.form_basis(m.dim)
    k = len(forms)
    label = "gamma rigidity kernel"
    # row block p of C is gamma_p ^ omega_q - gamma_q ^ omega_p, q = p + 1
    # (mod 3): sum_ab E[p, a, b] gamma_a ^ omega_b, with gamma_a = f_j in
    # column (a, j)
    p = np.arange(3)
    E = np.zeros((3, 3, 3))
    E[p, p, (p + 1) % 3], E[p, (p + 1) % 3, p] = 1.0, -1.0
    W = top.wedge2(m.omegas[:, None], forms).reshape(3 * k, -1)    # row (b, j): omega_b ^ f_j
    G = np.einsum("pax,xiyj,pby->aibj", E, (W @ W.T).reshape(3, k, 3, k), E)
    G = G.reshape(3 * k, 3 * k)
    spaces = cs._eigenspaces(G, [0.0] + [48.0 * j for j in range(2 * m.n - 3, 6 * m.n)], label)
    kernel = spaces.pop(0.0)
    if kernel.shape[1] != 1:
        raise ArithmeticError(f"{label}: dimension {kernel.shape[1]}, expected 1")
    lowest = next(V for V in spaces.values() if V.size)   # Rayleigh quotient = eigenvalue
    gap = float(np.min(np.sum(lowest * (G @ lowest), axis=0)))
    return 1, [np.tensordot(kernel.reshape(3, k), forms, axes=1)], gap


# ---------------------------------------------------------------------------
# The compactness-obstruction quadratic form.

def bhl_coefficients(n: int) -> dict:
    """Coefficients of (n+2) scal^q - 3n scal as a quadratic form in the
    component norms and d* theta (the gamma terms cancel identically).

    The five norm coefficients appearing under the quaternionic-or-S3H
    hypothesis (33, E3, 3H, KH, EH) are strictly negative; K3 carries the
    one positive coefficient and is excluded by that hypothesis.
    """
    cq = scalq_coefficients(n)
    c = scal_coefficients(n)
    out = {name: (n + 2.0) * cq[name] - 3.0 * n * c[name]
           for name in tor.TORSION_COMPONENTS}
    out["dstar"] = -3.0 * n * c["dstar"]
    assert abs((n + 2.0) * cq["gamma"] - 3.0 * n * c["gamma"]) < 1e-12
    return out


def bhl_integrand(m: ModelSpace, bank: tor.TorsionBank,
                  state: TorsionState) -> float:
    """(n+2) scal^q - 3n scal evaluated through the scalar formulas."""
    scal, scalq, _ = scalars_from_torsion(m, bank, state)
    return (m.n + 2.0) * scalq - 3.0 * m.n * scal
