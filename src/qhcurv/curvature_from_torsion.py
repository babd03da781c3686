"""Curvature components from intrinsic-torsion data.

A *torsion state* is a triple (xi, nabla~xi, gamma): the rank-3 torsion
tensor t[x,m,z] = <e_m, xi_{e_x} e_z>, its covariant derivative D[w,x,m,z]
= <e_m, (nabla~_{e_w} xi)_{e_x} e_z> with respect to the minimal
connection, and the three curvature 2-forms gamma_A of the structure
bundle.  Every operation in this module evaluates one of the closed
formulas expressing a curvature component, a Ricci-type component, or a
scalar in terms of such a state.  On realized states, those of an actual
geometry, they equal the corresponding components of the curvature tensor
R; acceptance criterion 13 checks every formula the tables read against R
on such states.  On free states they define the linear/quadratic maps
whose vanishing pattern is tabulated by the contribution engine in
:mod:`.tables`.

Each Ricci, q-Ricci and scalar formula is a fixed linear combination of
a few contractions of the state (the brackets <xi_X e_i, xi_{AY} A e_i>,
<(nabla~_X xi)_{e_i} Y, e_i>, ...).  Almost every quadratic one pairs xi
with a conjugate B_(1) C_(3) xi, B, C in (1, I, J, K), so each state
first builds the conjugate table of these sixteen tensors (two stacked
substitutions); every bracket, including each term of the gamma
elimination ``s2es2h_gamma_part``, is then a two-operand contraction of
table entries (``tensor_ops.contract``, one batched matmul), one of them
possibly acted on in its middle slot by one A, and the nabla~xi brackets
are traces of nabla~xi against one A.  ``_brackets`` computes each
bracket once, and :func:`ricci_component_formulas` evaluates every
formula as a combination of its entries; the scalar ones, the
g-coefficients, read the scalar entries alone.

A state's arrays may carry leading axes (``TorsionState.stack``): the
bracket table, the Ricci formulas and the pi-state formulas then evaluate
the whole batch in the same calls, with the batch axes leading every
value.  A piece a state does not carry is None, and no formula spends
work on its terms: the table engine stacks its gamma and nabla~xi states
apart from its xi (x) xi states, so the former never build the conjugate
table and the latter never touch a d^4 nabla~xi.

The pi-state formulas give pi_1s and pi_1 = pi_1es - pi_1s of R from a
state; pi_1es is their sum, pi_1 + pi_1s, as both sides carry the gamma
term (1/2) sum_A gamma_A (x) omega_A and pi_1 has none.  The operators
themselves, on rank-4 tensors, are :func:`.curvature_space.pi1_operator`
and its two terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature_space as cs
from . import decomposition as dec
from . import tensor_ops as top
from . import torsion as tor
from .model_space import AFTER, NEXT, ModelSpace

#: Largest gap at which two closed-form coefficients count as equal.
COEFF_TOL = 1e-12


# ---------------------------------------------------------------------------
# States.

@dataclass
class TorsionState:
    """(xi, nabla~xi, gamma); a piece left out is None, not zeros, and
    every formula below evaluates only the terms of the pieces present.

    The arrays may share leading axes, making one batch of states
    (``stack``): t[..., x, m, z], D[..., w, x, m, z] and gammas[..., A, x, y].
    Every state formula below maps over those axes and puts them in front
    of its value; an unbatched state gives unbatched values.
    """

    t: np.ndarray | None = None
    D: np.ndarray | None = None
    gammas: np.ndarray | None = None

    @classmethod
    def make(cls, m: ModelSpace, t=None, D=None, gammas=None):
        """One state of the model m, each piece given as a float array or
        left absent.  ValueError unless every piece given ends in the axes
        of its kind at m's dimension."""
        d, pieces = m.dim, {}
        for name, piece, tail in (("t", t, (d,) * 3), ("D", D, (d,) * 4),
                                  ("gammas", gammas, (3, d, d))):
            if piece is not None:
                piece = np.asarray(piece, dtype=float)
                if piece.shape[-len(tail):] != tail:
                    raise ValueError(f"{name} must end in axes {tail}, got {piece.shape}")
            pieces[name] = piece
        return cls(**pieces)

    @classmethod
    def stack(cls, states) -> TorsionState:
        """One batch of states, stacked along a new leading axis.  A piece
        some state carries is stacked, with zeros for the states that lack
        it; a piece no state carries stays absent."""
        def piece(arrays):
            like = next((a for a in arrays if a is not None), None)
            return None if like is None else np.stack(
                [np.zeros_like(like) if a is None else a for a in arrays])
        return cls(t=piece([s.t for s in states]), D=piece([s.D for s in states]),
                   gammas=piece([s.gammas for s in states]))

    @classmethod
    def qk_point(cls, m: ModelSpace, c: float):
        """The quaternionic-Kaehler state: xi = 0, gamma_A = c omega_A."""
        return cls.make(m, gammas=c * m.omegas)


def _lead(state: TorsionState) -> tuple:
    """The batch axes of a state: those in front of the axes of any piece
    it carries (none if it carries none)."""
    for piece, rank in ((state.t, 3), (state.D, 4), (state.gammas, 3)):
        if piece is not None:
            return piece.shape[:-rank]
    return ()


def _total(parts: list, shape: tuple) -> np.ndarray:
    """The sum of ``parts``, or zeros of ``shape`` when there is none."""
    return sum(parts[1:], parts[0]) if parts else np.zeros(shape)


# ---------------------------------------------------------------------------
# The conjugate table.  Every quadratic bracket of the formulas pairs xi
# with one of its conjugates B_(1) C_(3) xi, B, C in (1, I, J, K):
#
#     X[b][c][y, m, i] = sum_{p,q} B[p, y] t[p, m, q] C[q, i]
#                      = <e_m, xi_{B e_y} C e_i>,
#
# index 0 being the identity (so X[0][0] = t) and a = 1, 2, 3 the triple.
# Each bracket is then one two-operand contraction (``top.contract``, a
# batched matmul) of t or a table entry with another table entry, the
# terms that differ only in A stacked into one call; the nabla~xi brackets
# are traces of D, or of D against each A.  ``m.omegas`` is the stacked
# triple (I, J, K) wherever all three A act at once.

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

_SCALAR_BRACKETS = ("vv", "s2", "phi", "Gamma", "S4", "S5", "S6")
_FORM_BRACKETS = ("N0", "E", "P", "Q", "M", "W")


def _xi_brackets(m: ModelSpace, t: np.ndarray) -> dict:
    """The brackets quadratic in xi, and the xi terms of N0, E and M, with
    what the gamma elimination reuses: the conjugate table X,
    XA = sum_A X[A][A] and the vectors u[a][m] = <e_m, xi_{e_i} A e_i>, the
    traces of X[0][a] (u[0] = v)."""
    ct = top.contract
    X = _conjugate_table(m, t)
    XA = X[1][1] + X[2][2] + X[3][3]
    u = np.einsum("...imi->...m", X[0])
    xixi = ct("xmi,imy->xy", t, t) + 3.0 * ct("xmy,m->xy", t, u[0])
    return {
        "X": X, "XA": XA, "u": u, "vv": _full(u[0], u[0], 1),
        "s2": _full(t, t.swapaxes(-3, -1), 3),
        "S4": _full(u[1:], u[1:], 1).sum(0),
        "S5": _full(t, XA.swapaxes(-3, -1), 3),
        "S6": _full(t, XA, 3),
        "N0": -xixi - 4.0 * ct("iwx,wiy->xy", t, t),
        "E": xixi + 4.0 * ct("iwy,wxi->xy", t, t),
        "P": ct("xmi,ymi->xy", t, XA),
        "Q": ct("xmi,imy->xy", t, XA) + ct("xmy,m->xy", X[0][1:], u[1:]).sum(0),
        "M": ct("w,wxy->xy", u[1:], X[0][1:]).sum(0),
        "W": ct("imx,imy->xy", t, XA),
    }


def _nabla_brackets(m: ModelSpace, D: np.ndarray) -> dict:
    """The brackets linear in nabla~xi: phi, and the nabla~xi terms of N0,
    E and M."""
    return {
        "phi": np.einsum("...ijji->...", D),
        "N0": 4.0 * (np.einsum("...xiiy->...xy", D) - np.einsum("...ixiy->...xy", D)),
        "E": 4.0 * (np.einsum("...iyxi->...xy", D) - np.einsum("...yixi->...xy", D)),
        "M": (top.contract("ipxq,api->axq", D, m.omegas) @ m.omegas).sum(axis=-3),
    }


def _brackets(m: ModelSpace, state: TorsionState) -> dict:
    """The bracket table of a state.  The scalar brackets:

    vv = <v, v>, s2 = <xi_{e_i} e_j, xi_{e_j} e_i>,
    phi = <(nabla~_{e_i} xi)_{e_j} e_i, e_j>, Gamma = sum_A <gamma_A, omega_A>,
    S4 = sum_A <u_A, u_A>, S5 = sum_A <xi_{e_i} e_j, xi_{A e_j} A e_i>,
    S6 = sum_A <xi_{e_i} e_j, xi_{A e_i} A e_j>;

    and the rank-2 ones:

    N0 = 4 <(nabla~_X xi)_{e_i} Y, e_i> - 4 <(nabla~_{e_i} xi)_X Y, e_i>
         - <xi_X e_i, xi_{e_i} Y> - 3 <xi_X Y, v> - 4 <xi_{xi_{e_i} X} Y, e_i>,
    P  = sum_A <xi_X e_i, xi_{AY} A e_i>,
    Q  = sum_A (<xi_X e_i, xi_{A e_i} A Y> + <xi_X A Y, xi_{e_i} A e_i>),
    M  = sum_A (<X, xi_{u_A} A Y> + <X, (nabla~_{e_i} xi)_{A e_i} A Y>),
    W  = sum_A <xi_{e_i} X, xi_{A e_i} A Y>,
    E  = <xi_X e_i, xi_{e_i} Y> + 3 <xi_X Y, v> + 4 (<X, xi_{xi_{e_i} Y} e_i>
         + <X, (nabla~_{e_i} xi)_Y e_i> - <X, (nabla~_Y xi)_{e_i} e_i>).

    N0 is the gamma-free Ricci bracket; E holds the extra terms of the
    skew q-Ricci formula.  Each bracket starts at zero and gets the terms
    of the pieces the state carries; with xi present the table also holds
    X, XA and u (``_xi_brackets``).
    """
    lead = _lead(state)
    b = {key: np.zeros(lead) for key in _SCALAR_BRACKETS}
    b |= {key: np.zeros(lead + (m.dim, m.dim)) for key in _FORM_BRACKETS}
    if state.t is not None:
        b |= _xi_brackets(m, state.t)
    if state.D is not None:
        for key, value in _nabla_brackets(m, state.D).items():
            b[key] = b[key] + value
    if state.gammas is not None:
        b["Gamma"] = _gamma_trace(m, state.gammas)
    return b


# ---------------------------------------------------------------------------
# Ric*_A on states.

def ric_star_from(m: ModelSpace, state: TorsionState, a_idx: int) -> np.ndarray:
    """Ric*_A(X,Y) = -n gamma_A(X, A Y) - <xi_X e_i, xi_{AY} A e_i>, as one
    direct contraction, independent of the bracket table (the tests compare
    it with Ric*_A of R on realized states)."""
    A, t = m.omegas[a_idx], state.t
    parts = []
    if state.gammas is not None:
        parts.append(-m.n * (state.gammas[..., a_idx, :, :] @ A))
    if t is not None:
        parts.append(-np.einsum("...xmi,py,...pmq,qi->...xy", t, A, t, A))
    return _total(parts, _lead(state) + (m.dim, m.dim))


# ---------------------------------------------------------------------------
# The pi projections of R as state formulas.  pi_1s is a sum of forms
# tensored with omega_A (the gamma term and the xi term); pi_1 is the xi
# and nabla~xi terms of pi_1es less the xi term of pi_1s; and pi_1es is
# pi_1 + pi_1s.

def _pi1es_block(m: ModelSpace, state: TorsionState, xy: np.ndarray) -> np.ndarray:
    """The nabla~xi and xi terms of pi_1es(R),

    <a~(nabla~xi)_{X,Y} Z, U> - (3/4) <a~(xi o xi)_{X,Y} Z, U>
    - (1/4) sum_A <A a~(xi o xi)_{X,Y} A Z, U> + <b~(xi x xi)_{X,Y} Z, U>,

    at the rows and columns ``xy`` (flat indices x dim + y) of their
    (dim^2, dim^2) matrix.  Together they are H[x,y,u,z] - H[y,x,u,z] with
    H = D + e - pi_1es(p), pi_1es acting on the last two axes:
    e[x,y,m,z] = <e_m, xi_{xi_x y} e_z>, so b~ is e less e with x and y
    swapped, and p[x,y,a,b] = (xi_x xi_y)[a,b], so the commutator N is p
    less p with x and y swapped and (3/4) N + (1/4) sum_A A N A =
    pi_1es(N).  The pair (x, y) is thus alternated once, on the block, and
    H is read only at its columns (u, z), where pi_1es(p) is one product
    of p with those columns of ``m.pi1es_34``."""
    d = m.dim
    yx = (xy % d) * d + xy // d
    parts = []
    if state.D is not None:
        parts.append(state.D.reshape(state.D.shape[:-4] + (d * d, d * d))[..., yx])
    if state.t is not None:
        t = state.t
        H = top.contract("xwy,wmz->xymz", t, t).reshape(-1, d * d)[:, yx]     # e
        H -= top.contract("xac,ycb->xyab", t, t).reshape(-1, d * d) @ m.pi1es_34[:, yx]
        parts.append(H.reshape(t.shape[:-3] + (d * d, len(xy))))
    H = _total(parts, _lead(state) + (d * d, len(xy)))
    return H[..., xy, :] - H[..., yx, :]


def _pi1s_xi_forms(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """s_A / 2n with s_A[x,y] = t[x,m,i] t[y,m,q] A[q,i], stacked over A:
    the xi term of pi_1s.  t A for the three A is one substitution.  s_A
    is skew for every xi in the torsion space (the tests check it), so it
    is a 2-form as it stands."""
    s = top.contract("xmi,ymi->xy", t, top.substitute(m.omegas, (-1,), t))
    return np.moveaxis(s, 0, -3) / (2.0 * m.n)


def pi1s_state(m: ModelSpace, state: TorsionState) -> np.ndarray:
    """pi_1s(R) from the state: (1/2) sum_A gamma_A (x) omega_A plus the
    xi term (1/2n) sum_A s_A (x) omega_A, s_A(X,Y) = <xi_X e_i, xi_Y A e_i>
    being skew on the torsion space."""
    parts = []
    if state.gammas is not None:
        parts.append(0.5 * state.gammas)
    if state.t is not None:
        parts.append(_pi1s_xi_forms(m, state.t))
    forms = _total(parts, _lead(state) + (3, m.dim, m.dim))
    return top.contract("axy,azu->xyzu", forms, m.omegas)


def pi1_state(m: ModelSpace, state: TorsionState, at=None) -> np.ndarray:
    """pi_1(R) from the state; gamma-independent (the gamma terms cancel):
    the nabla~xi and xi terms of pi_1es less the xi term of pi_1s.

    With ``at``, flat indices x dim + y of some pairs (x, y), only the
    block of pi_1's (dim^2, dim^2) matrix at rows and columns ``at`` is
    returned, shape (..., len(at), len(at)), and the terms are combined
    at those entries alone."""
    d = m.dim
    xy = np.arange(d * d) if at is None else np.asarray(at)
    out = _pi1es_block(m, state, xy)
    if state.t is not None:
        f = _pi1s_xi_forms(m, state.t).reshape(state.t.shape[:-3] + (3, d * d))[..., xy]
        out = out - f.swapaxes(-1, -2) @ m.omegas.reshape(3, d * d)[:, xy]
    return out.reshape(_lead(state) + (d,) * 4) if at is None else out


# ---------------------------------------------------------------------------
# gamma elimination: the S^2E S^2H part of sum_A gamma_A(., A.) expressed
# through (xi, nabla~xi) via the d^2 omega identity.

def s2es2h_gamma_part(m: ModelSpace, state: TorsionState, brackets: dict) -> np.ndarray:
    """pi_{S2ES2H}(sum_A gamma_A(., A.)) in terms of (xi, nabla~xi).

    This is the component of the d^2 Omega consequence that eliminates the
    S^2E S^2H part of gamma; dividing its right-hand side by
    -2(n-1).  ``brackets`` is the bracket table of the state (see
    ``_brackets``).  The identity sums over the cyclic orderings (a, b, c)
    of one adapted basis.  That holds on-shell in every basis, but is not
    Sp(1)-equivariant termwise, so as a free-state map it would couple
    components that representation theory forbids.  Its Haar average over
    the adapted bases is equivariant and agrees with it on-shell: half the
    signed sum over all six orderings (E[R x R x R] over SO(3) is epsilon x
    epsilon / 6).  Each term is linear in a factor that one transposition
    of (a, b, c) keeps, so the average is half of one antisymmetrized term
    per cyclic triple, added to the term of the same factor.  Only the
    terms of the pieces the state carries are evaluated.
    """
    parts = []
    if state.t is not None:
        parts.append(_gamma_xi_terms(m, state.t, brackets))
    if state.D is not None:
        parts.append(_gamma_nabla_terms(m, state.D))
    rhs = _total(parts, _lead(state) + (m.dim, m.dim))
    return cs.proj_sym_S2ES2H(m, rhs) / (-2.0 * (m.n - 1.0))


def _gamma_xi_terms(m: ModelSpace, t: np.ndarray, brackets: dict) -> np.ndarray:
    """The xi terms of the gamma elimination: 2 P, one pairing of xi with
    sum_A A_(2) X[A][0] - XA, and per cyclic triple (a, b, c) three
    pairings of entries of the conjugate table X, one of them possibly
    acted on in the middle slot by some B (``B @ X[c][0]`` is
    B_(2) X[c][0])."""
    ct, units = top.contract, _units(m)
    X, u = brackets["X"], brackets["u"]
    mid = sum(units[a] @ X[a][0] for a in (1, 2, 3)) - brackets["XA"]
    out = 2.0 * brackets["P"] + ct("imx,ymi->xy", t, mid)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        out = out + (
            ct("imx,ymi->xy", X[0][a], 0.5 * (units[b] @ X[c][0] - X[c][b]
                                              - units[c] @ X[b][0] + X[b][c]))
            + ct("xmy,m->xy", X[c][0] + 0.5 * (X[a][b] - X[b][a]), u[c])
            + ct("iwy,wxi->xy", X[0][c],
                 0.5 * (units[a] @ X[0][b] - units[b] @ X[0][a]) - X[0][c]))
    return out


def _gamma_nabla_terms(m: ModelSpace, D: np.ndarray) -> np.ndarray:
    """The nabla~xi terms of the gamma elimination, through the traces
    delta_A[p, b] = sum_{i,q} (D[p,i,b,q] - D[i,p,b,q]) A[q,i]: for each
    cyclic (a, b, c), delta_b^T B - (A delta_b^T C - C delta_b^T A) / 2,
    the three triples stacked (b on the axis of the triple)."""
    om = m.omegas
    dT = top.contract("pibq,aqi->abp", D - D.swapaxes(-4, -3), om)
    terms = dT @ om - 0.5 * (om[AFTER] @ dT @ om[NEXT] - om[NEXT] @ dT @ om[AFTER])
    return terms.sum(axis=-3)


# ---------------------------------------------------------------------------
# Ricci component formulas (with the gamma parts eliminated through the
# d^2 Omega identities, so only the scalar part of gamma remains).

def _ra_rb_coefficients(n: int, c_r: float, c_q: float) -> tuple[float, float]:
    """Coefficients (c_a, c_b) of the curvature component in R_a + R_b with
    respect to a = pi2 + 6 pi1 and b = pi2 - 6 pi1, from the coefficients
    c_r of pi_R(Ric) and c_q of pi_R(Ric^q).

    Reconstructed by feeding pi_R(Ric) and pi_R(Ric^q) through the exact
    split :func:`.decomposition.ricci_qk_split`.
    """
    sigma_qk, sigma_perp = dec.ricci_qk_split(n, c_r, c_q)
    mu = sigma_qk / (8.0 * (n + 2.0))           # R_QK part: mu (pi2 + 2 pi1)
    nu = sigma_perp / (-36.0 * (2.0 * n + 1.0) * (n - 1.0))
    c_a = (2.0 / 3.0) * mu + (1.0 - n) * nu
    c_b = (1.0 / 3.0) * mu + (2.0 * n + 1.0) * nu
    return c_a, c_b


def _scalar_formulas(n: int, b: dict) -> dict:
    """The g-coefficients of pi_R(Ric) and pi_R(Ric^q), and the R_a + R_b
    coefficients, from the scalar brackets; the two Ricci ones share
    -3 v.v - 5 s2 + 8 phi.  Ric(pi_QK R) and pi_R(Ric_QKperp) are the two
    entries of :func:`.decomposition.ricci_qk_split` of the first two.  On
    realized states each equals the value read from R (criterion 13)."""
    base = -3.0 * b["vv"] - 5.0 * b["s2"] + 8.0 * b["phi"]
    gam, s4, s5, s6 = b["Gamma"], b["S4"], b["S5"], b["S6"]
    ric = (base + 2.0 * (n + 2.0) * gam + s4 + s5 - s6) / (12.0 * n)
    ricq = 0.5 * (gam - s6 / (2.0 * n))
    return {
        "pi_R_ric": ric,
        "pi_R_ricq": ricq,
        "R_ab": np.stack(_ra_rb_coefficients(n, ric, ricq), axis=-1),
    }


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
    # S^2E S^2H: Ric^q = -n G - P and 3 Ric = N0 - (n+2) G - P + Q, with
    # G = sum_A gamma_A(X, A Y); only the S^2E S^2H part of G enters, and it
    # is replaced through d^2 Omega
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
    ds = 0.0
    if state.D is not None:     # the theta-contraction of each D(W; .)
        ds -= np.trace(tor.theta(m, state.D))
    if state.t is not None:
        ds -= tor.theta(m, state.t) @ np.einsum("imi->m", state.t)
    return float(ds)


# The component-norm expansions of scal and scal^q.
#
# The coefficients below are the unique ones valid on *free* torsion
# states: the six components are mutually inequivalent, so every invariant
# quadratic form on the torsion space is a combination of the component
# norms, and tracing the Ricci formulas fixes the combination.  They were
# extracted exactly (as rationals, identical at n = 2, 3, 4) from the
# traces of the q-Ricci / Ricci formulas, which in turn are anchored by the
# quaternionic-Kaehler constants.  On realized states they give scal and
# scal^q of R (acceptance criterion 13), so they hold on shell as well.
# The commonly tabulated expansions, which differ on K3, 3H, KH, EH and the
# d*theta term and miss on realized states too, are recorded in
# tests/reference_values.py.

def _dstar_coefficient(n: int) -> float:
    # forced by the nabla~xi trace of pi_R_ric; the reference value has
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


def scalars_from_torsion(m: ModelSpace, bank: tor.TorsionBank,
                         state: TorsionState) -> tuple[float, float, float]:
    """(scal, scal^q, d* theta) from squared component norms and the gamma trace."""
    squares = (dict.fromkeys(bank.names, 0.0) if state.t is None
               else dict(zip(bank.names, bank.squared_norms(state.t.ravel()))))
    gam_tr = 0.0 if state.gammas is None else _gamma_trace(m, state.gammas)
    ds = d_star_theta(m, state)

    def combine(coefs):
        out = coefs["gamma"] * gam_tr + coefs["dstar"] * ds
        for name in tor.TORSION_COMPONENTS:
            out += coefs[name] * squares[name]
        return out

    return (combine(scal_coefficients(m.n)),
            combine(scalq_coefficients(m.n)), ds)


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
    assert abs((n + 2.0) * cq["gamma"] - 3.0 * n * c["gamma"]) < COEFF_TOL
    return out


def bhl_integrand(m: ModelSpace, bank: tor.TorsionBank,
                  state: TorsionState) -> float:
    """(n+2) scal^q - 3n scal evaluated through the scalar formulas."""
    scal, scalq, _ = scalars_from_torsion(m, bank, state)
    return (m.n + 2.0) * scalq - 3.0 * m.n * scal
