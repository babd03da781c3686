"""The space R of algebraic curvature tensors and its equivariant operators.

A rank-4 tensor belongs to R when it is antisymmetric in slots (1,2) and
(3,4), symmetric under pair exchange, and satisfies the first Bianchi
identity (equivalently, its fully antisymmetric part vanishes: R is the
kernel of the wedging map S^2(Lambda^2 V*) -> Lambda^4 V*).

This module provides membership certification, orthogonal projection onto
R, seeded random sampling, the equivariant endomorphisms L and L_sigma
whose joint spectrum separates the coarse components, the Ricci-type
contractions, the probe tensors realizing the L-eigenvalues, and the
bilinear-form projectors on S^2 V* and Lambda^2 V*.

Coordinates: tensors with the two pair antisymmetries are stored, when
linear algebra over subspaces is needed, as matrices over the m = C(4n, 2)
increasing index pairs, flattened and scaled so that the Euclidean inner
product of coordinate vectors equals the raw rank-4 contraction.  In these
coordinates R has a closed-form orthonormal basis, and L is the Sp(1)
Casimir 6 + (1/2) sum_A rho(A)^2 with rho(A) C = D_A C + C D_A^T.  On R,
L_sigma = 3 M - L with M = sum_A (A_(1)A_(2) + A_(3)A_(4)); this does not
hold off R.  Both operators keep the line-count grade of a coordinate (how
many of its four indices fall in each quaternionic line), and every
closed-form row of R lies in one grade.  :func:`basis_grades` splits the
basis by grade, and :func:`casimir_matrices` gives L and L_sigma on one
grade's rows, with the Kronecker operators restricted to that grade's
coordinates.  The tensor-level :func:`L_map` and :func:`L_sigma_map` stay
as independent oracles.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor_ops as top
from .model_space import ModelSpace

#: Relative certification threshold for curvature symmetries.
CERT_TOL = 1e-10


class CertificationError(ValueError):
    """Raised when a tensor fails the curvature symmetry checks."""


# ---------------------------------------------------------------------------
# Membership and projection.

def curvature_residuals(R: np.ndarray) -> dict:
    """Relative residuals of the four curvature symmetry conditions."""
    scale = max(top.frob(R), 1e-300)
    return {
        "antisym_12": top.frob(R + R.swapaxes(0, 1)) / scale,
        "antisym_34": top.frob(R + R.swapaxes(2, 3)) / scale,
        "pair_exchange": top.frob(R - R.transpose(2, 3, 0, 1)) / scale,
        "bianchi": top.frob(top.alt(R)) / scale,
    }


@dataclass
class CurvatureTensor:
    """A rank-4 tensor certified to lie in R."""

    tensor: np.ndarray
    certified: bool = False

    @classmethod
    def certify(cls, R: np.ndarray, tol: float = CERT_TOL) -> "CurvatureTensor":
        resid = curvature_residuals(R)
        bad = {k: v for k, v in resid.items() if not v <= tol}
        if bad:
            raise CertificationError(f"curvature symmetry residuals too large: {bad}")
        return cls(tensor=np.asarray(R, dtype=float), certified=True)

    def require_certified(self) -> np.ndarray:
        if not self.certified:
            raise CertificationError("operation requires a certified curvature tensor")
        return self.tensor

    # Ricci-type contractions with the certification contract enforced.
    def ricci(self) -> np.ndarray:
        return ricci(self.require_certified())

    def ricci_q(self, m: ModelSpace) -> np.ndarray:
        return ricci_q(m, self.require_certified())

    def ricci_star(self, A: np.ndarray) -> np.ndarray:
        return ricci_star(self.require_certified(), A)

    def scal(self) -> float:
        return scal(self.require_certified())

    def scal_q(self, m: ModelSpace) -> float:
        return scal_q(m, self.require_certified())


def has_pair_symmetries(S: np.ndarray, tol: float = CERT_TOL) -> bool:
    scale = max(top.frob(S), 1e-300)
    return (top.frob(S + S.swapaxes(0, 1)) <= tol * scale
            and top.frob(S + S.swapaxes(2, 3)) <= tol * scale
            and top.frob(S - S.transpose(2, 3, 0, 1)) <= tol * scale)


def project_to_R(S: np.ndarray, tol: float = CERT_TOL) -> CurvatureTensor:
    """Orthogonal projection of S in S^2(Lambda^2 V*) onto R.

    The orthogonal complement of R is Lambda^4 V*, so the projection simply
    subtracts the total antisymmetrization.
    """
    if not has_pair_symmetries(S, tol):
        raise CertificationError("input lacks the pair symmetries of S^2(Lambda^2)")
    return CurvatureTensor.certify(S - top.alt(S), tol)


def substream(*key_parts) -> np.random.Generator:
    """Deterministic counter-based substream keyed by an arbitrary path.

    Philox is splittable: distinct keys give statistically independent
    streams, so sampling is independent of evaluation order.
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
# The equivariant endomorphisms L and L_sigma.

def L_map(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """L(R) = sum over slot pairs i < j and A of A_(i) A_(j) R."""
    out = np.zeros_like(R)
    for A in m.triple:
        for i, j in itertools.combinations(range(1, 5), 2):
            out += top.pair_act(A, i, j, R)
    return out


def L_sigma_map(m: ModelSpace, R: np.ndarray) -> np.ndarray:
    """L_sigma(R) = sum_A (A1A2 + A2A3 s + A1A3 s^2 + A3A4 + A1A4 s + A2A4 s^2) R

    with s the cyclic permutation s R(x,y,z,u) = R(z,x,y,u); slot actions are
    applied after the permutation.
    """
    s1 = top.sigma_perm(R)
    s2 = top.sigma_perm(s1)
    out = np.zeros_like(R)
    for A in m.triple:
        out += top.pair_act(A, 1, 2, R) + top.pair_act(A, 3, 4, R)
        out += top.pair_act(A, 2, 3, s1) + top.pair_act(A, 1, 4, s1)
        out += top.pair_act(A, 1, 3, s2) + top.pair_act(A, 2, 4, s2)
    return out


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
    return sum(ricci_star(R, A) for A in m.triple)


def scal(R: np.ndarray) -> float:
    """Scalar curvature: trace of Ric."""
    return float(np.einsum("xixi->", R))


def scal_q(m: ModelSpace, R: np.ndarray) -> float:
    """q-scalar curvature: trace of Ric^q."""
    return float(np.trace(ricci_q(m, R)))


# ---------------------------------------------------------------------------
# Probe tensors with known L-eigenvalues (-6, 6, 2).

def _one_form_c(m: ModelSpace, a: np.ndarray, which: str) -> np.ndarray:
    """Complex one-forms restricting the E*-H* generators to V.

    ``which`` selects the H*-factor: 'h' gives J a - i K a and 'ht' gives
    a + i I a, with (A a)(x) = -a(A x) realized as the matrix-vector product
    A @ a for skew orthogonal A.
    """
    I, J, K = m.triple
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
# sum_A A b = -b; S^2 H is the span of the omega_A.

def _sum_full_act2(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """sum_A b(A., A.) for a bilinear form b."""
    return sum(np.einsum("xa,yb,ab->xy", A, A, b) for A in m.triple)


# The six bilinear-form projectors.  Each starts by projecting onto the
# symmetric (resp. antisymmetric) part, so they are genuine orthogonal
# projectors on arbitrary bilinear forms; the curvature-from-torsion
# formulas feed them free-state values whose symmetry is not guaranteed.

def proj_sym_R(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Trace part: (tr b / 4n) g."""
    return (np.trace(b) / m.dim) * m.g


def proj_sym_S2ES2H(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """S^2 E S^2 H part (symmetric, eigenvalue -1 of sum_A A)."""
    s = top.sym2(b)
    return (3.0 * s - _sum_full_act2(m, s)) / 4.0


def proj_sym_L20E(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Lambda^2_0 E part (symmetric, A-invariant, trace-free)."""
    s = top.sym2(b)
    return s - proj_sym_R(m, s) - proj_sym_S2ES2H(m, s)


def proj_form_S2E(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """S^2 E part of a 2-form (A b = b for all A)."""
    a = top.asym2(b)
    return (a + _sum_full_act2(m, a)) / 4.0


def proj_form_S2H(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Component in span{omega_I, omega_J, omega_K}."""
    a = top.asym2(b)
    out = np.zeros_like(a)
    for w in m.omegas:
        out += (top.p_form_inner(a, w) / (2 * m.n)) * w
    return out


def proj_form_L20ES2H(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Lambda^2_0 E S^2 H part of a 2-form."""
    a = top.asym2(b)
    return a - proj_form_S2E(m, a) - proj_form_S2H(m, a)


def _basis_from_projector(apply_proj, seed_mats, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (rows, flattened) of the image of a projector."""
    rows = [apply_proj(s).ravel() for s in seed_mats]
    return orthonormal_rows(np.array(rows), tol)


def sym_basis(dim: int):
    """Spanning set of symmetric matrices (e_ii and e_ij + e_ji)."""
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim))
        e[i, i] = 1.0
        out.append(e)
    for i, j in itertools.combinations(range(dim), 2):
        e = np.zeros((dim, dim))
        e[i, j] = e[j, i] = 1.0
        out.append(e)
    return out


def form_basis(dim: int):
    """Spanning set of antisymmetric matrices (e_ij - e_ji, i < j)."""
    out = []
    for i, j in itertools.combinations(range(dim), 2):
        e = np.zeros((dim, dim))
        e[i, j], e[j, i] = 1.0, -1.0
        out.append(e)
    return out


def bilinear_component_basis(m: ModelSpace, name: str, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (rows of flattened matrices, Frobenius metric) of a
    bilinear-form component; names: R, L20E, S2ES2H (symmetric side) and
    S2E, S2H, L20ES2H (2-form side)."""
    proj = {
        "R": proj_sym_R, "L20E": proj_sym_L20E, "S2ES2H": proj_sym_S2ES2H,
        "S2E": proj_form_S2E, "S2H": proj_form_S2H, "L20ES2H": proj_form_L20ES2H,
    }[name]
    seeds = sym_basis(m.dim) if name in ("R", "L20E", "S2ES2H") else form_basis(m.dim)
    return _basis_from_projector(lambda b: proj(m, b), seeds, tol)


# ---------------------------------------------------------------------------
# Pair coordinates for tensors antisymmetric in (1,2) and (3,4).

@dataclass(frozen=True)
class PairScheme:
    """Index bookkeeping for the m = C(dim,2) increasing pairs."""

    dim: int
    pairs: tuple
    first: np.ndarray
    second: np.ndarray
    pair_index: np.ndarray  # (dim, dim) -> pair id (diagonal: 0, masked by sign)
    sign: np.ndarray        # (dim, dim): +1 for i<j, -1 for i>j, 0 diagonal

    @property
    def m(self) -> int:
        return len(self.pairs)


def pair_scheme(dim: int) -> PairScheme:
    pairs = tuple(itertools.combinations(range(dim), 2))
    first = np.array([p[0] for p in pairs])
    second = np.array([p[1] for p in pairs])
    pair_index = np.zeros((dim, dim), dtype=int)
    sign = np.zeros((dim, dim))
    for idx, (i, j) in enumerate(pairs):
        pair_index[i, j] = pair_index[j, i] = idx
        sign[i, j], sign[j, i] = 1.0, -1.0
    return PairScheme(dim=dim, pairs=pairs, first=first, second=second,
                      pair_index=pair_index, sign=sign)


def to_pair_coords(ps: PairScheme, T: np.ndarray) -> np.ndarray:
    """Flattened pair-matrix coordinates, scaled so the Euclidean inner
    product of coordinate vectors equals the raw rank-4 contraction."""
    C = T[ps.first[:, None], ps.second[:, None], ps.first[None, :], ps.second[None, :]]
    return 2.0 * C.ravel()


def from_pair_coords(ps: PairScheme, v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_pair_coords`."""
    C = v.reshape(ps.m, ps.m) / 2.0
    T = C[ps.pair_index[:, :, None, None], ps.pair_index[None, None, :, :]]
    return T * ps.sign[:, :, None, None] * ps.sign[None, None, :, :]


# ---------------------------------------------------------------------------
# Numerical range/kernel helpers (SVD thresholding).

#: Relative singular-value threshold for rank decisions.
SV_TOL = 1e-8


def orthonormal_rows(mat: np.ndarray, tol: float = SV_TOL,
                     floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the row space.

    Singular values are kept when above ``tol * s_max`` and above the
    absolute ``floor``.  The floor matters when the row space may be zero in
    exact arithmetic: a purely relative threshold would promote roundoff
    noise to full rank.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0 or not np.any(mat):
        return np.zeros((0, mat.shape[1]))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > max(tol * s[0], floor)))
    return vt[:rank]


def null_space_rows(mat: np.ndarray, tol: float = SV_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the null space of ``mat`` (acting on rows^T)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    nrows, ncols = mat.shape
    if mat.size == 0 or not np.any(mat):
        return np.eye(ncols)
    # the economy SVD already carries the complete V^T when nrows >= ncols;
    # the full one would materialize a nrows x nrows U
    u, s, vt = np.linalg.svd(mat, full_matrices=nrows < ncols)
    rank = int(np.sum(s > tol * s[0]))
    return vt[rank:]


def curvature_basis(m: ModelSpace, ps: PairScheme | None = None) -> np.ndarray:
    """Orthonormal basis of R in pair coordinates (rows), in closed form.

    A symmetric pair matrix C lies in R exactly when, for every quadruple
    i<j<k<l, C[(ij),(kl)] - C[(ik),(jl)] + C[(il),(jk)] = 0.  Entries whose
    two pairs share an index are left free, so each gets one unit row
    (e_pp, or (e_pq + e_qp)/sqrt 2).  The three entries of each quadruple,
    with symmetric units s_a, s_b, s_c, get the two orthonormal rows
    (s_a + s_b)/sqrt 2 and (s_a - s_b - 2 s_c)/sqrt 6 spanning the plane
    x_a - x_b + x_c = 0.  That makes C(m+1, 2) - C(dim, 4) rows in all.
    """
    ps = ps or pair_scheme(m.dim)
    mm = ps.m
    p, q = np.triu_indices(mm)
    shared = ((ps.first[p] == ps.first[q]) | (ps.first[p] == ps.second[q])
              | (ps.second[p] == ps.first[q]) | (ps.second[p] == ps.second[q]))
    p, q = p[shared], q[shared]
    quads = np.array(list(itertools.combinations(range(m.dim), 4)))
    i, j, k, l = quads.T
    pairs_a = (ps.pair_index[i, j], ps.pair_index[k, l])
    pairs_b = (ps.pair_index[i, k], ps.pair_index[j, l])
    pairs_c = (ps.pair_index[i, l], ps.pair_index[j, k])

    n_free, n_quad = len(p), len(quads)
    basis = np.zeros((n_free + 2 * n_quad, mm * mm))
    free = np.arange(n_free)
    unit = np.where(p == q, 1.0, np.sqrt(0.5))
    basis[free, p * mm + q] = unit
    basis[free, q * mm + p] = unit
    plane = ((np.arange(n_free, n_free + n_quad), (0.5, 0.5, 0.0)),
             (np.arange(n_free + n_quad, n_free + 2 * n_quad),
              (1.0 / np.sqrt(12.0), -1.0 / np.sqrt(12.0), -2.0 / np.sqrt(12.0))))
    for rows, weights in plane:
        for (u, v), w in zip((pairs_a, pairs_b, pairs_c), weights):
            basis[rows, u * mm + v] = w
            basis[rows, v * mm + u] = w
    return basis


# ---------------------------------------------------------------------------
# Line-count grades.
#
# Scaling one quaternionic line commutes with I, J, K, so L, M and L_sigma
# preserve the grade of a pair coordinate: how many of its four indices fall
# in each 4-dim line.  Every closed-form row of R lies inside one grade (its
# entries share one index set), so on R the Casimir is block-diagonal over
# grades: 5 blocks at n = 2, 15 at n = 3.

def _pair_line_counts(m: ModelSpace, ps: PairScheme) -> np.ndarray:
    """(m, n): how many of the two indices of each pair fall in each line."""
    line = np.eye(m.n, dtype=int)[np.arange(m.dim) // 4]   # one-hot line of each index
    return line[ps.first] + line[ps.second]


def coordinate_grades(m: ModelSpace, ps: PairScheme) -> tuple[np.ndarray, np.ndarray]:
    """(counts, label): the distinct line-count vectors, one row per grade,
    and for each of the m * m pair coordinates the index of its grade."""
    per_pair = _pair_line_counts(m, ps)
    per_coord = (per_pair[:, None, :] + per_pair[None, :, :]).reshape(-1, m.n)
    counts, label = np.unique(per_coord, axis=0, return_inverse=True)
    return counts, label.reshape(-1)


@dataclass(frozen=True)
class Grade:
    """The closed-form rows of R inside one line-count grade."""

    counts: tuple       # how many of the four indices fall in each line
    coords: np.ndarray  # the grade's pair coordinates, increasing
    rows: np.ndarray    # orthonormal rows, restricted to ``coords``


def basis_grades(m: ModelSpace, ps: PairScheme, basis: np.ndarray) -> list[Grade]:
    """Split the closed-form basis of R by grade; each row is labelled with
    the grade of its nonzero entries."""
    counts, label = coordinate_grades(m, ps)
    row_label = label[np.argmax(basis != 0, axis=1)]
    out = []
    for g, cnt in enumerate(counts):
        rows = np.flatnonzero(row_label == g)
        if rows.size:
            coords = np.flatnonzero(label == g)
            out.append(Grade(counts=tuple(int(c) for c in cnt), coords=coords,
                             rows=basis[np.ix_(rows, coords)]))
    return out


# ---------------------------------------------------------------------------
# The Sp(1) Casimir in pair coordinates.
#
# Let D_A be the m x m matrix of A_(1) + A_(2) on 2-forms in pair
# coordinates.  On a tensor with pair matrix C, rho(A) = sum_i A_(i) acts as
# rho(A) C = D_A C + C D_A^T, and since A_(i)^2 = -1,
#
#     L C = 6 C + (1/2) sum_A rho(A)^2 C,
#     M C = sum_A (A_(1)A_(2) + A_(3)A_(4)) C
#         = 6 C + (1/2) sum_A (D_A^2 C + C (D_A^2)^T).
#
# On R (and only there) L_sigma = 3 M - L.  On the flattened coordinate
# P * m + Q these are Kronecker operators (D_A^2 x 1, 1 x D_A^2, D_A x D_A),
# and D_A keeps the line counts of a pair, so each grade is invariant and its
# block is read off D_A by index arithmetic.

def _pair_derivations(m: ModelSpace, ps: PairScheme) -> np.ndarray:
    """D_I, D_J, D_K: matrices of A_(1) + A_(2) on 2-forms in pair coordinates."""
    units = np.zeros((ps.m, m.dim, m.dim))
    idx = np.arange(ps.m)
    units[idx, ps.first, ps.second] = 1.0
    units[idx, ps.second, ps.first] = -1.0
    # A_(1) b + A_(2) b = -(A^T b + b A); column p is the image of unit p
    return np.stack([-(A.T @ units + units @ A)[:, ps.first, ps.second].T
                     for A in m.triple])


def casimir_matrices(m: ModelSpace, ps: PairScheme, coords: np.ndarray,
                     rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of L and L_sigma on span(rows) in that basis.

    ``rows`` are orthonormal elements of R supported on the pair coordinates
    ``coords`` (restricted to them), which must be a union of grades.  The
    operators are formed on ``coords`` only, as
    L = 6 + half + cross and L_sigma = 3 M - L = 12 + 2 half - cross, with
    half = (1/2) sum_A (D_A^2 x 1 + 1 x D_A^2) and cross = sum_A D_A x D_A;
    the L_sigma identity holds on R only.
    """
    P, Q = np.divmod(np.asarray(coords), ps.m)
    D = _pair_derivations(m, ps)
    S = 0.5 * sum(DA @ DA for DA in D)
    # D_A keeps the line counts of a pair, so both operators are also
    # block-diagonal over the line counts of P: sandwich block by block
    _, pair_label = np.unique(_pair_line_counts(m, ps), axis=0, return_inverse=True)
    split = pair_label.reshape(-1)[P]
    bh = np.zeros((rows.shape[0],) * 2)
    bc = np.zeros_like(bh)
    for s in np.unique(split):
        on = split == s
        Ps, Qs, Bs = P[on], Q[on], rows[:, on]
        PP, QQ = np.ix_(Ps, Ps), np.ix_(Qs, Qs)
        half = S[PP] * (Qs[:, None] == Qs) + (Ps[:, None] == Ps) * S[QQ]
        cross = sum(DA[PP] * DA[QQ] for DA in D)
        bh += Bs @ half @ Bs.T
        bc += Bs @ cross @ Bs.T
    eye = np.eye(rows.shape[0])
    L_R = 6.0 * eye + bh + bc
    Lsigma_R = 12.0 * eye + 2.0 * bh - bc
    return 0.5 * (L_R + L_R.T), 0.5 * (Lsigma_R + Lsigma_R.T)
