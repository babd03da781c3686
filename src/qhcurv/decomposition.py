"""Irreducible decomposition of the curvature space under Sp(n)Sp(1).

The space R splits first under the larger quaternionic group into the three
L-eigenspaces (eigenvalues 6, 2, -6), refined by L_sigma (12/0/-12 within
L=6, 4/-4 within L=2, 0 on L=-6), and then into fifteen fine components
under Sp(n)Sp(1).  L and L_sigma keep the line-count grade of a pair
coordinate, so the six joint (L, L_sigma) eigenspaces are built one grade
at a time: ``eigh`` of L on the grade's rows (the Casimir matrices of
:func:`.curvature_space.casimir_matrices`, with L_sigma = 3 M - L on R),
then ``eigh`` of L_sigma inside each L-eigenspace of the grade.  Every
eigenvalue must sit within ``EIG_TOL`` of its expected value.
Components carrying Ricci curvature are the images of explicit constructor
maps applied to bilinear forms; each Ricci-kernel component is the
orthogonal complement of those images inside its joint eigenspace.

Each component is stored as an orthonormal basis (rows) in the scaled pair
coordinates of :mod:`.curvature_space`, so projections are plain matrix
products and ranks are row counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curvature_space as cs
from . import tensor_ops as top
from .model_space import ModelSpace

# ---------------------------------------------------------------------------
# Component names.

#: Fine components in the listing order of the summary decomposition.
FINE_COMPONENTS = (
    "S4E", "V22", "L20E_a", "R_a",
    "L40E", "L20E_b", "R_b",
    "V31S2H", "S2ES2H_a",
    "V211S2H", "S2ES2H_b", "L20ES2H",
    "V22S4H", "L20ES4H", "S4H",
)

#: Coarse blocks and the quaternionic-Kaehler split.
COARSE_COMPONENTS = ("L6", "L2", "Lm6", "QK", "QKperp", "R_QK", "R_QKperp")

#: Fine components whose rank is zero at low n.
ZERO_AT_N = {2: ("L40E", "L20E_b", "V211S2H"), 3: ("L40E",)}


def dim_R(n: int) -> int:
    """dim R = (4/3) n^2 (16 n^2 - 1)."""
    return 4 * n * n * (16 * n * n - 1) // 3


def dim_QK(n: int) -> int:
    """dim QK = (1/6)(4n^4 + 12n^3 + 11n^2 + 3n + 6)."""
    return (4 * n ** 4 + 12 * n ** 3 + 11 * n ** 2 + 3 * n + 6) // 6


def expected_fine_dims(n: int) -> dict:
    """Real dimensions of the fine components (degenerate low-n cases included)."""
    e = 2 * n                        # complex dimension of E
    l20e = e * (e - 1) // 2 - 1      # Lambda^2_0 E
    s2e = n * (2 * n + 1)            # S^2 E
    u22 = e * e * (e * e - 1) // 12
    u31 = e * (e + 2) * (e * e - 1) // 8
    u211 = (e * (e - 1) // 2) * s2e - u31
    v22 = u22 - l20e - 1
    v31 = u31 - s2e
    v211 = max(u211 - s2e - l20e, 0)
    l40e = max(math.comb(e, 4) - math.comb(e, 2), 0)
    dims = {
        "S4E": math.comb(e + 3, 4),
        "V22": v22,
        "L20E_a": l20e,
        "R_a": 1,
        "L40E": l40e,
        "L20E_b": 0 if n == 2 else l20e,
        "R_b": 1,
        "V31S2H": 3 * v31,
        "S2ES2H_a": 3 * s2e,
        "V211S2H": 3 * v211,
        "S2ES2H_b": 3 * s2e,
        "L20ES2H": 3 * l20e,
        "V22S4H": 5 * v22,
        "L20ES4H": 5 * l20e,
        "S4H": 5,
    }
    assert sum(dims.values()) == dim_R(n)
    return dims


#: L / L_sigma eigenvalues per fine component.
COMPONENT_SPECTRUM = {
    "S4E": (6, 12), "V22": (6, 0), "L20E_a": (6, 0), "R_a": (6, 0),
    "L40E": (6, -12), "L20E_b": (6, -12), "R_b": (6, -12),
    "V31S2H": (2, 4), "S2ES2H_a": (2, 4),
    "V211S2H": (2, -4), "S2ES2H_b": (2, -4), "L20ES2H": (2, -4),
    "V22S4H": (-6, 0), "L20ES4H": (-6, 0), "S4H": (-6, 0),
}


# ---------------------------------------------------------------------------
# Constructor maps (2-forms x 2-forms -> rank 4, and symmetric analogues).

def _slot_diff(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A_(1) - A_(2)) b."""
    return top.slot_act(A, 1, b) - top.slot_act(A, 2, b)


def _slot_sum(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A_(1) + A_(2)) b."""
    return top.slot_act(A, 1, b) + top.slot_act(A, 2, b)


def phi(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """phi(b x c) = 6 b . c - b ^ c on 2-forms."""
    return 6.0 * top.odot(b, c) - top.wedge2(b, c)


def Phi_map(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Phi(b x c) = sum_A phi((A1+A2)b, (A1+A2)c) on 2-forms."""
    out = 0.0
    for A in m.triple:
        sb, sc = _slot_sum(A, b), _slot_sum(A, c)
        out = out + 6.0 * top.odot(sb, sc) - top.wedge2(sb, sc)
    return out


def psi(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """psi(b x c)(x,y,z,u) = b(x,z)c(y,u) - b(x,u)c(y,z) + (b <-> c)."""
    return (np.einsum("xz,yu->xyzu", b, c) - np.einsum("xu,yz->xyzu", b, c)
            + np.einsum("xz,yu->xyzu", c, b) - np.einsum("xu,yz->xyzu", c, b))


def varphi(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """varphi(b x c) = sum_A psi((A1-A2)b, (A1-A2)c) on 2-forms."""
    out = 0.0
    for A in m.triple:
        out = out + psi(_slot_diff(A, b), _slot_diff(A, c))
    return out


def vartheta(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """vartheta(b x c) = sum_A phi((A1-A2)b, (A1-A2)c) on symmetric 2-tensors."""
    out = 0.0
    for A in m.triple:
        db, dc = _slot_diff(A, b), _slot_diff(A, c)
        out = out + 6.0 * top.odot(db, dc) - top.wedge2(db, dc)
    return out


def Psi_map(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Psi(b x c) = sum_A psi((A1+A2)b, (A1+A2)c) on symmetric 2-tensors."""
    out = 0.0
    for A in m.triple:
        out = out + psi(_slot_sum(A, b), _slot_sum(A, c))
    return out


def l20es2h_embed(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Embedding of a 2-form b in Lambda^2_0 E S^2 H into the curvature space:

    R = sum_A (6 (A1+A2)b . omega_A - (A1+A2)b ^ omega_A).
    """
    out = 0.0
    for A, w in zip(m.triple, m.omegas):
        sb = _slot_sum(A, b)
        out = out + 6.0 * top.odot(sb, w) - top.wedge2(sb, w)
    return out


def triple_embed(m: ModelSpace, b_triple) -> np.ndarray:
    """R = sum_A (6 b_A . omega_A - b_A ^ omega_A) for a triple of 2-forms."""
    out = 0.0
    for b, w in zip(b_triple, m.omegas):
        out = out + 6.0 * top.odot(b, w) - top.wedge2(b, w)
    return out


# ---------------------------------------------------------------------------
# Bank construction.

@dataclass
class ComponentBasis:
    """Orthonormal basis (rows, pair coordinates) of one component."""

    name: str
    rows: np.ndarray

    @property
    def rank(self) -> int:
        return self.rows.shape[0]


@dataclass
class ProjectorBank:
    """Fine component bases plus the coarse L-blocks and the QK split."""

    model: ModelSpace
    scheme: cs.PairScheme
    fine: dict
    blocks: dict
    qk: np.ndarray
    qkperp: np.ndarray
    log: list = field(default_factory=list)

    def basis(self, name: str) -> np.ndarray:
        if name in self.fine:
            return self.fine[name].rows
        if name in self.blocks:
            return self.blocks[name]
        if name == "QK":
            return self.qk
        if name == "QKperp":
            return self.qkperp
        raise KeyError(f"unknown component {name!r}")

    def rank(self, name: str) -> int:
        return self.basis(name).shape[0]

    def coords(self, R: np.ndarray) -> np.ndarray:
        return cs.to_pair_coords(self.scheme, R)

    def project(self, R: np.ndarray, name: str) -> np.ndarray:
        """Orthogonal projection of a curvature tensor onto a component."""
        B = self.basis(name)
        v = self.coords(R)
        return cs.from_pair_coords(self.scheme, B.T @ (B @ v))

    def component_norm(self, R: np.ndarray, name: str) -> float:
        B = self.basis(name)
        return float(np.linalg.norm(B @ self.coords(R)))


#: Absolute singular-value floor for image/remainder spaces that may be
#: exactly zero: unit parameters map to images of norm 0 or >= O(1), with
#: observed roundoff <= 1e-11, so 1e-6 separates the two regimes safely.
IMAGE_FLOOR = 1e-6


def _sweep_images(m: ModelSpace, ps: cs.PairScheme, param_basis,
                  constructor) -> np.ndarray:
    """Orthonormalized images of a constructor over a parameter basis."""
    rows = [cs.to_pair_coords(ps, constructor(p)) for p in param_basis]
    return cs.orthonormal_rows(np.array(rows), floor=IMAGE_FLOOR)


#: Largest distance allowed between a computed L or L_sigma eigenvalue and
#: the expected one; a build that needs more raises instead of guessing.
EIG_TOL = 1e-8

#: L-blocks with their L-eigenvalue and the L_sigma eigenvalues inside them.
L_BLOCKS = {"L6": (6, (12, 0, -12)), "L2": (2, (4, -4)), "Lm6": (-6, (0,))}


def _eigenspaces(H: np.ndarray, expected, what: str) -> dict:
    """Orthonormal eigenvector columns of symmetric H, grouped by expected value.

    Every eigenvalue must lie within EIG_TOL of one expected value; ``what``
    names the operator and the grade in the error."""
    w, V = np.linalg.eigh(H)
    expected = np.asarray(expected, dtype=float)
    nearest = np.argmin(np.abs(w[:, None] - expected[None, :]), axis=1)
    off = np.abs(w - expected[nearest])
    if not np.all(off <= EIG_TOL):
        raise ArithmeticError(
            f"{what}: eigenvalue {w[np.argmax(off)]} is {np.max(off)} away from "
            f"the expected values {expected.tolist()}")
    return {float(e): V[:, nearest == k] for k, e in enumerate(expected)}


def _scatter(pieces, width: int) -> np.ndarray:
    """Stack (coords, rows) pieces into full-width rows, zero off ``coords``."""
    out = np.zeros((sum(rows.shape[0] for _, rows in pieces), width))
    at = 0
    for coords, rows in pieces:
        out[at:at + rows.shape[0], coords] = rows
        at += rows.shape[0]
    return out


def build_gl_projectors(m: ModelSpace, ps: cs.PairScheme | None = None) -> tuple[dict, dict]:
    """The L-eigenblocks and joint (L, L_sigma) eigenspaces of R, one grade
    at a time.

    On each line-count grade, ``eigh`` of the Casimir matrix of L splits the
    grade's rows by L-eigenvalue, and ``eigh`` of L_sigma inside each of
    those splits them again.  Returns (blocks, joint): ``blocks`` maps L6,
    L2, Lm6 to orthonormal rows in pair coordinates and ``all`` to the basis
    of R; ``joint`` maps each (L, L_sigma) eigenvalue pair to its rows."""
    ps = ps or cs.pair_scheme(m.dim)
    R_rows = cs.curvature_basis(m, ps)
    pieces = {(lam, mu): [] for lam, mus in L_BLOCKS.values() for mu in mus}
    for grade in cs.basis_grades(m, ps, R_rows):
        L_g, Lsigma_g = cs.casimir_matrices(m, ps, grade.coords, grade.rows)
        spaces = _eigenspaces(L_g, [lam for lam, _ in L_BLOCKS.values()],
                              f"L on grade {grade.counts}")
        for name, (lam, mus) in L_BLOCKS.items():
            V = spaces[lam]
            sub = _eigenspaces(V.T @ Lsigma_g @ V, mus,
                               f"L_sigma on {name}, grade {grade.counts}")
            for mu in mus:
                pieces[lam, mu].append((grade.coords, (V @ sub[mu]).T @ grade.rows))
    joint = {key: _scatter(parts, ps.m * ps.m) for key, parts in pieces.items()}
    blocks = {name: np.vstack([joint[lam, mu] for mu in mus])
              for name, (lam, mus) in L_BLOCKS.items()}
    blocks["all"] = R_rows
    return blocks, joint


def _complement(space: np.ndarray, *images: np.ndarray) -> np.ndarray:
    """Orthogonal complement of the constructor images inside ``space``."""
    return cs.null_space_rows(np.vstack(images) @ space.T) @ space


def build_sp_projectors(m: ModelSpace) -> ProjectorBank:
    """Construct the full fine bank, the coarse blocks, and the QK split."""
    ps = cs.pair_scheme(m.dim)
    blocks, joint = build_gl_projectors(m, ps)
    log = []

    g = m.g
    l20e_basis = [b.reshape(m.dim, m.dim)
                  for b in cs.bilinear_component_basis(m, "L20E")]
    s2es2h_basis = [b.reshape(m.dim, m.dim)
                    for b in cs.bilinear_component_basis(m, "S2ES2H")]
    l20es2h_forms = [b.reshape(m.dim, m.dim)
                     for b in cs.bilinear_component_basis(m, "L20ES2H")]

    fine = {}

    def add(name, rows):
        fine[name] = ComponentBasis(name=name, rows=rows)
        log.append(f"{name}: rank {rows.shape[0]}")

    def images(*names):
        return [fine[nm].rows for nm in names]

    # --- L = 6 block ------------------------------------------------------
    add("S4E", joint[6, 12])
    add("R_a", cs.orthonormal_rows(
        cs.to_pair_coords(ps, m.pi2 + 6.0 * m.pi1)[None, :]))
    add("L20E_a", _sweep_images(
        m, ps, l20e_basis,
        lambda b: vartheta(m, b, g) + 12.0 * psi(b, g)))
    add("R_b", cs.orthonormal_rows(
        cs.to_pair_coords(ps, m.pi2 - 6.0 * m.pi1)[None, :]))
    add("L20E_b", _sweep_images(
        m, ps, l20e_basis,
        lambda b: vartheta(m, b, g) - 12.0 * psi(b, g)))
    add("V22", _complement(joint[6, 0], *images("R_a", "L20E_a")))
    add("L40E", _complement(joint[6, -12], *images("R_b", "L20E_b")))

    # --- L = 2 block ------------------------------------------------------
    add("S2ES2H_a", _sweep_images(
        m, ps, s2es2h_basis,
        lambda b: vartheta(m, b, g) + 4.0 * psi(b, g)))
    add("V31S2H", _complement(joint[2, 4], *images("S2ES2H_a")))
    add("S2ES2H_b", _sweep_images(
        m, ps, s2es2h_basis,
        lambda b: vartheta(m, b, g) - 12.0 * psi(b, g)))
    add("L20ES2H", _sweep_images(
        m, ps, l20es2h_forms, lambda b: l20es2h_embed(m, b)))
    add("V211S2H", _complement(joint[2, -4], *images("S2ES2H_b", "L20ES2H")))

    # --- L = -6 block -----------------------------------------------------
    add("L20ES4H", _sweep_images(
        m, ps, _constrained_triples(m, l20es2h_forms),
        lambda bt: triple_embed(m, bt)))
    add("S4H", _sweep_images(
        m, ps, _constrained_triples(m, [w.copy() for w in m.omegas]),
        lambda bt: triple_embed(m, bt)))
    add("V22S4H", _complement(joint[-6, 0], *images("L20ES4H", "S4H")))

    # --- QK split ---------------------------------------------------------
    ray_qk = cs.orthonormal_rows(
        cs.to_pair_coords(ps, m.pi2 + 2.0 * m.pi1)[None, :])[0]
    n = m.n
    ray_qkperp = cs.orthonormal_rows(
        cs.to_pair_coords(ps, (n + 2.0) * m.pi2 - 18.0 * n * m.pi1)[None, :])[0]
    qk = np.vstack([fine["S4E"].rows, ray_qk[None, :]])
    perp_names = [nm for nm in FINE_COMPONENTS if nm not in ("S4E", "R_a", "R_b")]
    qkperp = np.vstack([ray_qkperp[None, :]]
                       + [fine[nm].rows for nm in perp_names if fine[nm].rank])

    return ProjectorBank(model=m, scheme=ps, fine=fine, blocks=blocks,
                         qk=qk, qkperp=qkperp, log=log)


def _constrained_triples(m: ModelSpace, form_basis_mats):
    """Triples (b_I, b_J, b_K) from a 2-form space with sum_A A_(2) b_A = 0.

    Returns a list of triples of matrices spanning the constrained parameter
    space, orthonormal in the triple inner product.
    """
    k = len(form_basis_mats)
    d = m.dim
    # constraint matrix (d*d) x (3k): column (A, j) holds A_(2) b_j
    constraint = np.zeros((d * d, 3 * k))
    for a_idx, A in enumerate(m.triple):
        for j, b in enumerate(form_basis_mats):
            constraint[:, a_idx * k + j] = top.slot_act(A, 2, b).ravel()
    kernel = cs.null_space_rows(constraint)
    triples = []
    for coeff in kernel:
        bt = []
        for a_idx in range(3):
            mat = sum(coeff[a_idx * k + j] * form_basis_mats[j] for j in range(k))
            bt.append(mat)
        triples.append(bt)
    return triples


# ---------------------------------------------------------------------------
# Queries.

def project_component(bank: ProjectorBank, R, name: str):
    """Orthogonal projection of R onto a named component, with its norm."""
    tensor = R.require_certified() if isinstance(R, cs.CurvatureTensor) else R
    comp = bank.project(tensor, name)
    return comp, top.frob(comp)


def component_norms(bank: ProjectorBank, R) -> dict:
    tensor = R.require_certified() if isinstance(R, cs.CurvatureTensor) else R
    v = bank.coords(tensor)
    return {name: float(np.linalg.norm(bank.fine[name].rows @ v))
            for name in FINE_COMPONENTS}


def ric_qk_scalars(bank: ProjectorBank, R) -> tuple[np.ndarray, np.ndarray]:
    """(Ric of the QK part, R-part of Ric of the QKperp part) of R,
    via the closed formulas; consistency with direct projection is tested."""
    m = bank.model
    tensor = R.require_certified() if isinstance(R, cs.CurvatureTensor) else R
    n = m.n
    ric = cs.ricci(tensor)
    ricq = cs.ricci_q(m, tensor)
    pr = (np.trace(ric) / m.dim) * m.g
    prq = (np.trace(ricq) / m.dim) * m.g
    ric_qk = (n + 2.0) / (2.0 * (5.0 * n + 1.0)) * (pr + 3.0 * prq)
    pr_ric_qkperp = 9.0 * n / (2.0 * (5.0 * n + 1.0)) * (pr - (n + 2.0) / (3.0 * n) * prq)
    return ric_qk, pr_ric_qkperp


def qk_einstein_verify(bank: ProjectorBank, R, tol: float = 1e-9) -> tuple[float, dict]:
    """For R in QK: extract c from Ric = (n+2) c g and verify the Einstein laws.

    Returns (c, residuals); raises if R has a QKperp part above tolerance.
    """
    m = bank.model
    tensor = R.require_certified() if isinstance(R, cs.CurvatureTensor) else R
    scale = max(top.frob(tensor), 1e-300)
    perp = bank.component_norm(tensor, "QKperp")
    if not perp <= tol * scale:
        raise ValueError(f"R is not in QK: perp fraction {perp / scale}")
    n = m.n
    ric = cs.ricci(tensor)
    c = float(np.trace(ric)) / (m.dim * (n + 2.0))
    resid = {
        "ric": top.frob(ric - (n + 2.0) * c * m.g),
        "ricq": top.frob(cs.ricci_q(m, tensor) - 3.0 * n * c * m.g),
        "pi_ra_rb": top.frob(
            bank.project(tensor, "R_a") + bank.project(tensor, "R_b")
            - (c / 8.0) * (m.pi2 + 2.0 * m.pi1)),
    }
    for A, name in zip(m.triple, "IJK"):
        resid[f"ric_star_{name}"] = top.frob(cs.ricci_star(tensor, A) - n * c * m.g)
    return c, {k: v / scale for k, v in resid.items()}


# ---------------------------------------------------------------------------
# Dimension audit.

@dataclass
class DecompositionReport:
    """Per-component ranks and verification residuals."""

    n: int
    ranks: dict
    expected: dict
    dim_R: int
    dim_R_formula: int
    dim_QK: int
    dim_QK_formula: int
    zero_components: tuple
    eigen_residuals: dict
    algebra_residuals: dict
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "ranks": dict(self.ranks),
            "expected_ranks": dict(self.expected),
            "dim_R": self.dim_R,
            "dim_R_formula": self.dim_R_formula,
            "dim_QK": self.dim_QK,
            "dim_QK_formula": self.dim_QK_formula,
            "zero_components": list(self.zero_components),
            "eigen_residuals": dict(self.eigen_residuals),
            "algebra_residuals": dict(self.algebra_residuals),
            "failures": list(self.failures),
        }


def dimension_audit(bank: ProjectorBank, tol: float = 1e-9) -> DecompositionReport:
    """Check ranks against the closed formulas, eigenvalue residuals (first,
    middle and last row per component), and the projector algebra."""
    m = bank.model
    ps = bank.scheme
    n = m.n
    failures = []

    ranks = {name: bank.fine[name].rank for name in FINE_COMPONENTS}
    expected = expected_fine_dims(n)
    for name in FINE_COMPONENTS:
        if ranks[name] != expected[name]:
            failures.append(f"rank({name}) = {ranks[name]}, expected {expected[name]}")

    total = sum(ranks.values())
    if total != dim_R(n):
        failures.append(f"sum of fine ranks {total} != dim R {dim_R(n)}")
    if bank.qk.shape[0] != dim_QK(n):
        failures.append(f"dim QK {bank.qk.shape[0]} != {dim_QK(n)}")

    zero = ZERO_AT_N.get(n, ())
    for name in zero:
        if ranks[name] != 0:
            failures.append(f"component {name} should vanish at n={n}")

    eigen_residuals = {}
    for name in FINE_COMPONENTS:
        rows = bank.fine[name].rows
        if rows.shape[0] == 0:
            eigen_residuals[name] = 0.0
            continue
        lam, mu = COMPONENT_SPECTRUM[name]
        resid = []
        # rows are stacked grade by grade: sample both ends and the middle
        k = rows.shape[0]
        for row in rows[sorted({0, k // 2, k - 1})]:
            T = cs.from_pair_coords(ps, row)
            resid += [top.frob(cs.L_map(m, T) - lam * T),
                      top.frob(cs.L_sigma_map(m, T) - mu * T)]
        worst = float(np.max(resid))      # np.max keeps a NaN, max() drops it
        eigen_residuals[name] = worst
        if not worst <= tol:
            failures.append(f"eigen residual of {name}: {worst}")

    # projector algebra: completeness and pairwise orthogonality
    stacked = np.vstack([bank.fine[name].rows for name in FINE_COMPONENTS
                         if bank.fine[name].rank])
    gram = stacked @ stacked.T
    ortho = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    all_rows = bank.blocks["all"]
    overlap = stacked @ all_rows.T
    completeness = float(np.max(np.abs(overlap.T @ overlap - np.eye(all_rows.shape[0]))))
    algebra = {"orthonormality": ortho, "completeness": completeness}
    if not ortho <= tol:
        failures.append(f"component bases not orthonormal: {ortho}")
    if not completeness <= tol:
        failures.append(f"fine components do not fill R: {completeness}")

    return DecompositionReport(
        n=n, ranks=ranks, expected=expected,
        dim_R=total, dim_R_formula=dim_R(n),
        dim_QK=bank.qk.shape[0], dim_QK_formula=dim_QK(n),
        zero_components=zero, eigen_residuals=eigen_residuals,
        algebra_residuals=algebra, failures=failures)
