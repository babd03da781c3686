"""Irreducible decomposition of the curvature space under Sp(n)Sp(1).

Each of the fifteen fine components of R is fixed by three commuting
operators: the Sp(1) Casimir L (eigenvalues 6, 2, -6 on the three
L-blocks), L_sigma (12/0/-12 within L=6, 4/-4 within L=2, 0 on L=-6) and
the Sp(n) Casimir ``Cas = -sum_X rho(X)^2``, whose value on a component is
<lambda, lambda + 2 rho> / 4 (:func:`.model_space.casimir_value`), lambda
the E-side highest weight stored in ``COMPONENT_SPECTRUM``.  The same
weight sizes the component: its expected rank (:func:`expected_fine_dims`)
is the Weyl dimension of lambda (:func:`.model_space.weyl_dimension`) times
dim S^k H = k + 1, with L20E_b at n = 2 the one explicit exception.  A
weight with more than n parts marks a component absent at that n.

The diagonal sign matrices of Sp(n)Sp(1) (the line flips, and
conjugation by i and by j on every line) commute with all three operators,
so every fine component is the direct sum of its parts in the
4 (C(n, 0) + C(n, 2) + C(n, 4)) sign classes of
:func:`.curvature_space.sign_classes` (8, 16, 32, 64 and 124 at n = 2 to
6), which all three operators keep.  On each class one operator,
H = (n + 2)(3 L + L_sigma) + Cas, is sandwiched by the class's block of
closed-form rows of R (:func:`.curvature_space.curvature_basis`), and one
``eigh`` of it must give only the fifteen values of :func:`h_values`,
which are at least 1 apart at every n >= 2, to
:data:`.curvature_space.EIG_TOL`, by :func:`.curvature_space._eigenspaces`,
the one rank rule outside the torsion bank.  The constructor maps below
are the paper's definitions of the components with Ricci curvature; the
tests check that their images span the components built here.

Both banks are one per-class store, :class:`ComponentBank`; the torsion
bank is it over one class.  The fifteen fine bases of R (rows in the
scaled pair coordinates of :mod:`.curvature_space`) are stored over the
sign classes, each class's stack written over its block of
closed-form rows, and the audit checks the projector algebra one class at
a time.  The L-blocks, QK and QKperp are direct sums of fine components
and the two rays that split R_a + R_b, and are read from those parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curvature_space as cs
from . import tensor_ops as top
from .model_space import ModelSpace, casimir_value, weyl_dimension

# ---------------------------------------------------------------------------
# Component names.

#: Fine components in the listing order of the summary decomposition, which
#: groups them by L-block.
FINE_COMPONENTS = (
    "S4E", "V22", "L20E_a", "R_a",
    "L40E", "L20E_b", "R_b",
    "V31S2H", "S2ES2H_a",
    "V211S2H", "S2ES2H_b", "L20ES2H",
    "V22S4H", "L20ES4H", "S4H",
)

def dim_R(n: int) -> int:
    """dim R = (4/3) n^2 (16 n^2 - 1)."""
    return 4 * n * n * (16 * n * n - 1) // 3


def dim_QK(n: int) -> int:
    """dim QK = (1/6)(4n^4 + 12n^3 + 11n^2 + 3n + 6)."""
    return (4 * n ** 4 + 12 * n ** 3 + 11 * n ** 2 + 3 * n + 6) // 6


#: Per fine component: its L and L_sigma eigenvalues, and the highest
#: weight lambda of its E-side Sp(n) module, whose Casimir value is
#: :func:`.model_space.casimir_value` and whose dimension is
#: :func:`.model_space.weyl_dimension`.  A weight with more than n parts
#: has no module at that n.
COMPONENT_SPECTRUM = {
    "S4E": (6, 12, (4,)), "V22": (6, 0, (2, 2)), "L20E_a": (6, 0, (1, 1)), "R_a": (6, 0, ()),
    "L40E": (6, -12, (1, 1, 1, 1)), "L20E_b": (6, -12, (1, 1)), "R_b": (6, -12, ()),
    "V31S2H": (2, 4, (3, 1)), "S2ES2H_a": (2, 4, (2,)),
    "V211S2H": (2, -4, (2, 1, 1)), "S2ES2H_b": (2, -4, (2,)), "L20ES2H": (2, -4, (1, 1)),
    "V22S4H": (-6, 0, (2, 2)), "L20ES4H": (-6, 0, (1, 1)), "S4H": (-6, 0, ()),
}


def expected_fine_dims(n: int) -> dict:
    """Real dimensions of the fine components: the Weyl dimension of each
    E-side weight times k + 1 = dim S^k H, where L = 6 - k(k + 2)/2 gives
    k + 1 = isqrt(13 - 2 L).  A weight with more than n parts has dimension 0."""
    dims = {name: weyl_dimension(weight, n) * math.isqrt(13 - 2 * lam)
            for name, (lam, _, weight) in COMPONENT_SPECTRUM.items()}
    if n == 2:
        # L20E_b lies in the L_sigma = -12 block, Lambda^4 E, which at n = 2
        # is Lambda^0 E alone: the one zero that no weight's length shows
        dims["L20E_b"] = 0
    assert sum(dims.values()) == dim_R(n)
    return dims


#: L-blocks with their L-eigenvalue.
L_BLOCKS = {"L6": 6, "L2": 2, "Lm6": -6}

#: The unit rays pi2 + 2 pi1 (in QK) and (n + 2) pi2 - 18 n pi1 (in QKperp),
#: which split R_a + R_b.
RAYS = ("QK_ray", "QKperp_ray")

#: Every other named space, as the fine components and rays it is the
#: direct sum of.  The L-blocks are contiguous in FINE_COMPONENTS.
COMPOSITES = {
    **{name: tuple(c for c in FINE_COMPONENTS if COMPONENT_SPECTRUM[c][0] == lam)
       for name, lam in L_BLOCKS.items()},
    "QK": ("S4E", "QK_ray"),
    "QKperp": ("QKperp_ray",) + tuple(c for c in FINE_COMPONENTS
                                      if c not in ("S4E", "R_a", "R_b")),
}


# ---------------------------------------------------------------------------
# Constructor maps (2-forms x 2-forms -> rank 4, and symmetric analogues).

def _slot_pairs(m: ModelSpace, b: np.ndarray, sign: float) -> np.ndarray:
    """(A_(1) + sign A_(2)) b for A = I, J, K, stacked on a new leading axis."""
    return -(top.substitute(m.omegas, (-2,), b) + sign * top.substitute(m.omegas, (-1,), b))


def Phi_map(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Phi(b x c) = sum_A phi((A1+A2)b, (A1+A2)c) on 2-forms."""
    return top.phi(_slot_pairs(m, b, 1.0), _slot_pairs(m, c, 1.0)).sum(0)


def varphi(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """varphi(b x c) = sum_A psi((A1-A2)b, (A1-A2)c) on 2-forms."""
    return top.psi(_slot_pairs(m, b, -1.0), _slot_pairs(m, c, -1.0)).sum(0)


def vartheta(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """vartheta(b x c) = sum_A phi((A1-A2)b, (A1-A2)c) on symmetric 2-tensors."""
    return top.phi(_slot_pairs(m, b, -1.0), _slot_pairs(m, c, -1.0)).sum(0)


def Psi_map(m: ModelSpace, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Psi(b x c) = sum_A psi((A1+A2)b, (A1+A2)c) on symmetric 2-tensors."""
    return top.psi(_slot_pairs(m, b, 1.0), _slot_pairs(m, c, 1.0)).sum(0)


def l20es2h_embed(m: ModelSpace, b: np.ndarray) -> np.ndarray:
    """Embedding of a 2-form b in Lambda^2_0 E S^2 H into the curvature space:

    R = sum_A phi((A1+A2)b, omega_A), the triple embedding of the (A1+A2)b.
    """
    return triple_embed(m, _slot_pairs(m, b, 1.0))


def triple_embed(m: ModelSpace, b_triple) -> np.ndarray:
    """R = sum_A phi(b_A, omega_A) = sum_A (6 b_A . omega_A - b_A ^ omega_A)
    for a triple of 2-forms."""
    return top.phi(np.asarray(b_triple), m.omegas).sum(0)


# ---------------------------------------------------------------------------
# Bank construction.

@dataclass
class ComponentBank:
    """Orthonormal bases of a module's components, one coordinate class at
    a time.  ``classes[c]`` holds the coordinates of class c (increasing;
    the classes tile the coordinates).  ``rows[c]`` stacks the class-c
    parts of the bases in ``names`` order, restricted to ``classes[c]``: an
    orthonormal basis of the class-c part of the module.  ``slices[c]``
    maps each component to its rows there, and ``labels[c]`` gives each
    row's index in ``names``.  Supports are disjoint, so projections and
    norms are products class by class, and ranks are row counts.  Each
    named space's blocks are found once, when the bank is made."""

    names: tuple
    classes: tuple
    rows: tuple
    slices: tuple
    labels: tuple = field(init=False, repr=False)
    width: int = field(init=False, repr=False)
    _blocks: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.width = sum(map(len, self.classes))
        self.labels = tuple(
            np.repeat(np.arange(len(self.names)),
                      [slices[name].stop - slices[name].start for name in self.names])
            for slices in self.slices)
        self._blocks = {name: self._blocks_of((name,)) for name in self.names}

    def blocks(self, name: str) -> list:
        """(coords, rows) blocks whose direct sum is the named space (KeyError
        for an unknown name): the rows are views restricted to the
        coordinates ``coords``."""
        return self._blocks[name]

    def _blocks_of(self, parts) -> list:
        """The blocks of the direct sum of the stored components ``parts``
        (KeyError for any other name); adjacent parts in one class share
        one block."""
        blocks = []
        for coords, rows, slices in zip(self.classes, self.rows, self.slices):
            spans = []
            for sl in (slices[part] for part in parts):
                if spans and spans[-1][1] == sl.start:
                    spans[-1] = (spans[-1][0], sl.stop)
                else:
                    spans.append((sl.start, sl.stop))
            blocks += [(coords, rows[i:j]) for i, j in spans if j > i]
        return blocks

    def rank(self, name: str) -> int:
        return sum(B.shape[0] for _, B in self.blocks(name))

    def basis(self, name: str) -> np.ndarray:
        """Orthonormal rows of a named space, at full width: a new array."""
        return _scatter(self.blocks(name), self.width)

    def project_coords(self, v: np.ndarray, name: str) -> np.ndarray:
        """Orthogonal projection of coordinates (the last axis of ``v``)
        onto a named space.  Raises ValueError if that axis has the wrong
        length."""
        if v.shape[-1:] != (self.width,):
            raise ValueError(f"expected {self.width} coordinates on the last axis, "
                             f"got shape {v.shape}")
        out = np.zeros(v.shape)
        for coords, B in self.blocks(name):
            # take, unlike v[..., coords], gathers a batch C-ordered
            out[..., coords] += (np.take(v, coords, axis=-1) @ B.T) @ B
        return out

    parts = property(lambda self: self.names, doc="The parts :meth:`norms` measures.")

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of a tensor of the module: its entries, flattened."""
        return x.reshape(-1)

    def norms(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(norms of the ``parts`` of the tensor x, and |x| in coordinates) of
        x / 2^e (:func:`.tensor_ops.binary_scaled`), times 2^e.  ValueError
        names a norm too large for a float; NaN entries give NaN norms."""
        with top.binary_scaled(x) as s:
            v = self.coords(s.unit)
            norms, total = np.sqrt(self._part_squares(v)), np.sqrt(np.vdot(v, v))
            if s.e:                   # then x is finite, and |x| bounds each part
                norms, total = np.ldexp(norms, s.e), np.ldexp(total, s.e)
                if not np.isfinite(total):
                    over = [p for p, y in zip(self.parts, norms) if y == np.inf] + ["the input"]
                    raise ValueError(f"the norm of {over[0]} exceeds the largest float")
        return norms, float(total)

    def squared_norms(self, v: np.ndarray) -> np.ndarray:
        """Squared norms of the projections of the coordinate vector ``v``
        onto the components, in ``names`` order: per class, one product
        with the class's rows, then the squared coordinates summed per
        component (exactly 0 at rank 0).  Raises ValueError unless ``v`` is
        one vector of the bank's width."""
        if v.shape != (self.width,):
            raise ValueError(f"expected a vector of {self.width} coordinates, "
                             f"got shape {v.shape}")
        squares = np.zeros(len(self.names))
        for coords, rows, labels in zip(self.classes, self.rows, self.labels):
            w = rows @ v[coords]
            squares += np.bincount(labels, weights=w * w, minlength=len(self.names))
        return squares

    _part_squares = squared_norms


@dataclass
class ProjectorBank(ComponentBank):
    """The fifteen fine bases of R over the sign classes, and the unit QK
    and QKperp rays that split R_a + R_b, restricted to the trivial class
    ``classes[0]``, which holds them.  Every other space is
    read from these parts (``COMPOSITES``)."""

    model: ModelSpace
    scheme: cs.PairScheme
    rays: np.ndarray

    def __post_init__(self):
        """The blocks of the fine components, then of the rays and of every
        sum in ``COMPOSITES``, its rays first."""
        super().__post_init__()
        self._blocks |= {ray: [(self.classes[0], self.rays[k:k + 1])] for k, ray in enumerate(RAYS)}
        self._blocks |= {name: [b for r in RAYS if r in parts for b in self._blocks[r]]
                         + self._blocks_of([part for part in parts if part not in RAYS])
                         for name, parts in COMPOSITES.items()}

    def coords(self, R: np.ndarray) -> np.ndarray:
        return cs.to_pair_coords(self.scheme, R)

    def project(self, R: np.ndarray, name: str) -> np.ndarray:
        """Orthogonal projection of a curvature tensor onto a component."""
        return cs.from_pair_coords(self.scheme, self.project_coords(self.coords(R), name))

    parts = property(lambda self: self.names + RAYS, doc="The fine components, then the rays.")

    def _part_squares(self, v: np.ndarray) -> np.ndarray:
        w = self.rays @ v[self.classes[0]]
        return np.concatenate([self.squared_norms(v), w * w])


def _scatter(pieces, width: int) -> np.ndarray:
    """Stack (coords, rows) pieces into rows of ``width`` columns, zero off
    ``coords``."""
    out = np.zeros((sum(rows.shape[0] for _, rows in pieces), width))
    at = 0
    for coords, rows in pieces:
        out[at:at + rows.shape[0], coords] = rows
        at += rows.shape[0]
    return out


def h_values(n: int) -> dict:
    """The eigenvalue (n + 2)(3 lambda_L + lambda_sigma) + Cas of
    H = (n + 2)(3 L + L_sigma) + Cas on each fine component present at n
    (``COMPONENT_SPECTRUM``, :func:`.model_space.casimir_value`), in
    ``FINE_COMPONENTS`` order.  3 lambda_L + lambda_sigma tells the six joint (L, L_sigma)
    eigenspaces apart by at least 4, and Cas lies in [0, 2(n + 2)] on R, so
    the weight n + 2 keeps their values apart; inside one joint eigenspace
    the Cas values differ by at least 1."""
    values = {}
    for name in FINE_COMPONENTS:
        lam, mu, weight = COMPONENT_SPECTRUM[name]
        cas = casimir_value(weight, n)
        if cas is not None:
            values[name] = (n + 2) * (3 * lam + mu) + cas
    return values


def build_sp_projectors(m: ModelSpace) -> ProjectorBank:
    """Construct the fifteen fine bases, class by class, and the two QK rays.

    On each sign class, H = (n + 2)(3 L + L_sigma) + Cas is formed
    from the Kronecker terms of :func:`.curvature_space.h_terms` on the
    class's pair coordinates and sandwiched by the class's closed-form rows
    of R.  One gated ``eigh`` must give only the values of
    :func:`h_values`, to ``cs.EIG_TOL``; its eigenvectors, grouped by value in
    ``FINE_COMPONENTS`` order, turn the closed-form rows into the class's
    rows of the bank, written over them."""
    ps = cs.pair_scheme(m.dim)
    characters, classes = cs.sign_classes(m, ps)
    rows = cs.curvature_basis(m, ps, classes)
    values = h_values(m.n)
    terms = cs.h_terms(m, ps)
    slices = []
    for character, coords, R_c in zip(characters, classes, rows):
        spaces = cs._eigenspaces(R_c @ cs._kron_block(ps, terms, coords) @ R_c.T,
                                 list(values.values()),
                                 f"H = (n + 2)(3 L + L_sigma) + Cas on class "
                                 f"{tuple(character.tolist())}")
        # same shape: numpy buffers the overlap, and the bank keeps R_c's memory
        np.matmul(np.hstack(list(spaces.values())).T, R_c, out=R_c)
        at = np.cumsum([0] + [spaces[values[name]].shape[1] if name in values else 0
                              for name in FINE_COMPONENTS]).tolist()
        slices.append({name: slice(i, j) for name, i, j in zip(FINE_COMPONENTS, at, at[1:])})

    # pi1 and pi2 are fixed by Sp(n)Sp(1), so the rays lie in the trivial
    # class
    rays = np.array([cs.to_pair_coords(ps, T) for T in
                     (m.pi2 + 2.0 * m.pi1, (m.n + 2.0) * m.pi2 - 18.0 * m.n * m.pi1)])
    rays = rays[:, classes[0]] / np.linalg.norm(rays, axis=1, keepdims=True)
    return ProjectorBank(names=FINE_COMPONENTS, classes=classes, rows=tuple(rows),
                         slices=tuple(slices), model=m, scheme=ps, rays=rays)


def _constrained_triples(m: ModelSpace, forms, label: str) -> np.ndarray:
    """Triples (b_I, b_J, b_K) from a 2-form space with sum_A A_(2) b_A = 0.

    ``forms`` is a stack of orthonormal 2-forms spanning the space.  Column
    (A, j) of the constraint matrix C holds A_(2) b_j.  For orthonormal
    forms the Gram C^T C has the eigenvalues 0, 2 and 3 alone, and one
    gated ``eigh`` of it (:func:`.curvature_space._eigenspaces`) gives the
    kernel; forms that are not orthonormal fail that gate, raising
    ArithmeticError named by ``label``.  Returns the triples, shape
    (r, 3, dim, dim), an orthonormal basis of the constrained parameter
    space in the triple inner product.
    """
    forms = np.asarray(forms)
    k = len(forms)
    # row (A, j) of C^T holds A_(2) b_j = -b_j(., A.)
    constraint = -top.substitute(m.omegas, (-1,), forms).reshape(3 * k, -1)
    kernel = cs._eigenspaces(constraint @ constraint.T, (0, 2, 3), label)[0.0]
    return np.tensordot(kernel.T.reshape(-1, 3, k), forms, axes=1)


# ---------------------------------------------------------------------------
# Queries.

#: Largest relative gap allowed between the sum of the squared fine norms
#: and |R|^2 (Parseval); a larger gap means R has a part outside R.
PARSEVAL_TOL = 1e-9
#: Largest QKperp share of |R| that :func:`qk_einstein_verify` accepts.
QK_TOL = 1e-9
#: Largest residual that :func:`dimension_audit` accepts by default.
AUDIT_TOL = 1e-9


def component_norms(bank: ProjectorBank, R) -> dict:
    """:func:`parseval_norms` of :meth:`ComponentBank.norms` of R, which
    raises ValueError on a norm too large for a float."""
    tensor = R.tensor if isinstance(R, cs.CurvatureTensor) else R
    return parseval_norms(*bank.norms(tensor))


def parseval_norms(parts: np.ndarray, total: float) -> dict:
    """The fine norms among ``parts``, from :meth:`ComponentBank.norms` of
    a tensor of norm ``total``.  Their squares must sum to total^2 to
    PARSEVAL_TOL (relative), else CertificationError, which a tensor with
    a part outside R or a non-finite entry raises."""
    fine = parts[:len(FINE_COMPONENTS)].tolist()
    scale = total or 1.0        # relative to |R|, no square overflows
    gap = abs((math.hypot(*fine) / scale) ** 2 - (total / scale) ** 2)
    if not gap <= PARSEVAL_TOL:
        raise cs.CertificationError(f"the fine components miss a share {gap} of |R|^2: "
                                    f"the tensor is not in the curvature space")
    return dict(zip(FINE_COMPONENTS, fine))


def composite_norm(parts: dict, name: str) -> float:
    """Norm of a ``COMPOSITES`` space from its parts' norms, squaring none."""
    return math.hypot(*(parts[part] for part in COMPOSITES[name]))


def ricci_qk_split(n: int, r, q) -> tuple:
    """(Ric(pi_QK R), pi_R(Ric_QKperp)) from r = pi_R(Ric) and
    q = pi_R(Ric^q), scalars, arrays or multiples of g alike:
    (n+2)/(2(5n+1)) (r + 3q) and 9n/(2(5n+1)) (r - (n+2)/(3n) q)."""
    return ((n + 2.0) / (2.0 * (5.0 * n + 1.0)) * (r + 3.0 * q),
            9.0 * n / (2.0 * (5.0 * n + 1.0)) * (r - (n + 2.0) / (3.0 * n) * q))


def qk_einstein_verify(bank: ProjectorBank, R) -> tuple[float, dict]:
    """For R in QK: extract c from Ric = (n+2) c g and verify the Einstein laws.

    Returns (c, residuals); raises if R has a QKperp part above QK_TOL.
    Both read R divided by a power of two (:func:`.tensor_ops.binary_scaled`).
    """
    m = bank.model
    tensor = R.tensor if isinstance(R, cs.CurvatureTensor) else R
    with top.binary_scaled(tensor) as s:
        tensor = s.unit
        perp = composite_norm(dict(zip(bank.parts, bank.norms(tensor)[0].tolist())), "QKperp")
        if not perp <= QK_TOL * s.norm:
            raise ValueError(f"R is not in QK: perp fraction {perp / s.norm}")
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
        c = float(np.ldexp(c, s.e))
    return c, {k: v / s.norm for k, v in resid.items()}


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
    eigen_residuals: dict
    algebra_residuals: dict
    failures: list


def dimension_audit(bank: ProjectorBank, tol: float = AUDIT_TOL) -> DecompositionReport:
    """Check ranks against the closed formulas, the residuals of the
    tensor-level L, L_sigma and Cas oracles against each component's values
    (first, middle and last row per component), and the projector algebra
    one sign class at a time."""
    m = bank.model
    ps = bank.scheme
    n = m.n
    failures = []

    ranks = {name: bank.rank(name) for name in FINE_COMPONENTS}
    expected = expected_fine_dims(n)
    for name in FINE_COMPONENTS:
        if ranks[name] != expected[name]:
            failures.append(f"rank({name}) = {ranks[name]}, expected {expected[name]}")

    total = sum(ranks.values())
    if total != dim_R(n):
        failures.append(f"sum of fine ranks {total} != dim R {dim_R(n)}")
    qk_rank = bank.rank("QK")
    if qk_rank != dim_QK(n):
        failures.append(f"dim QK {qk_rank} != {dim_QK(n)}")

    eigen_residuals = {}
    for name in FINE_COMPONENTS:
        blocks = bank.blocks(name)
        if not blocks:
            eigen_residuals[name] = 0.0
            continue
        lam, mu, weight = COMPONENT_SPECTRUM[name]
        cas = casimir_value(weight, n)
        cas = np.nan if cas is None else cas      # rows of an absent module fail
        # rows are stacked class by class: sample both ends and the middle,
        # one per oracle call.  At n = 3 the three as one stack took no less
        # time and faulted in about nine times the pages (11.5k, not 1.3k).
        rows = [(coords, row[None]) for coords, B in blocks for row in B]
        T = np.array([cs.from_pair_coords(ps, _scatter([rows[i]], ps.m ** 2)[0])
                      for i in sorted({0, len(rows) // 2, len(rows) - 1})])
        resid = [top.frob(op(m, x) - value * x) for op, value in
                 ((cs.Cas_map, cas), (cs.L_map, lam), (cs.L_sigma_map, mu)) for x in T]
        worst = float(np.max(resid))      # np.max keeps a NaN, max() drops it
        eigen_residuals[name] = worst
        if not worst <= tol:
            failures.append(f"eigen residual of {name}: {worst}")

    # projector algebra, one sign class at a time: the class's rows
    # are orthonormal and span the closed-form rows of R in that class,
    # rebuilt here.  Classes have disjoint supports, so rows of different
    # classes are orthogonal by construction.
    _, classes = cs.sign_classes(m, ps)
    if len(classes) != len(bank.classes) or not all(
            np.array_equal(a, b) for a, b in zip(classes, bank.classes)):
        failures.append("the bank's classes are not the sign classes")
    ortho, completeness = [0.0], [0.0]
    for B, R_c in zip(bank.rows, cs.curvature_basis(m, ps, classes)):
        ortho.append(np.max(np.abs(B @ B.T - np.eye(B.shape[0])), initial=0.0))
        overlap = B @ R_c.T
        completeness.append(np.max(np.abs(overlap.T @ overlap - np.eye(R_c.shape[0])),
                                   initial=0.0))
    ortho, completeness = float(np.max(ortho)), float(np.max(completeness))
    algebra = {"orthonormality": ortho, "completeness": completeness}
    if not ortho <= tol:
        failures.append(f"component bases not orthonormal: {ortho}")
    if not completeness <= tol:
        failures.append(f"fine components do not fill R: {completeness}")

    return DecompositionReport(
        n=n, ranks=ranks, expected=expected,
        dim_R=total, dim_R_formula=dim_R(n),
        dim_QK=qk_rank, dim_QK_formula=dim_QK(n),
        eigen_residuals=eigen_residuals,
        algebra_residuals=algebra, failures=failures)
