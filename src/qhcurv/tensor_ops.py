"""Dense tensor arithmetic on R^{4n}.

All tensors are covariant, stored as dense ``numpy`` arrays with every axis
of length 4n.  The operations here are the small fixed vocabulary the
curvature and torsion machinery needs: ``substitute``, the one way an
endomorphism acts on slots, on stacks of tensors and for stacks of
matrices such as ``m.omegas`` (the slot, pair and full actions are short
expressions over it), normalized p-form and raw rank-4 inner products,
the four products of 2-tensors that build every curvature-type tensor
(``odot``, ``wedge2`` and the paper's ``phi`` and ``psi``, each on stacks,
so a sum over A = I, J, K is one call and a ``.sum(0)``), alternation,
the two skewing maps used by the torsion-to-curvature formulas, and
``contract``, a two-operand einsum over leading (batch) axes done as one
matmul.

Conventions (fixed once and relied on everywhere):

* substitution:  ``substitute(A, (i,), b)(..., x, ...) = b(..., A x, ...)``
* slot action:   ``A_(i) b(X1,...,Xi,...,Xs) = -b(X1,...,A Xi,...,Xs)``
* full action:   ``A b(X1,...,Xs) = (-1)^s b(A X1,...,A Xs)``
* p-form inner:  ``<a,b> = (1/p!) a(e_I) b(e_I)`` (sum over all index tuples)
* rank-4 inner:  raw full contraction, no normalization
* wedge of forms: shuffle alternation with unit coefficients, e.g. for
  2-forms ``(b^c)(x,y,z,u) = b(x,y)c(z,u) - b(x,z)c(y,u) + b(x,u)c(y,z)
  + c(x,y)b(z,u) - c(x,z)b(y,u) + c(x,u)b(y,z)``.  With this normalization
  ``psi(g,g) = 2 pi1`` and ``vartheta(g,g) = 4 pi2`` hold exactly, and
  ``phi(b,c) = 6 b.c - b^c = 4 b.c + psi(b,c)``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple


# ---------------------------------------------------------------------------
# Substitution, and the slot and full actions.

def substitute(A: np.ndarray, axes, T: np.ndarray) -> np.ndarray:
    """``T(..., A x, ...)`` on each of the numpy ``axes`` of T:
    ``out[..., x, ...] = A[a, x] T[..., a, ...]``.  Negative axes count
    from the end, so T may carry leading stack axes.  A stack A of shape
    (k, d, d) substitutes each A[j] on every listed axis and puts j on a
    new leading axis.  Each axis is one matmul: T, that axis swapped
    last, as one matrix of rows (one per A[j] once T carries j) times A.
    So for the signed permutations I, J, K every output entry is one
    input entry with its sign, whatever the stacking."""
    axes = [ax - T.ndim for ax in normalize_axis_tuple(axes, T.ndim)]
    lead = ()
    for ax in axes:
        moved = T.swapaxes(ax, -1)
        out = moved.reshape(lead + (-1, moved.shape[-1])) @ A
        T = out.reshape(out.shape[:-2] + moved.shape[len(lead):]).swapaxes(ax, -1)
        lead = A.shape[:-2]
    return T


def slot_act(A: np.ndarray, i: int, b: np.ndarray) -> np.ndarray:
    """Apply ``A_(i) b = -b(..., A X_i, ...)`` on the 1-based slot ``i``."""
    if not 1 <= i <= b.ndim:
        raise ValueError(f"slot {i} out of range for rank-{b.ndim} tensor")
    return -substitute(A, (i - 1,), b)


def pair_act(A: np.ndarray, i: int, j: int, b: np.ndarray) -> np.ndarray:
    """``A_(i) A_(j) b`` (signs cancel: plain substitution in slots i < j)."""
    return substitute(A, (i - 1, j - 1), b)


def full_act(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Graded full action ``A b(X1,...,Xs) = (-1)^s b(A X1,...,A Xs)``."""
    out = substitute(A, range(b.ndim), b)
    return -out if b.ndim % 2 else out


# ---------------------------------------------------------------------------
# Inner products.

def p_form_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized inner product ``(1/p!) a(e_I) b(e_I)`` of two p-forms."""
    if a.shape != b.shape:
        raise ValueError(f"rank/shape mismatch: {a.shape} vs {b.shape}")
    p = a.ndim
    return float(np.tensordot(a, b, axes=p)) / math.factorial(p)


def curvature_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Raw full contraction of two rank-4 tensors."""
    if a.ndim != 4 or b.ndim != 4:
        raise ValueError("curvature_inner expects rank-4 tensors")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.tensordot(a, b, axes=4))


def frob(a: np.ndarray) -> float:
    """Frobenius norm (raw full contraction with itself, square-rooted)."""
    return float(np.sqrt(np.vdot(a, a)))


# ---------------------------------------------------------------------------
# Products of 2-tensors.

#: The products of two 2-tensors below act on leading stack axes, which
#: broadcast (``"...xy,...zu->...xyzu"``).  Each is a signed sum of
#: relabellings of the outer product P(x,y,z,u) = b(x,y) c(z,u): a term
#: "-xzyu" subtracts P(x,z,y,u) = b(x,z) c(y,u) at (x,y,z,u).
_SYM = ("+xyzu", "+zuxy")
_WEDGE = ("+xyzu", "-xzyu", "+xuyz", "+yzxu", "-yuxz", "+zuxy")
_PSI = ("+xzyu", "-xuyz", "+yuxz", "-yzxu")


def _relabelled_sum(b: np.ndarray, c: np.ndarray, terms) -> np.ndarray:
    """The terms, each a view of P = b x c, added into a copy of the first
    (a "+" term) in place and in order: P and the result are the only
    arrays of their size, however long the stack."""
    P = np.einsum("...xy,...zu->...xyzu", b, c)
    views = [np.einsum("..." + term[1:] + "->...xyzu", P) for term in terms]
    out = views[0].copy()
    for term, view in zip(terms[1:], views[1:]):
        if term[0] == "+":
            out += view
        else:
            out -= view
    return out


def odot(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Symmetrized outer product ``b . c = (b x c + c x b) / 2`` (rank 4)."""
    return 0.5 * _relabelled_sum(b, c, _SYM)


def wedge2(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Wedge of two 2-forms: the six (2,2)-shuffles with unit coefficients."""
    return _relabelled_sum(b, c, _WEDGE)


def psi(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """psi(b x c)(x,y,z,u) = b(x,z)c(y,u) - b(x,u)c(y,z) + (b <-> c)."""
    return _relabelled_sum(b, c, _PSI)


def phi(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """phi(b x c) = 6 b . c - b ^ c on 2-forms, summed as the equal
    4 b . c + psi(b x c), since b ^ c = 2 b . c - psi(b x c)."""
    return _relabelled_sum(b, c, 2 * _SYM + _PSI)


def wedge12(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Wedge of a 1-form (or a stack of them) with a 2-form,
    unit-coefficient shuffles:

    (a^w)(x,y,z) = a(x)w(y,z) - a(y)w(x,z) + a(z)w(x,y).
    """
    return (np.einsum("...x,yz->...xyz", a, w)
            - np.einsum("...y,xz->...xyz", a, w)
            + np.einsum("...z,xy->...xyz", a, w))


def theta_tensor(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Plain tensor product (a x w)(x,y,z) = a(x) w(y,z)."""
    return np.einsum("...x,yz->...xyz", a, w)


# ---------------------------------------------------------------------------
# Skewing maps.

def skew_a(T: np.ndarray) -> np.ndarray:
    """Antisymmetrize the first two slots (orthogonal projection, so tensors
    already antisymmetric there are fixed).  The curvature-from-torsion
    formulas use the unnormalized skewing ``T - T.swap`` internally, matching
    their coefficient conventions."""
    if T.ndim < 2:
        raise ValueError("skew_a needs rank >= 2")
    return 0.5 * (T - T.swapaxes(0, 1))


def b_tilde(xi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """``b~(xi x zeta)_{X,Y} Z = xi_{zeta_X Y} Z - xi_{zeta_Y X} Z``.

    Both arguments are rank-3 tensors indexed as t[X, m, Z] = <e_m, t_X e_Z>,
    possibly with leading (batch) axes.  Returns the rank-4 tensor
    E[..., x, y, m, z] = <e_m, b~(xi x zeta)_{x,y} e_z>.
    """
    if xi.ndim < 3 or zeta.ndim < 3:
        raise ValueError("b_tilde expects two rank-3 tensors")
    e1 = contract("xwy,wmz->xymz", zeta, xi)
    return e1 - e1.swapaxes(-4, -3)


def contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum("..." + spec, a, b)`` done as one transpose-reshape-matmul.

    ``spec`` names the trailing axes of each operand; any axes before them
    are leading (batch) axes and broadcast as in ``np.matmul``.  An index
    in both operands is summed; every other index must appear in the
    output, and no index repeats within one operand.  Unlike a
    two-operand einsum this runs through BLAS and plans no path.
    """
    ins, out = spec.split("->")
    ia, ib = ins.split(",")
    summed = [c for c in ia if c in ib]
    fa = [c for c in ia if c not in summed]
    fb = [c for c in ib if c not in summed]
    la, lb = a.ndim - len(ia), b.ndim - len(ib)
    size = dict(zip(ia, a.shape[la:])) | dict(zip(ib, b.shape[lb:]))
    k = math.prod(size[c] for c in summed)
    am = a.transpose(tuple(range(la)) + tuple(la + ia.index(c) for c in fa + summed))
    bm = b.transpose(tuple(range(lb)) + tuple(lb + ib.index(c) for c in summed + fb))
    prod = am.reshape(a.shape[:la] + (-1, k)) @ bm.reshape(b.shape[:lb] + (k, -1))
    lead = prod.shape[:-2]
    free = fa + fb
    prod = prod.reshape(lead + tuple(size[c] for c in free))
    if free != list(out):
        nl = len(lead)
        prod = prod.transpose(tuple(range(nl)) + tuple(nl + free.index(c) for c in out))
    return prod


# ---------------------------------------------------------------------------
# Alternation / symmetrization helpers.

def alt(T: np.ndarray, axes=None) -> np.ndarray:
    """Full antisymmetrization (orthogonal projection onto forms) over
    ``axes`` (numpy axes, all of them by default), so a stack of tensors
    antisymmetrizes in one call.

    The permuted copies are added and subtracted in place, one at a time, in
    ``itertools.permutations`` order, and the sum is divided by r! once at
    the end.  That order fixes the result's last bits, which the torsion
    bank's SVDs see, and the test against the plain signed sum pins it."""
    axes = normalize_axis_tuple(range(T.ndim) if axes is None else axes, T.ndim)
    out = np.zeros_like(T)
    for perm, positive in _signed_permutations(len(axes)):
        order = list(range(T.ndim))
        for ax, p in zip(axes, perm):
            order[ax] = axes[p]
        if positive:
            out += T.transpose(order)
        else:
            out -= T.transpose(order)
    return out / math.factorial(len(axes))


@functools.cache
def _signed_permutations(r: int) -> tuple:
    """Every permutation of range(r), in itertools order, with whether its
    sign is +1."""
    return tuple((perm, _perm_sign(perm) > 0) for perm in itertools.permutations(range(r)))


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sym2(b: np.ndarray) -> np.ndarray:
    """Symmetric part of a bilinear form (the last two axes)."""
    return 0.5 * (b + b.swapaxes(-1, -2))


def asym2(b: np.ndarray) -> np.ndarray:
    """Antisymmetric part of a bilinear form (the last two axes)."""
    return 0.5 * (b - b.swapaxes(-1, -2))


def cyclic3(T: np.ndarray, axes=(0, 1, 2)) -> np.ndarray:
    """Cyclic sum of a tensor over three of its axes (both cycles included)."""
    i, j, k = axes

    def cycled(t):
        order = list(range(t.ndim))
        order[i], order[j], order[k] = k, i, j
        return t.transpose(order)

    t1 = cycled(T)
    return T + t1 + cycled(t1)


def sigma_perm(R: np.ndarray) -> np.ndarray:
    """The cyclic slot permutation sigma R(x,y,z,u) = R(z,x,y,u), on the
    last four axes."""
    return np.moveaxis(R, -4, -2)

