"""Intrinsic torsion: the space T* (x) Lambda^2_0 E S^2 H and its six classes.

A torsion tensor is stored as the rank-3 array t[x, m, z] = <e_m, xi_{e_x}
e_z>; for each fixed first slot the 2-form t(X; ., .) lies in Lambda^2_0 E
S^2 H (antisymmetric, orthogonal to the omega_A, with sum_A A-action equal
to minus itself).  Under Sp(n)Sp(1) this space splits as

    (Lambda^3_0 E + K + E)(S^3 H + H)

giving six components 33, K3, E3, 3H, KH, EH.  ``TORSION_SPECTRUM`` holds
each one's E-side highest weight and k of its S^k H factor; its expected
rank is the Weyl dimension of the weight times k + 1
(:func:`expected_torsion_dims`).  The membership projector is
the Lambda^2_0 E S^2 H projector of :mod:`.curvature_space` on every
first-slot slice: one product with its matrix P2
(:func:`.curvature_space.L20ES2H_projector`, built once per n and cached),
and the ambient space is the row space of I (x) P2.  The S^3H/H split is
cut out by linear slot conditions, and one construction, run once per
half, splits each: the E-part is the image of an explicit formula in the
trace one-forms theta, the Lambda^3_0 part is cut out by the
three-form/cyclic conditions, and the K-part is the orthogonal remainder.
Every such operator acts on a stack of tensors, the slot conditions by
substitution of I, J, K (:func:`.tensor_ops.substitute`), so each
kernel's SVD input, and each E-part image, is one call on the whole stack
of rows.  Every rank is read from the weights, and the package's only SVDs
(:func:`_svd_cut`) cut there, with one margin gate on the singular values:
its bases seed the table witnesses that the benchmark reference pins, so
their bits stay.  The six bases are stored as :class:`TorsionBank`, the
:class:`.decomposition.ComponentBank` store of the curvature bank over one
class of all d^3 coordinates, so both banks answer ranks, projections and
component norms by the same code.

The module also recovers (xi, lambda_A) from nabla-omega first-jet data and
classifies torsion tensors by the 6-bit mask of nonvanishing components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import curvature_space as cs
from . import decomposition as dec
from . import tensor_ops as top
from .model_space import AFTER, NEXT, ModelSpace, weyl_dimension

#: A mask bit is set when its component holds this fraction of the norm.
MASK_TOL = 1e-8
#: Largest relative residual of a tensor off the torsion space, or of
#: nabla-omega data off realizability, that a torsion verdict accepts.
RESIDUAL_TOL = 1e-9
#: Largest relative symmetric part in (Y, Z) of nabla-omega data.
ANTISYM_TOL = 1e-12

#: Per component, in the order used everywhere (layout order and bit order
#: of the mask): the highest weight lambda of its E-side Sp(n) module
#: (Lambda^3_0 E, K or E) and k of its S^k H factor (S^3 H or H).
TORSION_SPECTRUM = {
    "33": ((1, 1, 1), 3), "K3": ((2, 1), 3), "E3": ((1,), 3),
    "3H": ((1, 1, 1), 1), "KH": ((2, 1), 1), "EH": ((1,), 1),
}

#: The six components in that order.
TORSION_COMPONENTS = tuple(TORSION_SPECTRUM)


def expected_torsion_dims(n: int) -> dict:
    """Real dimensions of the six components: the Weyl dimension of lambda
    times k + 1 = dim S^k H; Lambda^3_0 E, with three parts, is 0 at n = 2."""
    return {name: weyl_dimension(weight, n) * (k + 1)
            for name, (weight, k) in TORSION_SPECTRUM.items()}


# ---------------------------------------------------------------------------
# Slot operators entering the characterizations.
#
# Each is one or more substitutions (:func:`.tensor_ops.substitute`) of
# ``m.omegas``, the stacked matrices of I, J, K, on two of the last three
# axes: every output entry is one input entry, signed, as I, J, K are
# signed permutations.  They act on a stack of torsion tensors, so the
# bank's kernels and the residual checks below read the same code, and
# each returns its images stacked on a new leading axis.

def _s3h_defects(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """sum_A t(A., ., A.) + t and sum_A t(A., A., .) + t: both vanish
    exactly on the S^3H half."""
    return np.stack([top.substitute(m.omegas, axes, t).sum(0) + t
                     for axes in ((-3, -1), (-3, -2))])


def _h_defects(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """t(A.,.,A.) + t(A.,A.,.) + t(.,A.,A.) - t for A = I, J, K: all three
    vanish exactly on the H half."""
    out = top.substitute(m.omegas, (-3, -1), t)
    out += top.substitute(m.omegas, (-3, -2), t)    # in place: one image stack alive
    out += top.substitute(m.omegas, (-2, -1), t)
    out -= t
    return out


# ---------------------------------------------------------------------------
# Membership projector for the ambient torsion space.

def project_to_torsion_space(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a rank-3 tensor onto T* (x) Lambda^2_0 E S^2 H:
    the Lambda^2_0 E S^2 H projector on every first-slot slice, one product
    with the cached P2.  It acts on the last two axes, so a stack of torsion
    tensors projects in one call."""
    return cs.proj_form_L20ES2H(m, t)


def torsion_space_residual(m: ModelSpace, t: np.ndarray) -> float:
    """|t - P t| / |t|, P the projection onto the torsion space, of t / 2^e
    (:func:`.tensor_ops.binary_scaled`): 0 for t = 0, NaN or inf for a
    non-finite t.  A stack gives one residual, relative to the whole stack."""
    with top.binary_scaled(t) as s:
        return top.frob(project_to_torsion_space(m, s.unit) - s.unit) / s.norm


# ---------------------------------------------------------------------------
# Trace one-forms.

def _theta_scale(n: int) -> float:
    return 6.0 * (2.0 * n + 1.0) * (n - 1.0) / n


def theta(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """Global trace one-form: (6/n)(2n+1)(n-1) theta(X) = -<xi_{e_i} e_i, X>.
    Leading axes of t index a stack, here and in the three functions below."""
    return -np.einsum("...ixi->...x", t) / _theta_scale(m.n)


def theta_A(m: ModelSpace, t: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Local trace one-form: (2/n)(2n+1)(n-1) theta_A(X) = -<A xi_{e_i} A e_i, X>."""
    # A first, so a stack reduces each tensor in the order of a single one:
    # the E3 images, which an SVD sees, do not depend on the stacking
    w = np.tensordot(A, t, axes=([0, 1], [-1, -3])) @ A
    return w / (_theta_scale(m.n) / 3.0)


def xi_E3_from_trace(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """The E S^3H component, reconstructed from the trace one-forms:

    <Y,(xi_E3)_X Z> = (1/n) sum_A (n A(theta_A - theta) ^ omega_A
                                   - (n-1) A(theta_A - theta) (x) omega_A).
    """
    th = theta(m, t)
    out = np.zeros_like(t)
    for A in m.omegas:      # omega_A has the matrix of A
        alpha = (theta_A(m, t, A) - th) @ A.T
        out += (top.wedge12(alpha, A)
                - ((m.n - 1.0) / m.n) * np.einsum("...x,yz->...xyz", alpha, A))
    return out


def xi_EH_from_trace(m: ModelSpace, t: np.ndarray) -> np.ndarray:
    """The E H component, reconstructed from the global trace one-form:

    <Y,(xi_EH)_X Z> = 3 e_i (x) e_i ^ theta
                      - sum_A (e_i (x) A e_i ^ A theta + (2/n) A theta (x) omega_A).
    """
    th = theta(m, t)[..., None, None, :]     # on the z slot; swapaxes moves it
    g = m.g
    out = 3.0 * (g[:, :, None] * th - g[:, None, :] * th.swapaxes(-1, -2))
    for A in m.omegas:      # omega_A has the matrix of A
        ath = th @ A.T
        out -= (A.T[:, :, None] * ath - A.T[:, None, :] * ath.swapaxes(-1, -2))
        out -= (2.0 / m.n) * (ath.swapaxes(-1, -3) * A)
    return out


# ---------------------------------------------------------------------------
# The six projectors.

@dataclass
class TorsionBank(dec.ComponentBank):
    """The six component bases (rows of flattened rank-3 tensors) as a
    :class:`.decomposition.ComponentBank` over one class, all d^3
    coordinates: ``rows[0]`` stacks them in ``TORSION_COMPONENTS`` order,
    an orthonormal basis of the torsion space, stored once: a component's
    block, ``rows[0][slices[0][name]]``, is a view of it."""

    model: ModelSpace

    def project(self, t: np.ndarray, name: str) -> np.ndarray:
        """Orthogonal projection onto one component, on the last three axes
        of ``t``: a torsion tensor, or the second factor of a derivative."""
        flat = t.reshape(t.shape[:-3] + (-1,))
        return self.project_coords(flat, name).reshape(t.shape)

    def class_mask(self, t: np.ndarray) -> str:
        """:func:`mask_from_norms` of :meth:`norms` of ``t``: ValueError
        unless ``t`` has shape (d, d, d), on NaN or infinite entries, and on
        a norm too large for a float."""
        d = self.model.dim
        if t.shape != (d, d, d):
            raise ValueError(f"torsion tensor must have shape {(d, d, d)}, got {t.shape}")
        return mask_from_norms(*self.norms(t))

    def random_component(self, name: str, seed, derivative: bool = False) -> np.ndarray:
        """Seeded random unit tensor in one component (zero if rank 0); with
        ``derivative``, a unit derivative (one more leading axis of length
        d) whose second factor lies in the component, from its own
        substream."""
        B, d = self.rows[0][self.slices[0][name]], self.model.dim
        lead = (d,) if derivative else ()
        rng = cs.substream("torsion_derivative" if derivative else "torsion", name, seed)
        coef = rng.standard_normal(lead + (B.shape[0],))
        coef /= np.linalg.norm(coef)
        return (coef @ B).reshape(lead + (d, d, d))


def mask_from_norms(parts: np.ndarray, total: float) -> str:
    """6-bit class mask from :meth:`TorsionBank.norms` of a tensor: one bit
    per part (order 33..EH) above MASK_TOL times ``total``, its norm.
    ValueError if ``total`` is NaN or infinite."""
    if not math.isfinite(total):
        raise ValueError("torsion tensor holds NaN or infinite entries")
    floor = MASK_TOL * total
    return "".join("1" if x > floor else "0" for x in parts.tolist())


# ---------------------------------------------------------------------------
# Singular-value cuts: the torsion bank's alone (see the module docstring).

#: Smallest ratio allowed between the smallest kept singular value and the
#: largest dropped one; a closer call raises instead of trusting the rank.
_SV_MARGIN = 1e6


def _svd_cut(mat: np.ndarray, rank: int, label: str, kernel: bool = False) -> np.ndarray:
    """Orthonormal rows, an owned copy of part of V^T (a view would keep the
    whole V^T alive with the basis): the first ``rank`` span the row space
    of ``mat``, the other columns - ``rank`` its null space (``kernel``).

    ``rank`` is the closed-form one; the smallest kept singular value must
    exceed ``_SV_MARGIN`` times the largest dropped one, or, when none is
    dropped, times numpy's roundoff bound s_max * eps * max(rows, cols).
    Any other spectrum, a zero or empty ``mat`` included, raises
    ArithmeticError naming the basis ``label``.
    """
    nrows, ncols = mat.shape
    # the economy SVD already carries the complete V^T when nrows >= ncols;
    # the full one would materialize a nrows x nrows U
    u, s, vt = np.linalg.svd(mat, full_matrices=kernel and nrows < ncols)
    kept = s[rank - 1] if 0 < rank <= len(s) else 0.0
    dropped = s[rank] if 0 <= rank < len(s) else \
        s.max(initial=0.0) * np.finfo(float).eps * max(nrows, ncols)
    if not kept > _SV_MARGIN * dropped:
        raise ArithmeticError(f"{label}: rank decision too close: rank {rank} keeps "
                              f"singular value {kept}, drops {dropped} "
                              f"(margin {_SV_MARGIN:g} required)")
    return (vt[rank:] if kernel else vt[:rank]).copy()


def _kernel_within(rows: np.ndarray, shape, op, dim: int, label: str) -> np.ndarray:
    """``dim`` rows spanning the joint kernel, within span(rows), of the
    operators that ``op`` applies to the whole stack of rows at once, their
    images stacked on its leading axes; ``label`` names the kernel in a
    margin error.  Column r of the SVD input holds the images of row r, one
    operator after another."""
    images = op(rows.reshape((-1,) + shape)).reshape(-1, rows.shape[0], rows.shape[1])
    images = images.transpose(1, 0, 2).reshape(rows.shape[0], -1)
    coeff = _svd_cut(images.T, rows.shape[0] - dim, label, kernel=True)
    return coeff @ rows


def _projector_rows(m: ModelSpace) -> np.ndarray:
    """Row k is the projection of the d^3 unit tensor e_k.  The projector
    acts on each first-slot slice alone, so these rows are I (x) P2, with
    P2 the cached :func:`.curvature_space.L20ES2H_projector`.  P2 is copied
    into the diagonal blocks of a zero array, as np.kron would write
    0 * (negative entry) = -0.0 off them, and the sign of a zero can steer
    a Householder reflector in the SVD."""
    d = m.dim
    rows = np.zeros((d ** 3, d ** 3))
    on = np.arange(d)
    rows.reshape(d, d * d, d, d * d)[on, :, on, :] = cs.L20ES2H_projector(m.n)
    return rows


def build_torsion_bank(m: ModelSpace) -> TorsionBank:
    """Construct the six orthogonal component bases of the torsion space.

    Every rank is the closed form of :func:`expected_torsion_dims`: of a
    component, of a half (the sum of its three) or of the whole space.
    Each SVD runs with only its own input and the bases already found
    alive: no operator matrix outlives its kernel."""
    d = m.dim
    shape = (d, d, d)
    dims = expected_torsion_dims(m.n)
    ambient = _svd_cut(_projector_rows(m), sum(dims.values()), "torsion space")

    comps = {}
    # per half: the Lambda^3_0 E part is a kernel within it (totally skew on
    # S^3H, vanishing cyclic sum on H), the E part the image of a trace-form
    # reconstruction and the K part the orthogonal remainder; each half is
    # freed before the next is cut
    for (c3, ck, ce), half_defects, lam3_defects, xi_e, label in (
            (("33", "K3", "E3"), _s3h_defects, lambda t: t - top.alt(t, (-3, -2, -1)),
             xi_E3_from_trace, "S3H"),
            (("3H", "KH", "EH"), _h_defects, lambda t: top.cyclic3(t, (-3, -2, -1)),
             xi_EH_from_trace, "H")):
        half = _kernel_within(ambient, shape, lambda t: half_defects(m, t),
                              dims[c3] + dims[ck] + dims[ce], f"torsion {label} half")
        comps[c3] = _kernel_within(half, shape, lam3_defects, dims[c3], f"torsion {c3}")
        e_rows = xi_e(m, half.reshape((-1,) + shape)).reshape(half.shape)
        comps[ce] = _svd_cut(e_rows, dims[ce], f"torsion {ce}")
        used = np.vstack([comps[c3], comps[ce]])
        comps[ck] = _svd_cut(half - (half @ used.T) @ used, dims[ck], f"torsion {ck}")
        del half, e_rows, used

    rows = np.vstack([comps[name] for name in TORSION_COMPONENTS])
    bounds = np.cumsum([0] + [comps[name].shape[0] for name in TORSION_COMPONENTS])
    slices = {name: slice(int(i), int(j))
              for name, i, j in zip(TORSION_COMPONENTS, bounds[:-1], bounds[1:])}
    return TorsionBank(names=TORSION_COMPONENTS, classes=(np.arange(d ** 3),),
                       rows=(rows,), slices=(slices,), model=m)


# ---------------------------------------------------------------------------
# Characterization predicates (verified on the projector images by tests).

def residual_s3h_conditions(m: ModelSpace, t: np.ndarray) -> float:
    return max(top.frob(x) for x in _s3h_defects(m, t))


def residual_h_conditions(m: ModelSpace, t: np.ndarray) -> float:
    return max(top.frob(x) for x in _h_defects(m, t))


def residual_skew(t: np.ndarray) -> float:
    return top.frob(t - top.alt(t))


def residual_cyclic(t: np.ndarray) -> float:
    return top.frob(top.cyclic3(t))


def residual_trace_free(t: np.ndarray) -> float:
    """|sum_i xi_{e_i} e_i| (the K H class is trace-free)."""
    return float(np.linalg.norm(np.einsum("ixi->x", t)))


def psi_k_solve(m: ModelSpace, t: np.ndarray):
    """Solve <Y,(xi)_X Z> = (3 psi - sum_A A_(23) psi)(X,Y,Z) for a 3-form psi.

    Returns (psi, relative residual) of the least-squares solution, read
    on t divided by a power of two (:func:`.tensor_ops.binary_scaled`).  The
    K H class is exactly the set of H-type tensors admitting such a
    representation.  The Gram of the 3-form images must have the
    eigenvalues 4/3 and 8/3 alone (full rank), to EIG_TOL, else
    ArithmeticError.
    """
    d = m.dim
    # one stack of 3-forms spanning them all: alt(e_i (x) e_j (x) e_k), i < j < k
    ijk = np.array(list(itertools.combinations(range(d), 3)))
    forms = np.zeros((len(ijk), d, d, d))
    forms[(np.arange(len(ijk)),) + tuple(ijk.T)] = 1.0
    forms = top.alt(forms, (-3, -2, -1))
    images = (3.0 * forms - top.substitute(m.omegas, (-2, -1), forms).sum(0)).reshape(len(ijk), -1)
    # with the Gram's two eigenvalues the least-squares solve is one division
    # per gated eigenspace
    spaces = cs._eigenspaces(images @ images.T, (4.0 / 3.0, 8.0 / 3.0), "K H 3-form images")
    with top.binary_scaled(t.ravel()) as s:
        coef = sum(V @ (V.T @ (images @ s.unit)) / value for value, V in spaces.items())
        resid = top.frob(coef @ images - s.unit) / s.norm
        psi = np.ldexp(np.tensordot(coef, forms, axes=1), s.e)
    return psi, resid


# ---------------------------------------------------------------------------
# Recovery from nabla-omega data.
#
# Every formula below is cyclic in (I, J, K): the terms for A = I, J, K are
# one stacked expression, with (b, c) the next two indices after a
# (``model_space.NEXT`` and ``AFTER``).


def nabla_omega_from_torsion(m: ModelSpace, t: np.ndarray,
                             lambdas: np.ndarray) -> np.ndarray:
    """Synthesize (nabla omega_I, nabla omega_J, nabla omega_K) from (xi, lambda):

    (nabla_X omega_I)(Y,Z) = lambda_K(X) omega_J(Y,Z) - lambda_J(X) omega_K(Y,Z)
                             - <Y, xi_X I Z> + <Y, I xi_X Z>,
    and cyclically.  ``lambdas`` has shape (3, dim) in the order I, J, K.
    """
    W = m.omegas
    b, c = NEXT, AFTER
    return (lambdas[c][:, :, None, None] * W[b][:, None]
            - lambdas[b][:, :, None, None] * W[c][:, None]
            - t @ W[:, None]
            - W.transpose(0, 2, 1)[:, None] @ t)


def torsion_from_nabla_omega(m: ModelSpace, nw_I, nw_J, nw_K):
    """Recover (xi, lambda_A) from first-jet data and report the residual.

    lambda_I(X) = (1/2n) <nabla_X omega_J, omega_K> and cyclically; then
    xi_X = -(1/4) sum_A A (nabla_X A) + (1/2) sum_A lambda_A(X) A.  The
    residual is the worst reconstruction error of the structure equation
    over A = I, J, K, relative to the input scale; above roundoff the input
    is not realizable as nabla-omega of any almost quaternion-Hermitian jet
    (reported for the caller to gate, never silently fixed).  All of it
    reads the data / 2^e (:func:`.tensor_ops.binary_scaled`); ValueError
    names xi or lambda if either, multiplied back, overflows.
    """
    d = m.dim
    with top.binary_scaled(np.stack([np.asarray(w, dtype=float)
                                     for w in (nw_I, nw_J, nw_K)])) as s:
        nws = s.unit
        flat = nws.reshape(3, -1)
        asym = np.linalg.norm(flat + nws.swapaxes(2, 3).reshape(3, -1), axis=1)
        if not np.all(asym <= ANTISYM_TOL * np.linalg.norm(flat, axis=1)):
            raise ValueError("nabla-omega inputs must be antisymmetric in (Y, Z)")
        W = m.omegas
        lambdas = (nws[NEXT].reshape(3, d, -1) @ W[AFTER].reshape(3, -1, 1)).reshape(3, d) \
            / (4.0 * m.n)
        t = (-0.25 * (W[:, None] @ nws)
             + 0.5 * (lambdas[:, :, None, None] * W[:, None])).sum(0)
        residual = top.frob(nabla_omega_from_torsion(m, t, lambdas) - nws) / s.norm
        if s.e:
            t, lambdas = np.ldexp(t, s.e), np.ldexp(lambdas, s.e)
            for name, x in (("xi", t), ("lambda", lambdas)):
                if not np.isfinite(x).all():
                    raise ValueError(f"{name} of the nabla-omega data exceeds the largest float")
    return t, lambdas, residual
