import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_table2_follows_table1, coordinate_characters, exact_scales,
                      full_width_R_basis, one_thread_digests, random_torsion,
                      skip_unless_digest_blas)
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import model_space as ms
from qhcurv import tables as tbl
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor


def l20e_mats(m):
    return [b.reshape(m.dim, m.dim) for b in cs.bilinear_component_basis(m, "L20E")]


def s2es2h_mats(m):
    return [b.reshape(m.dim, m.dim) for b in cs.bilinear_component_basis(m, "S2ES2H")]


#: Fine components of rank zero at low n, in listing order.
ZERO_AT_N = {2: ("L40E", "L20E_b", "V211S2H"), 3: ("L40E",)}


def test_audit(bank):
    rep = dec.dimension_audit(bank)
    assert rep.failures == []
    assert rep.ranks == rep.expected
    assert rep.dim_R == dec.dim_R(bank.model.n)
    assert rep.dim_QK == dec.dim_QK(bank.model.n)
    assert tuple(name for name, rank in rep.expected.items() if rank == 0) \
        == ZERO_AT_N.get(bank.model.n, ())
    assert max(rep.eigen_residuals.values()) < 1e-9


def test_audit_checks_every_class(bank):
    """Scaling one row of any one class by 1 + 1e-6 leaves its eigen
    residuals at zero, so only that class's orthonormality check sees it."""
    for c in range(len(bank.classes)):
        rows = list(bank.rows)
        rows[c] = rows[c].copy()
        rows[c][rows[c].shape[0] // 3] *= 1.0 + 1e-6
        rep = dec.dimension_audit(dataclasses.replace(bank, rows=tuple(rows)))
        assert rep.algebra_residuals["orthonormality"] > 1e-7, c
        assert any("not orthonormal" in f for f in rep.failures), c


def test_audit_checks_the_sp_split(bank2):
    """Rotating the first rows of V22 and L20E_a, two components of one
    joint (L, L_sigma) eigenspace, into (a + c)/sqrt 2 and (a - c)/sqrt 2
    keeps the bank orthonormal, complete and inside every L and L_sigma
    eigenspace; only the Cas residuals of the two components see it."""
    def first_row(name):
        c = next(c for c, sl in enumerate(bank2.slices) if sl[name].stop > sl[name].start)
        return c, bank2.slices[c][name].start

    (c, i), (c_b, j) = first_row("V22"), first_row("L20E_a")
    assert c == c_b
    rows = list(bank2.rows)
    B = rows[c] = rows[c].copy()
    B[[i, j]] = np.array([B[i] + B[j], B[i] - B[j]]) / np.sqrt(2.0)
    rep = dec.dimension_audit(dataclasses.replace(bank2, rows=tuple(rows)))
    assert [f.split(":")[0] for f in rep.failures] \
        == ["eigen residual of V22", "eigen residual of L20E_a"]
    assert min(rep.eigen_residuals["V22"], rep.eigen_residuals["L20E_a"]) > 0.1
    assert max(rep.algebra_residuals.values()) < 1e-12


def test_constructor_ricci_constants(model):
    m, n, g = model, model.n, model.g
    b = l20e_mats(m)[0]
    Ra = dec.vartheta(m, b, g) + 12 * top.psi(b, g)
    Rb = dec.vartheta(m, b, g) - 12 * top.psi(b, g)
    assert top.frob(cs.ricci(Ra) - 48 * (n + 1) * b) < 1e-9
    assert top.frob(cs.ricci(Rb) + 48 * (n - 2) * b) < 1e-9
    c = s2es2h_mats(m)[0]
    Sa = dec.vartheta(m, c, g) + 4 * top.psi(c, g)
    Sb = dec.vartheta(m, c, g) - 12 * top.psi(c, g)
    assert top.frob(cs.ricci(Sa) - 16 * (n + 1) * c) < 1e-9
    assert top.frob(cs.ricci(Sb) + 48 * (n - 1) * c) < 1e-9
    f = cs.bilinear_component_basis(m, "L20ES2H")[0].reshape(m.dim, m.dim)
    E = dec.l20es2h_embed(m, f)
    assert top.frob(cs.ricci_q(m, E) + 16 * n * f) < 1e-9
    # the R_a / R_b rays
    assert top.frob(dec.vartheta(m, g, g) + 12 * top.psi(g, g)
                    - 4 * (m.pi2 + 6 * m.pi1)) < 1e-9


def test_l_sigma_proof_identities(model):
    m = model
    rng = cs.substream("lsig-proof", m.n)
    # b1, c1 in S^2E viewed inside Lambda^2 V*
    raw = rng.standard_normal((2, m.dim, m.dim))
    b1 = cs.proj_form_S2E(m, raw[0] - raw[0].swapaxes(0, 1))
    c1 = cs.proj_form_S2E(m, raw[1] - raw[1].swapaxes(0, 1))
    mixed = top.phi(b1, c1)
    var = dec.varphi(m, b1, c1)
    plus = 4 * mixed + var
    minus = 4 * mixed - var
    assert top.frob(cs.L_sigma_map(m, plus) - 12 * plus) < 1e-9 * top.frob(plus)
    assert top.frob(cs.L_sigma_map(m, minus)) < 1e-9 * top.frob(minus)
    # b2, c2 of Lambda^2 E type inside S^2 V* (A-invariant symmetric)
    b2, c2 = l20e_mats(m)[0], l20e_mats(m)[1]
    tplus = dec.vartheta(m, b2, c2) + 12 * top.psi(b2, c2)
    tminus = dec.vartheta(m, b2, c2) - 12 * top.psi(b2, c2)
    assert top.frob(cs.L_sigma_map(m, tplus)) < 1e-9 * max(top.frob(tplus), 1.0)
    if top.frob(tminus) > 1e-9:
        assert top.frob(cs.L_sigma_map(m, tminus) + 12 * tminus) < 1e-9 * top.frob(tminus)
    # S2ES2H embeddings have L_sigma eigenvalues +4 / -4
    c = s2es2h_mats(m)[0]
    sa = dec.vartheta(m, c, m.g) + 4 * top.psi(c, m.g)
    sb = dec.vartheta(m, c, m.g) - 12 * top.psi(c, m.g)
    assert top.frob(cs.L_sigma_map(m, sa) - 4 * sa) < 1e-9 * top.frob(sa)
    assert top.frob(cs.L_sigma_map(m, sb) + 4 * sb) < 1e-9 * top.frob(sb)


def _per_A(m, product, sign, b, c):
    """sum_A product((A1 + sign A2) b, (A1 + sign A2) c), one A at a time."""
    def pair(A, x):
        return top.slot_act(A, 1, x) + sign * top.slot_act(A, 2, x)
    return sum(product(pair(A, b), pair(A, c)) for A in m.triple)


def test_phi_Phi_Psi_land_in_R(model2):
    """Each map lands in R and equals its definition, a sum over A = I, J, K
    written out here one A at a time, to 1e-15 relative."""
    m = model2
    rng = cs.substream("maps", 0)
    raw = rng.standard_normal((2, m.dim, m.dim))
    b = raw[0] - raw[0].T
    c = raw[1] - raw[1].T
    s = raw[0] + raw[0].T
    t = raw[1] + raw[1].T
    f = cs.bilinear_component_basis(m, "L20ES2H")[0].reshape(m.dim, m.dim)
    cases = (
        (top.phi(b, c), None),
        (dec.Phi_map(m, b, c), _per_A(m, top.phi, 1.0, b, c)),
        (dec.varphi(m, b, c), _per_A(m, top.psi, -1.0, b, c)),
        (top.psi(s, t), None),
        (dec.vartheta(m, s, t), _per_A(m, top.phi, -1.0, s, t)),
        (dec.Psi_map(m, s, t), _per_A(m, top.psi, 1.0, s, t)),
        (dec.l20es2h_embed(m, f),
         sum(top.phi(top.slot_act(A, 1, f) + top.slot_act(A, 2, f), w)
             for A, w in zip(m.triple, m.omegas))),
    )
    for k, (T, ref) in enumerate(cases):
        assert max(cs.curvature_residuals(T).values()) < 1e-10, k
        if ref is not None:
            assert top.frob(T - ref) <= 1e-15 * top.frob(ref), k
    # an unconstrained triple, so not in R
    triple = np.array([b, c, b + c])
    ref = sum(top.phi(x, w) for x, w in zip(triple, m.omegas))
    assert top.frob(dec.triple_embed(m, triple) - ref) <= 1e-15 * top.frob(ref)


def test_project_component_examples(bank):
    """pi2 + 2 pi1 projects onto R_a as (2/3)(pi2 + 6 pi1), with the norm
    that bank.norms gives it; its projection onto a rank-zero component
    vanishes."""
    m = bank.model
    qk = m.pi2 + 2 * m.pi1
    comp = bank.project(qk, "R_a")
    norms = dict(zip(bank.parts, bank.norms(qk)[0]))
    assert top.frob(comp - (2.0 / 3.0) * (m.pi2 + 6 * m.pi1)) < 1e-9 * norms["R_a"]
    assert norms["R_a"] == pytest.approx(top.frob(comp), rel=1e-12)
    if bank.rank("L40E") == 0:
        assert top.frob(bank.project(qk, "L40E")) == norms["L40E"] == 0.0
    # idempotence
    R = cs.random_curvature(m, 17).tensor
    once = bank.project(R, "V22")
    assert top.frob(bank.project(once, "V22") - once) < 1e-9 * max(top.frob(once), 1.0)


def test_parseval(bank):
    R = cs.random_curvature(bank.model, 23)
    norms = dec.component_norms(bank, R)
    total = top.curvature_inner(R.tensor, R.tensor)
    assert sum(v * v for v in norms.values()) == pytest.approx(total, rel=1e-8)


def test_component_norms_parseval_gate(bank):
    """A tensor with a part outside R (here a totally antisymmetric one,
    which keeps the pair symmetries) misses Parseval and is rejected, as is
    a non-finite one.  A part of 1e-4 of |R| (1e-8 of |R|^2) is caught."""
    m = bank.model
    R = cs.random_curvature(m, 23).tensor
    raw = cs.substream("parseval-gate", m.n).standard_normal((m.dim,) * 4)
    wedge = top.alt(raw)
    wedge *= 1e-4 * top.frob(R) / top.frob(wedge)
    residuals = cs.curvature_residuals(wedge)
    assert max(residuals[name] for name in ("antisym_12", "antisym_34", "pair_exchange")) \
        <= cs.CERT_TOL
    for bad in (R + wedge, np.full_like(R, np.nan)):
        with pytest.raises(ValueError, match="not in the curvature space"):
            dec.component_norms(bank, bad)
    dec.component_norms(bank, R)
    dec.component_norms(bank, np.zeros_like(R))


@pytest.mark.parametrize("k", [-1000, -560, 0, 530, 1000])
def test_verdicts_are_invariant_under_powers_of_two(k, bank2, tbank2):
    """Scaling by 2^k, for k from -1000 to 1000, changes no verdict: the
    class mask of a KH + EH tensor, whose squared norm underflows to 0 or
    overflows at the ends of that range; the certification of a random R
    and the name of the condition a damaged R fails; and the fine norms of
    R, which scale by 2^k to 1e-12 relative."""
    t = tbank2.random_component("KH", 5) + tbank2.random_component("EH", 5)
    assert tbank2.class_mask(np.ldexp(t, k)) == "000011"
    R = cs.random_curvature(bank2.model, 43).tensor
    bad = R.copy()
    bad[0, 1, 2, 3] += 1e-3
    bad[1, 0, 2, 3] -= 1e-3
    scaled = cs.CurvatureTensor.certify(np.ldexp(R, k))
    with pytest.raises(cs.CertificationError, match="^curvature condition antisym_34 failed"):
        cs.CurvatureTensor.certify(np.ldexp(bad, k))
    assert cs.curvature_residuals(np.ldexp(bad, k))["antisym_34"] \
        == pytest.approx(cs.curvature_residuals(bad)["antisym_34"], rel=1e-12)
    norms = dec.component_norms(bank2, R)
    for name, value in dec.component_norms(bank2, scaled).items():
        assert np.ldexp(value, -k) == pytest.approx(norms[name], rel=1e-12, abs=0.0), name


def test_bank_norms_name_a_norm_too_large_for_a_float(tbank2):
    """ComponentBank.norms multiplies its norms back by 2^e: it names the
    first part whose norm overflows a float, else the input when only the
    total does, and the class mask raises the same; just inside the
    range it returns the exact norms."""
    t = tbank2.random_component("KH", 5) + tbank2.random_component("EH", 5)
    for x, name in ((np.ldexp(t, 1024), "KH"), (0.75 * np.ldexp(t, 1024), "the input")):
        assert np.isfinite(x).all()
        for call in (tbank2.norms, tbank2.class_mask):
            with pytest.raises(ValueError, match=f"^the norm of {name} exceeds the largest float"):
                call(x)
    parts, total = tbank2.norms(np.ldexp(t, 1023))
    want, want_total = tbank2.norms(t)
    assert np.ldexp(parts, -1023).tolist() == want.tolist()
    assert np.ldexp(total, -1023) == want_total


def _outcome(call):
    """What a call returns, or its ValueError's message with every number
    masked."""
    try:
        return call()
    except ValueError as exc:
        return re.sub(r"\d[\d.e+-]*", "#", str(exc))


def _qk_mixture(bank, seed, perp_fraction):
    """A unit element of R with the given share of its norm in QKperp."""
    R = cs.random_curvature(bank.model, seed).tensor
    qk, perp = (bank.project(R, name) for name in ("QK", "QKperp"))
    return (perp_fraction * perp / top.frob(perp)
            + math.sqrt(1.0 - perp_fraction ** 2) * qk / top.frob(qk))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_qk_verdicts_are_invariant_under_powers_of_two(data, bank2):
    """For every k in [-1000, 1000] that keeps the inputs finite and normal,
    qk_einstein_verify gives 2^k c and the same relative residuals on a QK
    tensor, and the same refusal on one with a QKperp fraction of 0.95."""
    qk, mixed = _qk_mixture(bank2, 9, 0.0), _qk_mixture(bank2, 9, 0.95)
    k = data.draw(st.integers(*exact_scales([qk, mixed])), label="k")

    def verdicts(k):
        return (_outcome(lambda: dec.qk_einstein_verify(bank2, np.ldexp(qk, k))),
                _outcome(lambda: dec.qk_einstein_verify(bank2, np.ldexp(mixed, k))))

    (c_resid, refusal), (want_c_resid, want_refusal) = verdicts(k), verdicts(0)
    assert refusal == want_refusal == "R is not in QK: perp fraction #"
    assert np.ldexp(c_resid[0], -k) == pytest.approx(want_c_resid[0], rel=1e-12, abs=0.0)
    assert c_resid[1] == pytest.approx(want_c_resid[1], rel=1e-12)


def _sp_n_sp_1_elements(m, seed):
    """Elements of Sp(n)Sp(1) as orthogonal matrices: each sign generator
    (:func:`.curvature_space.sign_generators`), and exp of two random
    elements X of sp(n) + sp(1), sp(n) spanned by sp_generators and sp(1)
    by I, J, K, exponentiated with numpy alone by ``eigh`` of the
    Hermitian iX."""
    rng = cs.substream("sp-n-sp-1", m.n, seed)
    gs = [np.diag(signs) for signs in cs.sign_generators(m.n)]
    algebra = np.concatenate([ms.sp_generators(m.n), m.triple])
    for _ in range(2):
        X = np.tensordot(rng.standard_normal(len(algebra)), algebra, axes=1)
        w, V = np.linalg.eigh(1j * X)
        gs.append(((V * np.exp(-1j * w)) @ V.conj().T).real)
    return gs


def test_verdicts_are_invariant_under_sp_n_sp_1(bank2, tbank2):
    """For g each sign generator and exp of random elements of
    sp(n) + sp(1), acting on every slot: the class mask of a KH + EH
    tensor, the certification of a random R and the name of the condition a
    damaged R fails, and the fine norms of R relative to |R|, are those of
    the untransformed tensors."""
    m = bank2.model
    t = tbank2.random_component("KH", 5) + tbank2.random_component("EH", 5)
    R = cs.random_curvature(m, 43).tensor
    bad = R.copy()
    bad[0, 1, 2, 3] += 1e-3
    bad[1, 0, 2, 3] -= 1e-3
    norms = dec.component_norms(bank2, R)
    for g in _sp_n_sp_1_elements(m, 0):
        assert np.max(np.abs(g @ g.T - np.eye(m.dim))) < 1e-12
        assert tbank2.class_mask(top.substitute(g, range(3), t)) == "000011"
        gR = top.substitute(g, range(4), R)
        got = dec.component_norms(bank2, cs.CurvatureTensor.certify(gR))
        with pytest.raises(cs.CertificationError, match="^curvature condition antisym_34 failed"):
            cs.CurvatureTensor.certify(top.substitute(g, range(4), bad))
        for name, value in got.items():
            assert value / top.frob(gR) == pytest.approx(norms[name] / top.frob(R),
                                                         rel=1e-12, abs=0.0), name


def _bank_samples(bank, tbank, seed):
    """The curvature and the torsion bank, each with a seeded vector of its
    module in its coordinates."""
    R = cs.random_curvature(bank.model, seed).tensor
    return ((bank, bank.coords(R)), (tbank, random_torsion(tbank, seed).ravel()))


def test_component_norms_match_per_component_oracle(bank, tbank):
    """For both banks, one product per class, summed per component, equals
    one norm per full-width basis, and the squares add up to |v|^2 for v in
    the module; components of rank 0 read exactly 0.  component_norms reads
    the curvature bank's squares."""
    for seed in (23, 24):
        for b, v in _bank_samples(bank, tbank, seed):
            squares = b.squared_norms(v)
            assert float(np.sum(squares)) == pytest.approx(float(v @ v), rel=1e-12)
            for name, square in zip(b.names, squares):
                oracle = float(np.linalg.norm(b.basis(name) @ v))
                assert np.sqrt(square) == pytest.approx(oracle, rel=1e-14, abs=0.0), name
                assert b.rank(name) or square == 0.0
        R = cs.random_curvature(bank.model, seed)
        norms = dec.component_norms(bank, R)
        assert list(norms) == list(dec.FINE_COMPONENTS)
        assert list(norms.values()) \
            == np.sqrt(bank.squared_norms(bank.coords(R.tensor))).tolist()
        for name in ZERO_AT_N.get(bank.model.n, ()):
            assert bank.rank(name) == 0 and norms[name] == 0.0


def test_bank_blocks_tile_each_class(bank, tbank):
    """For both banks, each class's rows are orthonormal, the blocks of the
    components in ``names`` order are views that tile them, and projecting
    onto a component twice changes nothing."""
    for b, v in _bank_samples(bank, tbank, 31):
        for coords, rows in zip(b.classes, b.rows):
            assert np.max(np.abs(rows @ rows.T - np.eye(len(rows))), initial=0.0) < 1e-12
            at = 0
            for name in b.names:
                for B in (B for c, B in b.blocks(name) if c is coords):
                    assert B.base is rows and np.shares_memory(B, rows), name
                    assert np.array_equal(B, rows[at:at + len(B)]), name
                    at += len(B)
            assert at == len(rows)
        for name in b.names:
            once = b.project_coords(v, name)
            assert np.linalg.norm(b.project_coords(once, name) - once) \
                < 1e-12 * np.linalg.norm(v), name


def test_bank_queries_reject_vectors_of_the_wrong_width(bank2, tbank2):
    """For both banks, a vector whose last axis is not the bank's width
    raises ValueError, even one whose first entries would fit."""
    for b, v in _bank_samples(bank2, tbank2, 37):
        for bad in (v[:-1], np.concatenate([v, v])):
            with pytest.raises(ValueError, match="coordinates"):
                b.squared_norms(bad)
            with pytest.raises(ValueError, match="coordinates"):
                b.project_coords(bad, b.names[-1])
        with pytest.raises(ValueError, match="coordinates"):
            b.squared_norms(np.stack([v, v]))


def test_composite_projectors_resolve_R(bank):
    """The L-blocks, and QK with QKperp, are direct-sum decompositions of R,
    read from the parts of the stacked bank."""
    for seed in (41, 42):
        v = bank.coords(cs.random_curvature(bank.model, seed).tensor)
        scale = np.linalg.norm(v)
        in_R = np.zeros_like(v)
        for coords, rows in zip(bank.classes, bank.rows):
            in_R[coords] = rows.T @ (rows @ v[coords])
        assert np.linalg.norm(in_R - v) < 1e-12 * scale       # v lies in R
        blocks = sum(bank.project_coords(v, name) for name in dec.L_BLOCKS)
        assert np.linalg.norm(blocks - in_R) < 1e-12 * scale
        qk, qkperp = bank.project_coords(v, "QK"), bank.project_coords(v, "QKperp")
        assert np.linalg.norm(qk + qkperp - in_R) < 1e-12 * scale
        assert np.linalg.norm(bank.project_coords(qkperp, "QK")) < 1e-12 * scale


def _class_of_coord(bank):
    """The sign class of each pair coordinate."""
    of_coord = np.empty(bank.scheme.m ** 2, dtype=int)
    for c, coords in enumerate(bank.classes):
        of_coord[coords] = c
    return of_coord


def _class_dims_of_R(bank):
    """How many closed-form rows of R lie in each sign class."""
    R_rows = full_width_R_basis(bank.model, bank.scheme)
    return np.bincount(_class_of_coord(bank)[np.argmax(R_rows != 0, axis=1)],
                       minlength=len(bank.classes))


def test_bank_stores_one_basis_of_R(bank):
    """Per sign class, the bank holds one stack of fine rows restricted to
    the class's coordinates, as many as R has rows there, and the two rays
    restricted to the trivial class, nothing else; each fine basis and each
    L-block is read from views of those stacks.  The stored bytes are
    pinned."""
    n, m2 = bank.model.n, bank.scheme.m ** 2
    assert np.array_equal(np.sort(np.concatenate(bank.classes)), np.arange(m2))
    dims = [int(d) for d in _class_dims_of_R(bank)]
    assert [rows.shape for rows in bank.rows] \
        == [(d, len(coords)) for d, coords in zip(dims, bank.classes)]
    stored = sum(rows.nbytes for rows in bank.rows) + bank.rays.nbytes
    assert stored == (sum(d * len(coords) for d, coords in zip(dims, bank.classes))
                      + 2 * len(bank.classes[0])) * 8
    assert stored == {2: 267008, 3: 3750336}[n]
    for name in dec.FINE_COMPONENTS + tuple(dec.L_BLOCKS):
        for coords, B in bank.blocks(name):
            assert any(B.base is rows for rows in bank.rows), name
    assert bank.rank("QKperp") == dec.dim_R(n) - dec.dim_QK(n)


def test_sign_classes(bank):
    """The trivial character comes first; each class's coordinates share
    its character, read off the sign generators' action on tensors; and
    every row of every fine basis is supported in one class."""
    m, ps = bank.model, bank.scheme
    characters, classes = cs.sign_classes(m, ps)
    assert characters.shape == (len(classes), m.n + 2) and not characters[0].any()
    assert all(np.array_equal(a, b) for a, b in zip(classes, bank.classes))
    of_coord = coordinate_characters(m, ps)
    for character, coords in zip(characters, classes):
        assert np.array_equal(np.unique(of_coord[coords], axis=0), character[None])
    of_class = _class_of_coord(bank)
    for name in dec.FINE_COMPONENTS:
        for row in bank.basis(name):
            assert len(set(of_class[row != 0])) == 1, name


def test_sign_class_counts():
    """A coordinate's line part has an even number of odd lines, at most
    four, and conjugation by i and j give any of four characters: 8, 16,
    32, 64 and 124 classes at n = 2 to 6, in lexicographic order of the
    characters."""
    for n, count in {2: 8, 3: 16, 4: 32, 5: 64, 6: 124}.items():
        m = ms.build_model(n)
        characters, classes = cs.sign_classes(m, cs.pair_scheme(m.dim))
        assert len(classes) == count == 4 * sum(math.comb(n, k) for k in (0, 2, 4))
        assert [tuple(c) for c in characters.tolist()] \
            == sorted(tuple(c) for c in characters.tolist())
        assert set(characters[:, :n].sum(axis=1).tolist()) <= {0, 2, 4}


def test_line_flips_map_each_block_to_itself_up_to_sign(bank):
    """Every generator of the sign group lies in Sp(n)Sp(1): a line flip
    commutes with I, J and K, and conjugation by i (j) fixes I (J) and
    negates the other two.  Applied to tensors, each maps every stored
    block of every class to plus or minus itself, the sign its character
    gives, and fixes the rays."""
    m, ps = bank.model, bank.scheme
    characters, _ = cs.sign_classes(m, ps)
    ones = cs.from_pair_coords(ps, np.ones(ps.m ** 2))
    for k, f in enumerate(cs.sign_generators(m.n)):
        assert set(np.abs(f).tolist()) == {1.0}
        conjugated = [f[:, None] * A * f[None, :] for A in m.triple]
        fixed = [np.array_equal(G, A) for G, A in zip(conjugated, m.triple)]
        assert fixed == ([True] * 3 if k < m.n else [k == m.n, k == m.n + 1, False])
        assert all(f_ or np.array_equal(G, -A) for f_, G, A in zip(fixed, conjugated, m.triple))
        sign = cs.to_pair_coords(ps, np.einsum("x,y,z,u,xyzu->xyzu", f, f, f, f, ones))
        for character, coords, rows in zip(characters, bank.classes, bank.rows):
            assert np.all(sign[coords] == (-1.0) ** character[k])
            assert np.array_equal(rows * sign[coords], sign[coords][0] * rows)
        assert np.array_equal(bank.rays * sign[bank.classes[0]], bank.rays)


def _class_ranks(bank, name):
    return [sl[name].stop - sl[name].start for sl in bank.slices]


def _orbit_key(character, n):
    """The least image of a character under the line permutations and the
    cycle i -> j -> k -> i (conjugation by (1 + i + j + k) / 2, in
    Sp(n)Sp(1)), which maps the (i, j) part (a, b) to (a ^ b, a)."""
    lines, (a, b) = tuple(character[:n]), tuple(character[n:])
    return min(tuple(lines[i] for i in p) + r
               for p in itertools.permutations(range(n))
               for r in ((a, b), (a ^ b, a), (b, a ^ b)))


def test_line_permuted_classes_have_equal_ranks(bank):
    """Line permutations and the cycle i -> j -> k lie in Sp(n)Sp(1) and
    permute the sign classes, so every component has the same rank on all
    classes of one orbit: at n = 2 and 3 the orbits are the trivial class,
    the three classes with trivial line part, and the classes with two odd
    lines split by whether their (i, j) part is trivial.  The class ranks
    add up to the component's rank."""
    n = bank.model.n
    characters, _ = cs.sign_classes(bank.model, bank.scheme)
    keys = [_orbit_key(c, n) for c in characters.tolist()]
    assert sorted(keys.count(k) for k in set(keys)) == {2: [1, 1, 3, 3], 3: [1, 3, 3, 9]}[n]
    for name in dec.FINE_COMPONENTS:
        ranks = _class_ranks(bank, name)
        assert sum(ranks) == bank.rank(name) == dec.expected_fine_dims(n)[name]
        for key in set(keys):
            assert len({r for r, k in zip(ranks, keys) if k == key}) == 1, (name, key)


def test_class_ranks_at_n3(bank3):
    assert _class_ranks(bank3, "V22") == [12] + [6] * 3 + [5] * 12
    assert _class_ranks(bank3, "V31S2H") == [36] + [33] * 3 + [36] * 12
    assert _class_ranks(bank3, "S4E") == [15] + [9] * 3 + [7] * 12
    for name in ("R_a", "R_b"):
        assert _class_ranks(bank3, name) == [1] + [0] * 15


def test_qk_split(bank):
    m, n = bank.model, bank.model.n
    v1 = m.pi2 + 2 * m.pi1
    v2 = (n + 2) * m.pi2 - 18 * n * m.pi1
    assert abs(top.curvature_inner(v1, v2)) < 1e-10 * top.frob(v1) * top.frob(v2)
    assert bank.rank("QK") == dec.dim_QK(n)
    assert np.allclose(cs.ricci(v1), 8 * (n + 2) * m.g)
    assert np.allclose(cs.ricci_q(m, v1), 24 * n * m.g)


def test_ric_qk_scalars_vs_direct(bank):
    """ricci_qk_split of the Ricci traces gives Ric of the QK part and the
    R-part of Ric of the QKperp part, as direct projection does."""
    m = bank.model
    R = cs.random_curvature(m, 29)
    r = (np.trace(cs.ricci(R.tensor)) / m.dim) * m.g
    q = (np.trace(cs.ricci_q(m, R.tensor)) / m.dim) * m.g
    rqk, prq = dec.ricci_qk_split(m.n, r, q)
    direct = cs.ricci(bank.project(R.tensor, "QK"))
    assert top.frob(rqk - direct) < 1e-9 * max(top.frob(direct), 1.0)
    perp = bank.project(R.tensor, "QKperp")
    pr_direct = (np.trace(cs.ricci(perp)) / m.dim) * m.g
    assert top.frob(prq - pr_direct) < 1e-9 * max(top.frob(pr_direct), 1.0)


def test_qk_einstein(bank):
    m, n = bank.model, bank.model.n
    rng = cs.substream("einstein", n)
    coef = bank.basis("S4E").T @ rng.standard_normal(bank.rank("S4E"))
    weyl = cs.from_pair_coords(bank.scheme, coef)
    R = weyl + 1.3 * (m.pi2 + 2 * m.pi1)
    c, resid = dec.qk_einstein_verify(bank, R)
    assert c == pytest.approx(1.3 * 8.0, rel=1e-10)
    assert max(resid.values()) < 1e-9
    # pure S4E element: c = 0 and Ricci-flat
    c, resid = dec.qk_einstein_verify(bank, weyl)
    assert abs(c) < 1e-10
    assert max(resid.values()) < 1e-9
    czero, _ = dec.qk_einstein_verify(bank, np.zeros((m.dim,) * 4))
    assert czero == 0.0
    with pytest.raises(ValueError):
        dec.qk_einstein_verify(bank, cs.random_curvature(m, 31).tensor)


def test_curvature_readers_take_certified_and_raw_tensors(bank):
    """component_norms and qk_einstein_verify read a certified tensor and
    its raw array alike, to the bit."""
    m = bank.model
    R = cs.random_curvature(m, 37).tensor
    assert dec.component_norms(bank, cs.CurvatureTensor.certify(R)) == dec.component_norms(bank, R)
    coef = bank.basis("S4E").T @ cs.substream("readers", m.n).standard_normal(bank.rank("S4E"))
    qk = cs.from_pair_coords(bank.scheme, coef) + 0.7 * (m.pi2 + 2 * m.pi1)
    assert (dec.qk_einstein_verify(bank, cs.CurvatureTensor.certify(qk))
            == dec.qk_einstein_verify(bank, qk))


def _group_elements(m, seed):
    """Sp(1) rotation (left quaternion unit), an Sp(n) exponential, and a
    block permutation, all as orthogonal matrices commuting with the
    structure in the appropriate sense."""
    rng = cs.substream("equivariance", m.n, seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    lq = np.array([[q[0], -q[1], -q[2], -q[3]],
                   [q[1], q[0], -q[3], q[2]],
                   [q[2], q[3], q[0], -q[1]],
                   [q[3], -q[2], q[1], q[0]]])
    g1 = np.kron(np.eye(m.n), lq)
    # sp(n) element: real matrices commuting with I, J, K: right quaternionic;
    # generate by projecting a random antisymmetric matrix onto the commutant
    raw = rng.standard_normal((m.dim, m.dim))
    raw = raw - raw.T
    comm = raw + sum(A.T @ raw @ A for A in m.triple)
    # the Cayley transform of an antisymmetric X is orthogonal, and it
    # commutes with I, J, K when X does
    X = 0.3 * comm / 4.0
    eye = np.eye(m.dim)
    g2 = np.linalg.solve(eye - X / 2.0, eye + X / 2.0)
    perm = rng.permutation(m.n)
    g3 = np.zeros((m.dim, m.dim))
    for blk, target in enumerate(perm):
        g3[4 * target:4 * target + 4, 4 * blk:4 * blk + 4] = np.eye(4)
    return g1, g2, g3


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _audit_with_nan_row(m, bank):
    rows = list(bank.rows)
    rows[0] = rows[0].copy()
    rows[0][bank.slices[0]["V22"].start, 0] = np.nan
    return not dec.dimension_audit(dataclasses.replace(bank, rows=tuple(rows))).failures


#: Whether each tolerance gate accepts NaN input (it must not).
_NAN_GATES = {
    "qk_einstein_verify": lambda m, bank: _accepts(
        lambda: dec.qk_einstein_verify(bank, np.full((m.dim,) * 4, np.nan))),
    "dimension_audit": _audit_with_nan_row,
    "component_norms": lambda m, bank: _accepts(
        lambda: dec.component_norms(bank, np.full((m.dim,) * 4, np.nan))),
    "torsion_from_nabla_omega": lambda m, bank: _accepts(
        lambda: tor.torsion_from_nabla_omega(m, *np.full((3,) + (m.dim,) * 3, np.nan))),
}


@pytest.mark.parametrize("gate", sorted(_NAN_GATES))
def test_tolerance_gates_fail_closed_on_nan(gate, model2, bank2):
    assert not _NAN_GATES[gate](model2, bank2)


def test_projector_equivariance(bank):
    m = bank.model
    R = cs.random_curvature(m, 37).tensor
    for g in _group_elements(m, 0):
        assert np.max(np.abs(g.T @ g - np.eye(m.dim))) < 1e-12
        gR = np.einsum("ax,by,cz,du,abcd->xyzu", g, g, g, g, R, optimize=True)
        for name in ("S4E", "V22", "L20ES2H", "V22S4H", "S4H", "QK"):
            lhs = bank.project(gR, name)
            rhs = np.einsum("ax,by,cz,du,abcd->xyzu", g, g, g, g,
                            bank.project(R, name), optimize=True)
            assert top.frob(lhs - rhs) < 1e-9 * max(top.frob(rhs), 1.0)


def test_block_ricci_relations(bank):
    """Ricci laws per block: U22: Ric = Ric^q with A Ric = Ric; Lambda^4 E:
    Ric = -Ric^q; L=2 blocks: Ric vs Ric^q_s laws; L=-6 block constants.
    The bank is split by Casimir values, not by the Ricci maps, so every
    law is checked here, not built in."""
    m, n = bank.model, bank.model.n
    rng = cs.substream("blocks", n)

    def sample(name):
        rows = bank.basis(name)
        coef = rng.standard_normal(rows.shape[0])
        return cs.from_pair_coords(bank.scheme, rows.T @ coef)

    for name in ("V22", "L20E_a", "R_a"):
        R = sample(name)
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)
        scale = max(top.frob(R), 1.0)
        assert top.frob(ric - ricq) < 1e-9 * scale
        for A in m.triple:
            assert top.frob(np.einsum("xa,yb,ab->xy", A, A, ric) - ric) \
                < 1e-9 * scale
    for name in ("R_b", "L20E_b"):
        if bank.rank(name) == 0:
            continue
        R = sample(name)
        assert top.frob(cs.ricci(R) + cs.ricci_q(m, R)) < 1e-9 * max(top.frob(R), 1.0)
    for name in ("V31S2H", "S2ES2H_a"):
        R = sample(name)
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)
        scale = max(top.frob(R), 1.0)
        assert top.frob(ric - ricq) < 1e-9 * scale
        assert top.frob(cs.proj_sym_S2ES2H(m, ric) - ric) < 1e-9 * scale
    for name in ("V211S2H", "S2ES2H_b", "L20ES2H"):
        if bank.rank(name) == 0:
            continue
        R = sample(name)
        ric = cs.ricci(R)
        ricq_s = top.sym2(cs.ricci_q(m, R))
        scale = max(top.frob(ric), top.frob(ricq_s), 1.0)
        assert top.frob(ric + 3 * ricq_s) < 1e-9 * scale
    for name in ("V22S4H", "L20ES4H", "S4H"):
        R = sample(name)
        assert top.frob(cs.ricci(R)) < 1e-9 * top.frob(R)
        assert top.frob(cs.ricci_q(m, R)) < 1e-9 * top.frob(R)
    for name in ("S4E", "V22", "L40E", "V31S2H", "V211S2H"):
        if bank.rank(name) == 0:
            continue
        R = sample(name)
        assert top.frob(cs.ricci(R)) < 1e-9 * top.frob(R)
    R = sample("V22S4H")
    for A in m.triple:
        assert top.frob(cs.ricci_star(R, A)) < 1e-9 * top.frob(R)


def test_les4h_ric_star_constants(model):
    """Ric* laws on the L=-6 constructor images.

    On the Lambda^2_0 E S^4H embedding, Ric*_A = +4(n+1) A_(2) b_A (the
    reference proof constant carries the opposite sign; the sign here is
    forced by the same machinery that reproduces every statement-level
    constant).  On the S^4H embedding with b_I = la_II w_I +
    la_JI w_J + la_KI w_K the measured law is
    Ric*_I = 4(2n+1)(la_II g - la_KI w_J + la_JI w_K); in both cases
    Ric^q = 0 as asserted."""
    m, n = model, model.n
    forms = [b.reshape(m.dim, m.dim)
             for b in cs.bilinear_component_basis(m, "L20ES2H")]
    triples = dec._constrained_triples(m, forms, "L20ES4H triples")
    bt = triples[0]
    R = dec.triple_embed(m, bt)
    for A, b_A in zip(m.triple, bt):
        expect = 4 * (n + 1) * top.slot_act(A, 2, b_A)
        assert top.frob(cs.ricci_star(R, A) - expect) < 1e-9 * max(top.frob(expect), 1.0)
    assert top.frob(cs.ricci_q(m, R)) < 1e-9 * top.frob(R)
    I, J, K = m.triple
    cases = [
        # (triple, lambda matrix entries (la_II, la_JI, la_KI))
        ([m.omegas[0], -m.omegas[1], np.zeros_like(I)], (1.0, 0.0, 0.0)),
        ([m.omegas[1], m.omegas[0], np.zeros_like(I)], (0.0, 1.0, 0.0)),
        ([m.omegas[2], np.zeros_like(I), m.omegas[0]], (0.0, 0.0, 1.0)),
    ]
    for bt, (lii, lji, lki) in cases:
        bt = [b.copy() for b in bt]
        resid = sum(top.slot_act(A, 2, b) for A, b in zip(m.triple, bt))
        assert top.frob(resid) < 1e-12      # constrained triple
        R = dec.triple_embed(m, bt)
        expect_I = 4 * (2 * n + 1) * (lii * m.g - lki * J + lji * K)
        assert top.frob(cs.ricci_star(R, I) - expect_I) < 1e-9 * top.frob(expect_I)
        assert top.frob(cs.ricci_q(m, R)) < 1e-9 * top.frob(R)


def test_eigenspaces_reject_stray_eigenvalues():
    H = np.diag([6.0, 2.0, -6.0 + 1e-12, 2.0])
    spaces = cs._eigenspaces(H, (6, 2, -6), "test")
    assert {k: v.shape[1] for k, v in spaces.items()} == {6.0: 1, 2.0: 2, -6.0: 1}
    with pytest.raises(ArithmeticError):
        cs._eigenspaces(np.diag([6.0, 2.0, -6.0 + 1e-6]), (6, 2, -6), "test")


def test_eigen_gate_names_the_operator_and_class(model2, monkeypatch):
    monkeypatch.setattr(cs, "EIG_TOL", -1.0)     # every eigenvalue fails
    with pytest.raises(ArithmeticError, match=r"^H = \(n \+ 2\)\(3 L \+ L_sigma\) \+ Cas "
                                              r"on class \(0, 0, 0, 0\): eigenvalue"):
        dec.build_sp_projectors(model2)


def _theta(k):
    """b -> vartheta(b x g) + k psi(b x g), the constructor of the L = 6 and
    L = 2 components with Ricci curvature."""
    return lambda m, b: dec.vartheta(m, b, m.g) + k * top.psi(b, m.g)


def _forms(m, name):
    return [b.reshape(m.dim, m.dim) for b in cs.bilinear_component_basis(m, name)]


#: The paper's constructor of each component with Ricci curvature, and an
#: orthonormal basis of its irreducible parameter space.
CONSTRUCTED = {
    "R_a": (lambda m: [m.g / np.sqrt(m.dim)], _theta(12.0)),
    "L20E_a": (lambda m: _forms(m, "L20E"), _theta(12.0)),
    "R_b": (lambda m: [m.g / np.sqrt(m.dim)], _theta(-12.0)),
    "L20E_b": (lambda m: _forms(m, "L20E"), _theta(-12.0)),
    "S2ES2H_a": (lambda m: _forms(m, "S2ES2H"), _theta(4.0)),
    "S2ES2H_b": (lambda m: _forms(m, "S2ES2H"), _theta(-12.0)),
    "L20ES2H": (lambda m: _forms(m, "L20ES2H"), dec.l20es2h_embed),
    "L20ES4H": (lambda m: dec._constrained_triples(m, _forms(m, "L20ES2H"), "L20ES4H triples"),
                dec.triple_embed),
    "S4H": (lambda m: dec._constrained_triples(m, m.omegas / np.sqrt(m.dim), "S4H triples"),
            dec.triple_embed),
}


def test_constrained_triples_need_orthonormal_forms(model2):
    """|omega_A|^2 = 4n, so the raw omegas scale the constraint Gram by 4n
    and miss its closed-form eigenvalues 0, 2 and 3."""
    with pytest.raises(ArithmeticError, match="^S4H triples: eigenvalue"):
        dec._constrained_triples(model2, model2.omegas, "S4H triples")


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_constructor_images_span_their_components(bank, name):
    """The images of an orthonormal parameter basis under the paper's
    constructor lie in the component the Casimir split built, and their
    coordinates there have Gram matrix c I (Schur), with as many images as
    the rank: they span it.  At n = 2 the L20E_b images vanish."""
    m, ps = bank.model, bank.scheme
    basis, constructor = CONSTRUCTED[name]
    Y = np.array([cs.to_pair_coords(ps, constructor(m, p)) for p in basis(m)])
    c = float(np.vdot(Y, Y)) / len(Y)
    if bank.rank(name) == 0:
        assert (m.n, name) == (2, "L20E_b") and c < 1e-20
        return
    Z = Y @ bank.basis(name).T
    assert np.linalg.norm(Y - Z @ bank.basis(name)) <= 1e-9 * np.linalg.norm(Y)
    assert Z.shape == (bank.rank(name),) * 2
    assert np.max(np.abs(Z @ Z.T - c * np.eye(len(Z)))) <= 1e-9 * c


def test_casimir_gate_names_the_operator_and_class(model2, monkeypatch):
    """The H terms scaled by 1 + 1e-6 move every eigenvalue of H, none of
    whose values is 0, off its closed-form value; the first failing class
    is named, with the operator."""
    terms = cs.h_terms
    assert 0 not in dec.h_values(model2.n).values()

    def scaled(*args):
        return [((1.0 + 1e-6) * w, A, B) for w, A, B in terms(*args)]
    monkeypatch.setattr(cs, "h_terms", scaled)
    with pytest.raises(ArithmeticError, match=r"^H = \(n \+ 2\)\(3 L \+ L_sigma\) \+ Cas "
                                              r"on class \(0, 0, 0, 0\): eigenvalue"):
        dec.build_sp_projectors(model2)


#: sha256 of the curvature bank's rows, class after class, at n = 2, 3
#: and 4, recorded on the BLAS build DIGEST_BLAS.  At n = 3 and 4 the
#: eigenvectors' bits depend on the BLAS thread count, so those are built
#: with one thread in a fresh process.
_BANK_DIGESTS = {
    2: "d638fdbe5ec62889eb2e27b1bba0e005bfdbd7b3f6960d5e9857ceb575954ccd",
    3: "fa406fe632ad50908f2915e08da677e859ff17c5ad57560292e48ba392f18314",
    4: "5ceedede15730188ee73c9328e606457b4eb621378c48bd07763df09e2f7f737",
}

_BANK_DIGEST_SCRIPT = """
import hashlib
import sys
import numpy as np
from qhcurv import decomposition as dec
from qhcurv.model_space import build_model
for n in map(int, sys.argv[1:]):
    h = hashlib.sha256()
    for rows in dec.build_sp_projectors(build_model(n)).rows:
        h.update(np.ascontiguousarray(rows).tobytes())
    print(h.hexdigest())
"""


def test_sp_bank_rows_are_bitwise_stable(bank2):
    """The bank's rows hash to the recorded digests, which were taken when
    each class's H still found the nonzero entries of the H terms itself.
    Scaling the weights of the terms by 1 + 2^-50 changes them."""
    skip_unless_digest_blas()
    h = hashlib.sha256()
    for rows in bank2.rows:
        h.update(np.ascontiguousarray(rows).tobytes())
    assert h.hexdigest() == _BANK_DIGESTS[2]
    assert one_thread_digests(_BANK_DIGEST_SCRIPT, "3", "4") == [_BANK_DIGESTS[3],
                                                                   _BANK_DIGESTS[4]]


def test_casimir_values_are_distinct_in_every_eigenspace():
    """The values (n + 2)(3 lambda_L + lambda_sigma) + Cas of H on the fine
    components present at n are at least 1 apart for n = 2..10, so one
    gated eigh per class tells all fifteen apart; a weight with more than n
    parts has no Casimir value and no component (L40E at n <= 3, V211S2H at
    n = 2)."""
    assert ms.casimir_value((1, 1, 1, 1), 3) is None
    assert ms.casimir_value((2, 1, 1), 2) is None
    for n in range(2, 11):
        values = dec.h_values(n)
        assert list(values) == [name for name in dec.FINE_COMPONENTS
                                if len(dec.COMPONENT_SPECTRUM[name][2]) <= n]
        for name, value in values.items():
            lam, mu, weight = dec.COMPONENT_SPECTRUM[name]
            assert value == (n + 2) * (3 * lam + mu) + ms.casimir_value(weight, n)
        gaps = np.diff(sorted(values.values()))
        assert np.all(gaps >= 1.0), (n, values)
    assert ms.casimir_value((4,), 3) == 10.0 and ms.casimir_value((), 3) == 0.0


#: The fifteen fine ranks at n = 2..5, in FINE_COMPONENTS order, as the
#: earlier hand-written formulas gave them.
_FINE_RANKS = {
    2: (35, 14, 5, 1, 0, 0, 1, 105, 30, 0, 30, 15, 70, 25, 5),
    3: (126, 90, 14, 1, 0, 14, 1, 567, 63, 210, 63, 42, 450, 70, 5),
    4: (330, 308, 27, 1, 42, 27, 1, 1782, 108, 945, 108, 81, 1540, 135, 5),
    5: (715, 780, 44, 1, 165, 44, 1, 4290, 165, 2673, 165, 132, 3900, 220, 5),
}


def test_expected_fine_dims_are_pinned():
    for n, ranks in _FINE_RANKS.items():
        assert dec.expected_fine_dims(n) == dict(zip(dec.FINE_COMPONENTS, ranks))


def test_sp_bank_needs_no_svd(monkeypatch, model2):
    """Every fine rank is decided by a gated eigh: no SVD in the build."""
    calls = []
    # pinv and friends reach svd through their module's global
    linalg_globals = np.linalg.svd.__wrapped__.__globals__

    def counting(*args, _inner=np.linalg.svd, **kwargs):
        calls.append("svd")
        return _inner(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setitem(linalg_globals, "svd", counting)
    bank = dec.build_sp_projectors(model2)
    assert calls == []
    assert {name: bank.rank(name) for name in dec.FINE_COMPONENTS} \
        == dec.expected_fine_dims(2)
    np.linalg.pinv(np.eye(2))
    assert calls == ["svd"]


def test_r_a_r_b_are_the_unit_rays(bank):
    m = bank.model
    for name, T in (("R_a", m.pi2 + 6 * m.pi1), ("R_b", m.pi2 - 6 * m.pi1)):
        v = bank.coords(T)
        (row,) = bank.basis(name)
        assert min(np.linalg.norm(row - s * v / np.linalg.norm(v)) for s in (1, -1)) < 1e-12


def test_l_blocks_and_joint_eigenspaces_match_dense_oracle(bank2):
    """The bank's L-blocks and joint (L, L_sigma) eigenspaces (the sums of
    its fine components with one L, L_sigma pair) equal those of the full
    336 x 336 L_R and L_sigma_R, built by applying the slot-action maps to
    every closed-form row of R (no Kronecker code)."""
    m, ps = bank2.model, bank2.scheme
    R_rows = full_width_R_basis(m, ps)

    def dense(op):
        images = np.array([cs.to_pair_coords(ps, op(m, cs.from_pair_coords(ps, row)))
                           for row in R_rows])
        H = R_rows @ images.T
        return 0.5 * (H + H.T)

    def projector(rows):
        return rows.T @ rows

    def bank_projector(names):
        return sum(projector(bank2.basis(name)) for name in names)

    L_R, Lsigma_R = dense(cs.L_map), dense(cs.L_sigma_map)
    w, V = np.linalg.eigh(L_R)
    for name, lam in dec.L_BLOCKS.items():
        Vl = V[:, np.abs(w - lam) < 1.0]
        assert np.max(np.abs(w[np.abs(w - lam) < 1.0] - lam)) < 1e-10
        assert np.max(np.abs(projector(Vl.T @ R_rows) - bank_projector(dec.COMPOSITES[name]))) \
            < 1e-10
        joint = {}
        for fine in dec.COMPOSITES[name]:
            joint.setdefault(dec.COMPONENT_SPECTRUM[fine][1], []).append(fine)
        ws, W = np.linalg.eigh(Vl.T @ Lsigma_R @ Vl)
        assert sum(np.sum(np.abs(ws - mu) < 1e-10) for mu in joint) == len(ws)
        for mu, names in joint.items():
            rows = (Vl @ W[:, np.abs(ws - mu) < 1.0]).T @ R_rows
            assert np.max(np.abs(projector(rows) - bank_projector(names))) < 1e-10


def test_unknown_component_name(bank):
    with pytest.raises(KeyError):
        bank.basis("NOPE")


@pytest.mark.slow
def test_sp_bank_ranks_at_n4():
    """At n = 4 every eigenvalue of the 32 class operators H passes the
    EIG_TOL gate (the build raises otherwise), all fifteen ranks match the
    formulas, and the audit passes.  The bank stores sum_c rows_c x
    coords_c doubles over the 32 sign classes (272 x 576 for the trivial
    class, three of 208 x 512 with a trivial line part, 24 of 168 x 448 with
    two odd lines, four of 128 x 384 with four) plus the two rays on the
    trivial class: 19.8 MB, against (dim R + 2) x 14400 doubles (627 MB)
    for one full-width stack.

    Then run_tables(seeds=2) on these banks.  The six Table-1 and Table-3
    cells that vanish at n = 3 (LOW_N_VANISHING[3]) tick, Table 2 follows
    Table 1 (so the four L20E cells behind them tick too), every R_a + R_b
    direction check is aligned, and no cell is ambiguous.  Lambda^4_0 E has rank > 0 only from
    n = 4, so this is the one run of the L40E column of Table 3.  Two of
    its cells, xi_33*xi_33 and xi_3H*xi_3H, come out at roundoff although
    the reference ticks them; they stay mismatches until a measurement at
    n = 5 or a representation argument settles them."""
    m = ms.build_model(4)
    bank = dec.build_sp_projectors(m)
    assert {name: bank.rank(name) for name in dec.FINE_COMPONENTS} \
        == dec.expected_fine_dims(4)
    assert [rows.shape for rows in bank.rows] \
        == [(272, 576)] + [(208, 512)] * 3 + [(168, 448)] * 24 + [(128, 384)] * 4
    assert sum(rows.nbytes for rows in bank.rows) + bank.rays.nbytes == 19842048
    assert dec.dimension_audit(bank).failures == []

    report = tbl.run_tables(bank, tor.build_torsion_bank(m), seeds=2)
    ticked = {(c.source, c.target) for c in report.cells if c.tick}
    assert tbl.LOW_N_VANISHING[3] <= ticked
    assert_table2_follows_table1(report)
    assert report.direction_checks and all(d["aligned"] for d in report.direction_checks)
    assert report.ambiguous == []
    assert {(c.source, c.table, c.target) for c in report.mismatches} \
        == {("xi_33*xi_33", 3, "L40E"), ("xi_3H*xi_3H", 3, "L40E")}


@pytest.mark.slow
def test_sp_bank_ranks_at_n5():
    """At n = 5 every eigenvalue of the 64 class operators H passes the
    EIG_TOL gate (the build raises otherwise), all fifteen ranks match the
    formulas, and the audit passes.  No torsion bank is built."""
    m = ms.build_model(5)
    bank = dec.build_sp_projectors(m)
    assert len(bank.classes) == 64
    assert {name: bank.rank(name) for name in dec.FINE_COMPONENTS} \
        == dec.expected_fine_dims(5)
    assert dec.dimension_audit(bank).failures == []
