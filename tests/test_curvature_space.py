import numpy as np
import pytest

from qhcurv import curvature_space as cs
from qhcurv import model_space as ms
from qhcurv import tensor_ops as top


def test_project_to_R_and_certification(model2):
    fixed = cs.project_to_R(model2.pi1)
    assert top.frob(fixed.tensor - model2.pi1) < 1e-12
    # symmetrized square of omega_I projects to a Bianchi fixed point
    s = top.odot(model2.omegas[0], model2.omegas[0])
    first = cs.project_to_R(s).tensor
    again = cs.project_to_R(first).tensor
    assert top.frob(first - again) < 1e-12 * top.frob(first)
    with pytest.raises(cs.CertificationError):
        cs.project_to_R(cs.substream("bad", 0).standard_normal((8,) * 4))
    with pytest.raises(cs.CertificationError):
        cs.CurvatureTensor(np.zeros((8,) * 4)).require_certified()


def test_curvature_space_dimension(model):
    """The closed-form basis of R is orthonormal, has dim R rows, and every
    row certifies."""
    from qhcurv.decomposition import dim_R
    ps = cs.pair_scheme(model.dim)
    basis = cs.curvature_basis(model, ps)
    assert basis.shape == (dim_R(model.n), ps.m * ps.m)
    assert np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0]))) < 1e-14
    for row in basis:
        cs.CurvatureTensor.certify(cs.from_pair_coords(ps, row))


def test_basis_grades_split_R(model):
    """Each closed-form row lies in one line-count grade, the grade sizes add
    up to dim R, and the slot-action L and L_sigma put no weight outside the
    grade of the row they act on."""
    from qhcurv.decomposition import dim_R
    m = model
    ps = cs.pair_scheme(m.dim)
    grades = cs.basis_grades(m, ps, cs.curvature_basis(m, ps))
    sizes = sorted(g.rows.shape[0] for g in grades)
    assert sum(sizes) == dim_R(m.n)
    assert sizes == {2: [20, 20, 80, 80, 136],
                     3: [20] * 3 + [80] * 6 + [136] * 3 + [256] * 3}[m.n]
    for g in grades:
        assert sum(g.counts) == 4
        # restricted to its grade, every row keeps its unit norm
        assert np.max(np.abs(g.rows @ g.rows.T - np.eye(g.rows.shape[0]))) < 1e-14
        outside = np.ones(ps.m * ps.m, dtype=bool)
        outside[g.coords] = False
        row = np.zeros(ps.m * ps.m)
        row[g.coords] = g.rows[g.rows.shape[0] // 2]
        T = cs.from_pair_coords(ps, row)
        for op in (cs.L_map, cs.L_sigma_map):
            image = cs.to_pair_coords(ps, op(m, T))
            assert np.max(np.abs(image[outside])) <= 1e-14
            assert np.linalg.norm(image[g.coords]) > 1.0


def test_casimir_matrices_match_tensor_maps(model):
    """On every grade, the Kronecker-form L and L_sigma agree with the
    slot-action maps on R."""
    m = model
    ps = cs.pair_scheme(m.dim)
    counts, label = cs.coordinate_grades(m, ps)
    samples = np.array([cs.to_pair_coords(ps, cs.random_curvature(m, ("casimir", k)).tensor)
                        for k in range(5)])
    for g in range(len(counts)):
        coords = np.flatnonzero(label == g)
        # the grade part of an element of R lies in R
        B = cs.orthonormal_rows(samples[:, coords])
        assert B.shape[0] == 5
        L_R, Lsigma_R = cs.casimir_matrices(m, ps, coords, B)
        full = np.zeros((5, ps.m * ps.m))
        full[:, coords] = B
        for op, got in ((cs.L_map, L_R), (cs.L_sigma_map, Lsigma_R)):
            images = np.array([cs.to_pair_coords(ps, op(m, cs.from_pair_coords(ps, row)))
                               for row in full])
            assert np.max(np.abs(got - full @ images.T)) < 1e-12


def test_casimir_l_sigma_identity_fails_off_R(model2):
    """L_sigma = 3M - L holds on R only: on each grade part of the 4-form
    Omega (orthogonal to R) the slot-action L_sigma gives 6 while 3M - L
    gives 0."""
    m = model2
    ps = cs.pair_scheme(m.dim)
    counts, label = cs.coordinate_grades(m, ps)
    v = cs.to_pair_coords(ps, m.Omega)
    parts = 0
    for g in range(len(counts)):
        coords = np.flatnonzero(label == g)
        if not np.any(v[coords]):
            continue
        parts += 1
        B = (v[coords] / np.linalg.norm(v[coords]))[None, :]
        L_R, Lsigma_R = cs.casimir_matrices(m, ps, coords, B)
        full = np.zeros(ps.m * ps.m)
        full[coords] = B[0]
        Omega_g = cs.from_pair_coords(ps, full)
        assert L_R[0, 0] == pytest.approx(6.0)
        assert float(full @ cs.to_pair_coords(ps, cs.L_sigma_map(m, Omega_g))) \
            == pytest.approx(6.0)
        assert abs(Lsigma_R[0, 0]) < 1e-12
    assert parts == 3      # grades (4, 0), (2, 2), (0, 4)


def test_certify_rejects_non_finite(model2):
    R = cs.random_curvature(model2, 41).tensor.copy()
    R[0, 1, 2, 3] = np.nan
    with pytest.raises(cs.CertificationError):
        cs.CurvatureTensor.certify(R)


def test_random_curvature_deterministic(model2):
    a = cs.random_curvature(model2, "seed-x")
    b = cs.random_curvature(model2, "seed-x")
    c = cs.random_curvature(model2, "seed-y")
    assert np.array_equal(a.tensor, b.tensor)
    assert a.certified
    assert top.frob(a.tensor - c.tensor) > 1.0
    assert top.curvature_inner(a.tensor, a.tensor) > 0.0


def test_L_eigenvalues_on_probes(model):
    rng = cs.substream("probes", model.n)
    a, b, c, d = rng.standard_normal((4, model.dim))
    p1, p2, p3 = cs.probe_tensors(model, a, b, c, d)
    for lam, p in ((-6.0, p1), (6.0, p2), (2.0, p3)):
        assert top.frob(cs.L_map(model, p) - lam * p) < 1e-10 * top.frob(p)
    # degenerate one-forms are fine (no antisymmetry assumed)
    q1, _, q3 = cs.probe_tensors(model, a, a, c, d)
    assert top.frob(cs.L_map(model, q1) + 6.0 * q1) < 1e-10 * max(top.frob(q1), 1.0)
    assert top.frob(cs.L_map(model, q3) - 2.0 * q3) < 1e-10 * max(top.frob(q3), 1.0)


def test_L_and_L_sigma_reference_values(model):
    m = model
    apb, amb = m.pi2 + 6 * m.pi1, m.pi2 - 6 * m.pi1
    assert top.frob(cs.L_map(m, m.pi1) - 6 * m.pi1) < 1e-10
    assert top.frob(cs.L_sigma_map(m, apb)) < 1e-10 * top.frob(apb)
    assert top.frob(cs.L_sigma_map(m, amb) + 12 * amb) < 1e-10 * top.frob(amb)
    r1 = 6 * top.odot(m.omegas[0], m.omegas[1]) - top.wedge2(m.omegas[0], m.omegas[1])
    assert max(cs.curvature_residuals(r1).values()) < 1e-12
    assert top.frob(cs.L_sigma_map(m, r1)) < 1e-10 * top.frob(r1)
    assert top.frob(cs.L_map(m, r1) + 6 * r1) < 1e-10 * top.frob(r1)


def test_L_self_adjoint_and_basis_independent(model):
    m = model
    R = cs.random_curvature(m, 1).tensor
    S = cs.random_curvature(m, 2).tensor
    assert (top.curvature_inner(cs.L_map(m, R), S)
            == pytest.approx(top.curvature_inner(R, cs.L_map(m, S)), rel=1e-10))
    # L and L_sigma computed from a rotated adapted basis agree
    rot = ms.random_rotation(cs.substream("rot", m.n))
    triple2 = ms.adapted_basis(m, rot)

    def op_from_triple(triple, R, sigma=False):
        import itertools as it
        out = np.zeros_like(R)
        if not sigma:
            for A in triple:
                for i, j in it.combinations(range(1, 5), 2):
                    out += top.pair_act(A, i, j, R)
            return out
        s1 = top.sigma_perm(R)
        s2 = top.sigma_perm(s1)
        for A in triple:
            out += top.pair_act(A, 1, 2, R) + top.pair_act(A, 3, 4, R)
            out += top.pair_act(A, 2, 3, s1) + top.pair_act(A, 1, 4, s1)
            out += top.pair_act(A, 1, 3, s2) + top.pair_act(A, 2, 4, s2)
        return out

    assert top.frob(op_from_triple(triple2, R) - cs.L_map(m, R)) \
        < 1e-10 * top.frob(R)
    assert top.frob(op_from_triple(triple2, R, sigma=True) - cs.L_sigma_map(m, R)) \
        < 1e-10 * top.frob(R)


def test_ricci_reference_values(model):
    m, n = model, model.n
    apb, amb = m.pi2 + 6 * m.pi1, m.pi2 - 6 * m.pi1
    assert np.allclose(cs.ricci(apb), 12 * (2 * n + 1) * m.g)
    assert np.allclose(cs.ricci(amb), -24 * (n - 1) * m.g)
    assert np.allclose(cs.ricci(np.zeros((m.dim,) * 4)), 0.0)
    assert cs.scal(np.zeros((m.dim,) * 4)) == 0.0
    R = cs.random_curvature(m, 5).tensor
    assert np.allclose(cs.ricci_q(m, R),
                       sum(cs.ricci_star(R, A) for A in m.triple))
    assert cs.scal_q(m, R) == pytest.approx(np.trace(cs.ricci_q(m, R)))


def test_lemma_41_identities(model):
    m = model
    for seed in range(3):
        R = cs.random_curvature(m, ("lemma41", seed)).tensor
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)

        def twisted(b):
            return sum(np.einsum("xa,yb,ab->xy", A, A, b) for A in m.triple)

        lhs = cs.ricci(cs.L_map(m, R))
        assert top.frob(lhs - (3 * ric + twisted(ric))) < 1e-9 * top.frob(lhs)
        lhs = cs.ricci_q(m, cs.L_map(m, R))
        assert top.frob(lhs - (3 * ricq + twisted(ricq))) < 1e-9 * top.frob(lhs)
        lhs = cs.ricci(cs.L_sigma_map(m, R))
        rhs = 3 * ricq + 3 * ricq.T - 3 * ric - twisted(ric)
        assert top.frob(lhs - rhs) < 1e-9 * max(top.frob(lhs), 1.0)


def test_skew_qricci_membership(model):
    m = model
    R = cs.random_curvature(m, 11).tensor
    rqa = top.asym2(cs.ricci_q(m, R))
    summed = sum(np.einsum("xa,yb,ab->xy", A, A, rqa) for A in m.triple)
    assert top.frob(summed + rqa) < 1e-9 * top.frob(rqa)
    for w in m.omegas:
        assert abs(top.p_form_inner(rqa, w)) < 1e-9 * top.frob(rqa)


def test_bilinear_projector_algebra(model2):
    m = model2
    d = m.dim
    sym_names = ("R", "L20E", "S2ES2H")
    form_names = ("S2E", "S2H", "L20ES2H")
    expected = {"R": 1, "L20E": 5, "S2ES2H": 30, "S2E": 10, "S2H": 3, "L20ES2H": 15}
    for names, seeds in ((sym_names, cs.sym_basis(d)), (form_names, cs.form_basis(d))):
        bases = {nm: cs.bilinear_component_basis(m, nm) for nm in names}
        for nm in names:
            assert bases[nm].shape[0] == expected[nm]
        stacked = np.vstack([bases[nm] for nm in names])
        gram = stacked @ stacked.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9
        # completeness on the ambient symmetric/antisymmetric space
        amb = cs.orthonormal_rows(np.array([s.ravel() for s in seeds]))
        overlap = stacked @ amb.T
        assert np.max(np.abs(overlap.T @ overlap - np.eye(amb.shape[0]))) < 1e-9


def test_bilinear_projector_examples(model2):
    m = model2
    assert np.allclose(cs.proj_sym_R(m, m.g), m.g)
    assert top.frob(cs.proj_sym_L20E(m, m.g)) < 1e-12
    assert np.allclose(cs.proj_form_S2H(m, m.omegas[0]), m.omegas[0])
    # the L20ES2H part of a random 2-form satisfies the two characterizations
    raw = cs.substream("bilin", 1).standard_normal((m.dim, m.dim))
    b = cs.proj_form_L20ES2H(m, raw - raw.T)
    summed = sum(np.einsum("xa,yb,ab->xy", A, A, b) for A in m.triple)
    assert top.frob(summed + b) < 1e-10 * top.frob(b)
    for w in m.omegas:
        assert abs(top.p_form_inner(b, w)) < 1e-10 * top.frob(b)
    # idempotence / mutual orthogonality on arbitrary bilinear input
    raw = cs.substream("bilin", 2).standard_normal((m.dim, m.dim))
    s = cs.proj_sym_S2ES2H(m, raw)
    assert top.frob(cs.proj_sym_S2ES2H(m, s) - s) < 1e-12 * top.frob(s)
    assert top.frob(cs.proj_sym_L20E(m, s)) < 1e-12 * top.frob(s)
    assert top.frob(top.asym2(s)) < 1e-12 * top.frob(s)


def test_pair_coordinates_roundtrip(model2):
    ps = cs.pair_scheme(model2.dim)
    R = cs.random_curvature(model2, 3).tensor
    v = cs.to_pair_coords(ps, R)
    assert top.frob(cs.from_pair_coords(ps, v) - R) < 1e-12 * top.frob(R)
    assert float(v @ v) == pytest.approx(top.curvature_inner(R, R), rel=1e-12)


def test_certified_ricci_methods(model2):
    m = model2
    R = cs.random_curvature(m, 99)
    assert np.allclose(R.ricci(), cs.ricci(R.tensor))
    assert np.allclose(R.ricci_q(m), cs.ricci_q(m, R.tensor))
    assert np.allclose(R.ricci_star(m.I), cs.ricci_star(R.tensor, m.I))
    assert R.scal() == pytest.approx(cs.scal(R.tensor))
    assert R.scal_q(m) == pytest.approx(cs.scal_q(m, R.tensor))
    loose = cs.CurvatureTensor(R.tensor, certified=False)
    for call in (loose.ricci, lambda: loose.ricci_q(m), loose.scal,
                 lambda: loose.scal_q(m), lambda: loose.ricci_star(m.I)):
        with pytest.raises(cs.CertificationError):
            call()
