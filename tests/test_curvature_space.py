import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coordinate_characters, coordinate_grades, full_width_R_basis, random_rotation
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


def test_curvature_space_dimension(model):
    """The closed-form basis of R is orthonormal, has dim R rows, and every
    row certifies."""
    from qhcurv.decomposition import dim_R
    ps = cs.pair_scheme(model.dim)
    basis = full_width_R_basis(model, ps)
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
    counts, label = coordinate_grades(m, ps)
    R_rows = full_width_R_basis(m, ps)
    # every nonzero entry of a row shares the grade of its first one
    of_row = label[np.argmax(R_rows != 0, axis=1)]
    assert not np.any((R_rows != 0) & (label[None, :] != of_row[:, None]))
    grades, sizes = np.unique(of_row, return_counts=True)
    assert sum(sizes) == dim_R(m.n)
    assert sorted(sizes.tolist()) == {2: [20, 20, 80, 80, 136],
                                      3: [20] * 3 + [80] * 6 + [136] * 3 + [256] * 3}[m.n]
    for g in grades:
        assert counts[g].sum() == 4
        coords = np.flatnonzero(label == g)
        rows = R_rows[of_row == g]
        # restricted to its grade, every row keeps its unit norm
        assert np.max(np.abs(rows[:, coords] @ rows[:, coords].T - np.eye(len(rows)))) < 1e-14
        outside = np.ones(ps.m * ps.m, dtype=bool)
        outside[coords] = False
        T = cs.from_pair_coords(ps, rows[len(rows) // 2])
        for op in (cs.L_map, cs.L_sigma_map):
            image = cs.to_pair_coords(ps, op(m, T))
            assert np.max(np.abs(image[outside])) <= 1e-14
            assert np.linalg.norm(image[coords]) > 1.0


def test_class_blocks_partition_R(bank):
    """curvature_basis gives one orthonormal block per sign class, of pinned
    size, on coordinates that share the class's character and cover every
    pair coordinate once.  L, L_sigma and Cas_map put no weight outside
    the class of the row they act on, and the bank's rows of each class
    have the shape of its block."""
    m, ps = bank.model, bank.scheme
    characters, classes = cs.sign_classes(m, ps)
    blocks = list(cs.curvature_basis(m, ps, classes))
    assert [B.shape for B in blocks] == {
        2: [(56, 112)] + [(40, 96)] * 7,
        3: [(144, 300)] + [(108, 264)] * 3 + [(104, 272)] * 12}[m.n]
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(ps.m ** 2))
    of_coord = coordinate_characters(m, ps)
    for character, coords, B, rows in zip(characters, classes, blocks, bank.rows):
        assert np.array_equal(np.unique(of_coord[coords], axis=0), character[None])
        assert np.max(np.abs(B @ B.T - np.eye(B.shape[0]))) < 1e-14
        assert rows.shape == B.shape
        outside = np.ones(ps.m * ps.m, dtype=bool)
        outside[coords] = False
        for i in sorted({0, len(B) // 2, len(B) - 1}):
            row = np.zeros(ps.m * ps.m)
            row[coords] = B[i]
            T = cs.from_pair_coords(ps, row)
            for op in (cs.L_map, cs.L_sigma_map, cs.Cas_map):
                image = cs.to_pair_coords(ps, op(m, T))
                assert np.max(np.abs(image[outside])) <= 1e-14, (op.__name__, i)
                assert np.linalg.norm(image[coords]) > 0.1, (op.__name__, i)


def test_L_maps_act_on_stacks(model):
    """L and L_sigma on a stack of tensors give each tensor's own image."""
    m = model
    T = np.array([cs.random_curvature(m, seed).tensor for seed in range(3)])
    for op in (cs.L_map, cs.L_sigma_map):
        stacked = op(m, T)
        for t, got in zip(T, stacked):
            assert top.frob(op(m, t) - got) <= 1e-13 * top.frob(got)


def test_every_sv_rank_decision_names_its_basis(model2, monkeypatch):
    """With an unreachable margin the torsion bank's SV rank decisions, the
    only ones left, raise, naming the basis being built."""
    from qhcurv import torsion as tor
    monkeypatch.setattr(tor, "_SV_MARGIN", np.inf)
    with pytest.raises(ArithmeticError, match="^torsion space: rank decision too close"):
        tor.build_torsion_bank(model2)


def test_every_eig_rank_decision_names_its_basis(model2, monkeypatch):
    """With a negative EIG_TOL every gated eigh outside the curvature bank
    raises, and each caller's error names what it was splitting."""
    from qhcurv import curvature_from_torsion as cft
    from qhcurv import decomposition as dec
    from qhcurv import torsion as tor
    monkeypatch.setattr(cs, "EIG_TOL", -1.0)
    forms = model2.omegas / np.sqrt(model2.dim)
    for build, label in ((lambda: cs.bilinear_component_basis(model2, "L20E"),
                          "bilinear-form component L20E"),
                         (lambda: dec._constrained_triples(model2, forms, "S4H triples"),
                          "S4H triples"),
                         (lambda: tor.psi_k_solve(model2, np.zeros((model2.dim,) * 3)),
                          "K H 3-form images"),
                         (lambda: cft.lemma_gammas_kernel(model2), "gamma rigidity kernel")):
        with pytest.raises(ArithmeticError, match=f"^{label}: eigenvalue"):
            build()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([4, 8]),
       form_weight=st.floats(0.0, 1.0), log_scale=st.floats(-8.0, 8.0))
def test_bianchi_residual_is_never_looser_than_alt(seed, dim, form_weight, log_scale):
    """The cyclic-sum Bianchi residual is at least |alt(X)| / |X| for every
    rank-4 X (equal on 4-forms, form_weight = 1), and equals it once X is
    symmetrized into S^2(Lambda^2) as random_curvature does."""
    G = cs.substream("bianchi-gate", seed).standard_normal((dim,) * 4)
    X = 10.0 ** log_scale * (form_weight * top.alt(G) + (1.0 - form_weight) * G)
    assert cs.curvature_residuals(X)["bianchi"] >= \
        (1.0 - 1e-12) * top.frob(top.alt(X)) / top.frob(X)
    S = X - X.swapaxes(0, 1)
    S = S - S.swapaxes(2, 3)
    S = S + S.transpose(2, 3, 0, 1)
    assert cs.curvature_residuals(S)["bianchi"] == \
        pytest.approx(top.frob(top.alt(S)) / top.frob(S), rel=1e-12)


def _h_map(m, T):
    """(n + 2)(3 L + L_sigma) + Cas of a rank-4 tensor, by the tensor maps."""
    return (m.n + 2) * (3 * cs.L_map(m, T) + cs.L_sigma_map(m, T)) + cs.Cas_map(m, T)


def test_h_kron_blocks_match_tensor_maps(model):
    """On every sign class, H built from its Kronecker terms agrees
    on R with (n + 2)(3 L + L_sigma) + Cas from the tensor maps."""
    m = model
    ps = cs.pair_scheme(m.dim)
    terms = cs.h_terms(m, ps)
    _, classes = cs.sign_classes(m, ps)
    samples = np.array([cs.to_pair_coords(ps, cs.random_curvature(m, ("casimir", k)).tensor)
                        for k in range(5)])
    for coords in classes:
        # the class part of an element of R lies in R
        _, sv, B = np.linalg.svd(samples[:, coords], full_matrices=False)
        assert B.shape[0] == 5 and sv[-1] > 1e-8 * sv[0]
        full = np.zeros((5, ps.m * ps.m))
        full[:, coords] = B
        got = B @ cs._kron_block(ps, terms, coords) @ B.T
        images = np.array([cs.to_pair_coords(ps, _h_map(m, cs.from_pair_coords(ps, row)))
                           for row in full])
        assert np.max(np.abs(got - full @ images.T)) < 1e-12


def _rho(X, T):
    """rho(X) T: the sum of the four slot actions of X."""
    return sum(top.slot_act(X, i, T) for i in range(1, 5))


def test_h_blocks_match_slot_action_oracle(model2):
    """Per sign class, H built from its Kronecker terms, sandwiched by
    the class's closed-form rows of R, equals (n + 2)(3 L + L_sigma) plus
    -sum_X rho(X)^2 applied to every row by slot actions (no Kronecker
    code).  The images stay in R and in the row's class, and the
    tensor-level Cas_map gives the Casimir part too."""
    m = model2
    ps = cs.pair_scheme(m.dim)
    R_rows = full_width_R_basis(m, ps)
    X = ms.sp_generators(m.n)
    tensors = [cs.from_pair_coords(ps, row) for row in R_rows]
    cas = np.array([cs.to_pair_coords(ps, -sum(_rho(x, _rho(x, T)) for x in X))
                    for T in tensors])
    assert np.max(np.abs(np.array([cs.to_pair_coords(ps, cs.Cas_map(m, T)) for T in tensors])
                         - cas)) < 1e-12
    images = cas + (m.n + 2) * np.array(
        [cs.to_pair_coords(ps, 3 * cs.L_map(m, T) + cs.L_sigma_map(m, T)) for T in tensors])
    oracle = R_rows @ images.T
    assert np.max(np.abs(oracle.T @ R_rows - images)) < 1e-12
    _, classes = cs.sign_classes(m, ps)
    terms = cs.h_terms(m, ps)
    seen = 0
    for coords in classes:
        block = cs._kron_block(ps, terms, coords)
        assert block.shape == (len(coords),) * 2
        on = np.flatnonzero(np.any(R_rows[:, coords] != 0, axis=1))
        B = R_rows[np.ix_(on, coords)]
        assert np.max(np.abs(B @ block @ B.T - oracle[np.ix_(on, on)])) < 1e-12
        assert np.max(np.abs(np.delete(images[on], coords, axis=1)), initial=0.0) < 1e-12
        seen += len(on)
    assert seen == len(R_rows)


def test_cas_map_matches_slot_actions(model):
    """Cas_map equals -sum_X rho(X)^2 by slot actions on rank-4 tensors
    outside R too, one at a time and as a stack; sum_X X^2 is the scalar
    -(2n + 1)/4 it reads off the generators."""
    m = model
    X = ms.sp_generators(m.n)
    assert np.max(np.abs(sum(x @ x for x in X) + (2 * m.n + 1) / 4 * np.eye(m.dim))) < 1e-14
    G = cs.substream("cas-map", m.n).standard_normal((2,) + (m.dim,) * 4)
    naive = np.array([-sum(_rho(x, _rho(x, T)) for x in X) for T in G])
    scale = np.max(np.abs(naive))
    assert np.max(np.abs(cs.Cas_map(m, G) - naive)) < 1e-14 * scale
    assert np.max(np.abs(cs.Cas_map(m, G[1]) - naive[1])) < 1e-14 * scale


def _sweep(mats, terms):
    """sum over (T, axes) in terms and X in mats of X substituted on both
    axes of T: one pair-substitution sweep, with no pair matrix."""
    return sum(top.substitute(mats, axes, T).sum(0) for T, axes in terms)


def test_oracles_match_their_substitution_sweeps_off_R(model):
    """On a random stack of rank-4 tensors outside R, L_map, L_sigma_map
    and Cas_map equal their slot-action definitions written out as
    substitution sweeps over slot pairs (slots 1..4 are the axes -4..-1),
    to 1e-13 relative.  L_sigma's six-term formula holds off R, where
    L_sigma = 3M - L does not.  pair_matrix is sum_X X (x) X: exactly for
    the omega_A, whose entries are 0 and +-1, and to 1e-15 for sp(n)."""
    m = model
    X = ms.sp_generators(m.n)
    assert np.array_equal(top.pair_matrix(m.omegas), sum(np.kron(A, A) for A in m.omegas))
    assert np.max(np.abs(top.pair_matrix(X) - sum(np.kron(x, x) for x in X))) <= 1e-15
    G = cs.substream("oracles-off-R", m.n).standard_normal((2,) + (m.dim,) * 4)
    assert all(cs.curvature_residuals(T)["antisym_12"] > 0.1 for T in G)
    every_pair = [(G, pair) for pair in itertools.combinations(range(-4, 0), 2)]
    s1 = top.sigma_perm(G)
    s2 = top.sigma_perm(s1)
    expected = {
        cs.L_map: _sweep(m.omegas, every_pair),
        cs.L_sigma_map: _sweep(m.omegas, ((G, (-4, -3)), (G, (-2, -1)), (s1, (-3, -2)),
                                          (s1, (-4, -1)), (s2, (-4, -2)), (s2, (-3, -1)))),
        cs.Cas_map: (2 * m.n + 1) * G - 2 * _sweep(X, every_pair),
    }
    for op, want in expected.items():
        assert top.frob(op(m, G) - want) <= 1e-13 * top.frob(want), op.__name__


def test_casimir_block_refuses_coordinates_it_leaves(model2):
    """Cas, and with it H, moves indices between lines, so the grade (2, 2)
    is not invariant: its block is refused rather than cut off."""
    m = model2
    ps = cs.pair_scheme(m.dim)
    counts, label = coordinate_grades(m, ps)
    grade = np.flatnonzero(label == np.flatnonzero((counts == [2, 2]).all(axis=1))[0])
    with pytest.raises(ValueError, match="outside themselves"):
        cs._kron_block(ps, cs.h_terms(m, ps), grade)


def test_casimir_l_sigma_identity_fails_off_R(model2):
    """L_sigma = 3M - L holds on R only.  The 4-form Omega (orthogonal to R)
    lies in the trivial class and is fixed by Sp(n)Sp(1), so L gives 6 and
    Cas 0 on it both ways; the slot-action L_sigma gives 6, while the
    Kronecker terms of H read L_sigma as 3M - L, which gives 0.  So b H b is
    18(n + 2) from the terms and 24(n + 2) from the tensor maps."""
    m = model2
    ps = cs.pair_scheme(m.dim)
    _, classes = cs.sign_classes(m, ps)
    Omega = top.wedge2(m.omegas, m.omegas).sum(0)
    v = cs.to_pair_coords(ps, Omega)
    assert not np.any(np.delete(v, classes[0]))
    b = v[classes[0]] / np.linalg.norm(v)
    Omega = Omega / np.linalg.norm(v)
    k = m.n + 2
    assert b @ cs._kron_block(ps, cs.h_terms(m, ps), classes[0]) @ b \
        == pytest.approx(18.0 * k, abs=1e-12)
    assert float(cs.to_pair_coords(ps, cs.L_sigma_map(m, Omega)) @ v / np.linalg.norm(v)) \
        == pytest.approx(6.0)
    assert float(cs.to_pair_coords(ps, _h_map(m, Omega)) @ v / np.linalg.norm(v)) \
        == pytest.approx(24.0 * k)


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
    assert isinstance(a, cs.CurvatureTensor)
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
    rot = random_rotation(cs.substream("rot", m.n))
    triple2 = ms.adapted_basis(m, rot)

    def op_from_triple(triple, R, sigma=False):
        import itertools as it
        out = np.zeros_like(R)
        if not sigma:
            for A in triple:
                for i, j in it.combinations(range(4), 2):
                    out += top.substitute(A, (i, j), R)
            return out
        s1 = top.sigma_perm(R)
        s2 = top.sigma_perm(s1)
        for A in triple:
            out += top.substitute(A, (0, 1), R) + top.substitute(A, (2, 3), R)
            out += top.substitute(A, (1, 2), s1) + top.substitute(A, (0, 3), s1)
            out += top.substitute(A, (0, 2), s2) + top.substitute(A, (1, 3), s2)
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
    R = cs.random_curvature(m, 5).tensor
    assert np.allclose(cs.ricci_q(m, R),
                       sum(cs.ricci_star(R, A) for A in m.omegas))


def test_lemma_41_identities(model):
    m = model
    for seed in range(3):
        R = cs.random_curvature(m, ("lemma41", seed)).tensor
        ric, ricq = cs.ricci(R), cs.ricci_q(m, R)

        def twisted(b):
            return sum(np.einsum("xa,yb,ab->xy", A, A, b) for A in m.omegas)

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
    summed = sum(np.einsum("xa,yb,ab->xy", A, A, rqa) for A in m.omegas)
    assert top.frob(summed + rqa) < 1e-9 * top.frob(rqa)
    for w in m.omegas:
        assert abs(top.p_form_inner(rqa, w)) < 1e-9 * top.frob(rqa)


def _orthonormal_units(d, sign):
    """Orthonormal rows, flattened, spanning the symmetric (sign 1) or
    antisymmetric (sign -1) d x d matrices: e_ij + sign e_ji, normalized."""
    i, j = np.triu_indices(d, 0 if sign > 0 else 1)
    k = np.arange(len(i))
    out = np.zeros((len(i), d, d))
    out[k, i, j] += 1.0
    out[k, j, i] += sign
    return (out / np.linalg.norm(out, axis=(1, 2), keepdims=True)).reshape(len(i), -1)


def test_bilinear_projector_algebra(model2):
    m = model2
    d = m.dim
    sym_names = ("R", "L20E", "S2ES2H")
    form_names = ("S2E", "S2H", "L20ES2H")
    expected = {"R": 1, "L20E": 5, "S2ES2H": 30, "S2E": 10, "S2H": 3, "L20ES2H": 15}
    for names, sign in ((sym_names, 1.0), (form_names, -1.0)):
        bases = {nm: cs.bilinear_component_basis(m, nm) for nm in names}
        for nm in names:
            assert bases[nm].shape[0] == expected[nm]
        stacked = np.vstack([bases[nm] for nm in names])
        gram = stacked @ stacked.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9
        # completeness on the ambient symmetric/antisymmetric space
        amb = _orthonormal_units(d, sign)
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
    summed = sum(np.einsum("xa,yb,ab->xy", A, A, b) for A in m.omegas)
    assert top.frob(summed + b) < 1e-10 * top.frob(b)
    for w in m.omegas:
        assert abs(top.p_form_inner(b, w)) < 1e-10 * top.frob(b)
    # idempotence / mutual orthogonality on arbitrary bilinear input
    raw = cs.substream("bilin", 2).standard_normal((m.dim, m.dim))
    s = cs.proj_sym_S2ES2H(m, raw)
    assert top.frob(cs.proj_sym_S2ES2H(m, s) - s) < 1e-12 * top.frob(s)
    assert top.frob(cs.proj_sym_L20E(m, s)) < 1e-12 * top.frob(s)
    assert top.frob(top.asym2(s)) < 1e-12 * top.frob(s)


@pytest.mark.parametrize("d", [8, 12, 16])
def test_unit_forms_follow_the_pair_order(d):
    """The pairs of ``pair_scheme`` are the i < j in lexicographic order,
    and unit form p of ``form_basis`` is e_{first[p] second[p]} -
    e_{second[p] first[p]}: the projector bank's pair derivations read
    form_basis as pair coordinates, so neither order may move alone."""
    ps, forms = cs.pair_scheme(d), cs.form_basis(d)
    pairs = list(zip(ps.first.tolist(), ps.second.tolist()))
    assert pairs == list(itertools.combinations(range(d), 2))
    e = np.eye(d)
    expect = np.stack([np.outer(e[i], e[j]) - np.outer(e[j], e[i])
                       for i, j in pairs])
    assert np.array_equal(forms, expect)


def test_pair_coordinates_roundtrip(model2):
    ps = cs.pair_scheme(model2.dim)
    R = cs.random_curvature(model2, 3).tensor
    v = cs.to_pair_coords(ps, R)
    assert top.frob(cs.from_pair_coords(ps, v) - R) < 1e-12 * top.frob(R)
    assert float(v @ v) == pytest.approx(top.curvature_inner(R, R), rel=1e-12)


def test_pi1_operators_and_pair_coords_map_over_leading_axes(model):
    """A stack of three tensors gives, row by row, what each tensor gives
    alone, to 1e-15 relative: the three pi_1 operators on rank-4 tensors,
    and from_pair_coords on pair coordinates."""
    m, ps = model, cs.pair_scheme(model.dim)
    stack = np.array([cs.random_curvature(m, ("stack", k)).tensor for k in range(3)])
    maps = [(lambda R, op=op: op(m, R), stack)
            for op in (cs.pi1es_operator, cs.pi1s_operator, cs.pi1_operator)]
    maps.append((lambda v: cs.from_pair_coords(ps, v), cs.to_pair_coords(ps, stack)))
    for f, inputs in maps:
        out = f(inputs)
        assert out.shape == inputs.shape[:1] + (m.dim,) * 4
        for x, row in zip(inputs, out):
            alone = f(x)
            assert top.frob(row - alone) <= 1e-15 * top.frob(alone)


CONDITION_NAMES = ("antisym_12", "antisym_34", "pair_exchange", "bianchi")


def _breaking(name: str) -> np.ndarray:
    """A unit n = 2 tensor that breaks the named curvature condition and
    keeps every condition before it in the certification order: symmetric
    in (1, 2) and skew in (3, 4); skew in (1, 2) and symmetric in (3, 4);
    skew in both pairs and odd under pair exchange; a 4-form."""
    X = cs.substream("breaking", name).standard_normal((8,) * 4)
    if name == "antisym_12":
        Y = X + X.swapaxes(0, 1)
        Y = Y - Y.swapaxes(2, 3)
    elif name == "antisym_34":
        Y = X - X.swapaxes(0, 1)
        Y = Y + Y.swapaxes(2, 3)
    elif name == "pair_exchange":
        Y = X - X.swapaxes(0, 1)
        Y = Y - Y.swapaxes(2, 3)
        Y = Y - Y.transpose(2, 3, 0, 1)
    else:
        Y = top.alt(X)
    return Y / top.frob(Y)


def test_certification_order_is_one_list(model2):
    """certify and curvature_residuals read one ordered list of conditions."""
    assert tuple(name for name, _ in cs.CURVATURE_CONDITIONS) == CONDITION_NAMES
    R = cs.random_curvature(model2, 3).tensor
    assert tuple(cs.curvature_residuals(R)) == CONDITION_NAMES


@pytest.mark.parametrize("name", CONDITION_NAMES)
def test_certify_names_the_first_failed_condition(model2, name):
    """A curvature tensor plus a part that breaks one condition and keeps
    every earlier one: certify raises, naming that condition (and no other)
    with its residual, as curvature_residuals reports it."""
    R = cs.random_curvature(model2, 21).tensor
    T = R + 1e-3 * top.frob(R) * _breaking(name)
    resid = cs.curvature_residuals(T)
    k = CONDITION_NAMES.index(name)
    assert all(resid[earlier] <= 1e-15 for earlier in CONDITION_NAMES[:k])
    assert resid[name] > 1e-4
    with pytest.raises(cs.CertificationError) as info:
        cs.CurvatureTensor.certify(T)
    message = str(info.value)
    assert f"condition {name} failed" in message
    assert f"{resid[name]:.3e}" in message
    assert not any(other in message for other in CONDITION_NAMES if other != name)
    if name == "bianchi":
        # a 4-form has every pair symmetry and a nonzero Bianchi sum
        four = _breaking(name)
        assert max(list(cs.curvature_residuals(four).values())[:3]) <= 1e-15
        with pytest.raises(cs.CertificationError, match="bianchi"):
            cs.CurvatureTensor.certify(four)


def test_certify_accepts_exactly_within_tol(model2):
    """Seeded tensors perturbed around CERT_TOL, in directions that break
    each condition or all of them: certify accepts exactly when every value
    of curvature_residuals is <= CERT_TOL, and both outcomes occur."""
    R = cs.random_curvature(model2, 22).tensor
    rng = cs.substream("certify-around-tol", 0)
    directions = [_breaking(name) for name in CONDITION_NAMES]
    noise = rng.standard_normal((8,) * 4)
    directions.append(noise / top.frob(noise))
    outcomes = []
    for trial in range(60):
        E = directions[trial % len(directions)]
        T = R + cs.CERT_TOL * rng.uniform(0.1, 2.0) * top.frob(R) * E
        want = all(v <= cs.CERT_TOL for v in cs.curvature_residuals(T).values())
        try:
            cs.CurvatureTensor.certify(T)
            got = True
        except cs.CertificationError:
            got = False
        assert got == want, trial
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_certify_rejects_every_non_finite_input(model2):
    """A NaN or an infinity anywhere, even entered with every pair symmetry
    (its eight positions and signs), fails certification."""
    R = cs.random_curvature(model2, 23).tensor
    for value in (np.nan, np.inf, -np.inf):
        for where in ((0, 1, 2, 3), (7, 7, 7, 7), (3, 2, 1, 0)):
            T = R.copy()
            T[where] = value
            with pytest.raises(cs.CertificationError):
                cs.CurvatureTensor.certify(T)
        T = R.copy()
        a, b, c, d = 0, 1, 2, 3
        for (i, j, k, l), sign in (((a, b, c, d), 1), ((b, a, c, d), -1),
                                   ((a, b, d, c), -1), ((b, a, d, c), 1),
                                   ((c, d, a, b), 1), ((d, c, a, b), -1),
                                   ((c, d, b, a), -1), ((d, c, b, a), 1)):
            T[i, j, k, l] = sign * value
        with pytest.raises(cs.CertificationError):
            cs.CurvatureTensor.certify(T)
        assert not all(v <= cs.CERT_TOL for v in cs.curvature_residuals(T).values())
    with pytest.raises(cs.CertificationError):
        cs.CurvatureTensor.certify(np.full((8,) * 4, np.nan))
    assert isinstance(cs.CurvatureTensor.certify(np.zeros((8,) * 4)), cs.CurvatureTensor)
