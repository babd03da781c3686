"""Randomized contribution-table engine.

For every source (the gamma trace, a single component of nabla~xi, or a
symmetric product of torsion components) and every curvature / Ricci
target, the engine samples seeded single-component states, evaluates the
closed formulas, projects onto the target, and records whether the
coupling is nonzero.  Off-diagonal products are handled by polarization:
each quadratic target is evaluated at xi + zeta and the pure terms are
subtracted.  The seeded states of one source row are evaluated as one
batch, so memory grows with the seed count, not with the number of rows.

Tick rule: a cell is ticked when the witness exceeds ``TICK_ON`` times the
input scale on at least one seed, unticked when every seed stays below
``TICK_OFF`` times the scale, and flagged ambiguous otherwise (the gap
forces explicit escalation instead of silently resolving borderline
cells).

The expected tick patterns of Tables 1 and 3 are embedded below,
together with the direction annotations for the R_a + R_b column (the
contribution there is a fixed combination of a = pi2 + 6 pi1 and
b = pi2 - 6 pi1 per row).  Table 2's modules are the ones Ric and Ric^q
fix, so its expected ticks follow from Table 1's (TABLE2_FROM_TABLE1).
A few embedded cells deviate knowingly from the reference tables; each is
recorded in REFERENCE_DEVIATIONS with the reason that forces it.  The
table diff reports mismatches in the columns affected by derivation
choices (L20ES2H, V211S2H, L20ES4H) as "remark-consistent" rather than
failing, and couplings that vanish identically at the evaluated n while
being generically present (LOW_N_VANISHING) as "low_n_zero".  The
torsion-class corollaries are read off a table report: each is a set of
Table-3 columns that no row of a torsion family reaches.

Table 3 needs no solve.  Its columns are the coordinates, on each
Ricci-kernel component X, of the least-squares QKperp preimage of
v = pi_1(state) under img = Q M (Q the QKperp rows, M: C -> C P1 the
pi_1 map on pair coordinates): G^-1 img v with G = img img^T invertible.
G is an Sp(n)Sp(1) intertwiner, so by Schur's lemma it is a scalar c_X on
every component without an isomorphic partner; only S2ES2H_a/b and, at
n = 3, L20E_a/b are coupled, and none of them is a Table-3 column.  So the
coordinates are B_X M v / c_X (c_X is 1/2 on V22, 1 on V22S4H), read from
the bank's sign-class blocks of X; ``TableContext.build`` checks G = c_X
on X by a probe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import curvature_from_torsion as cft
from . import curvature_space as cs
from . import decomposition as dec
from . import tensor_ops as top
from . import torsion as tor
from .model_space import ModelSpace

TICK_ON = 1e-7
TICK_OFF = 1e-9
DEFAULT_SEEDS = 8

#: Cosine tolerance of the R_a + R_b direction checks.
DIRECTION_TOL = 1e-8

#: Columns whose ticks depend on which formulas are used (closing-remark
#: freedom): mismatches there are reported, not failed.
REMARK_COLUMNS = ("q_L20ES2H", "L20ES2H", "V211S2H", "L20ES4H")

COMPS = tor.TORSION_COMPONENTS

TABLE1_COLUMNS = ("q_R", "q_L20E", "q_S2ES2H", "q_L20ES2H",
                  "r_R", "r_L20E", "r_S2ES2H")
TABLE3_COLUMNS = ("V22", "L40E", "V31S2H", "V211S2H",
                  "V22S4H", "L20ES4H", "S4H")

OFFDIAG_PAIRS = tuple(itertools.combinations(COMPS, 2))

#: The Table-1 Ricci columns behind each Table-2 module: Ric and Ric^q fix
#: the modules of Table 2, so a row ticks a module iff it ticks one of them.
TABLE2_FROM_TABLE1 = {
    "R_a": ("q_R", "r_R"), "R_b": ("q_R", "r_R"),
    "L20E_a": ("q_L20E", "r_L20E"), "L20E_b": ("q_L20E", "r_L20E"),
    "S2ES2H_a": ("q_S2ES2H", "r_S2ES2H"), "S2ES2H_b": ("q_S2ES2H", "r_S2ES2H"),
    "L20ES2H": ("q_L20ES2H",),
}
TABLE2_COLUMNS = tuple(TABLE2_FROM_TABLE1)


def row_keys():
    """All rows in the layout order of the reference tables."""
    rows = [("gamma",)]
    rows += [("D", c) for c in COMPS]
    rows += [("xx", c, c) for c in COMPS]
    rows += [("xx", a, b) for a, b in OFFDIAG_PAIRS]
    return rows


def row_label(key) -> str:
    if key[0] == "gamma":
        return "sum<gamma_A,omega_A>"
    if key[0] == "D":
        return f"Dxi_{key[1]}"
    a, b = key[1], key[2]
    return f"xi_{a}*xi_{a}" if a == b else f"xi_{a}.xi_{b}"


# ---------------------------------------------------------------------------
# Expected tick patterns of Tables 1 and 3 (the reference tables, with the
# deviations recorded in REFERENCE_DEVIATIONS applied); Table 2's follow.

def _t1(q_r=0, q_l=0, q_s=0, q_ls=0, r_r=0, r_l=0, r_s=0):
    cols = (q_r, q_l, q_s, q_ls, r_r, r_l, r_s)
    return {c for c, v in zip(TABLE1_COLUMNS, cols) if v}

EXPECTED_TABLE1 = {
    ("gamma",): _t1(q_r=1, r_r=1),
    # the reference S2ES2H ticks of the two Lambda^3_0-derivative rows are
    # Schur-forbidden (E (x) Lambda^3_0 E contains no S^2 E for any n);
    # see REFERENCE_DEVIATIONS
    ("D", "33"): _t1(q_ls=1),
    ("D", "K3"): _t1(q_s=1, q_ls=1, r_s=1),
    ("D", "E3"): _t1(q_s=1, q_ls=1, r_s=1),
    ("D", "3H"): _t1(q_l=1, q_ls=1, r_l=1),
    ("D", "KH"): _t1(q_l=1, q_s=1, q_ls=1, r_l=1, r_s=1),
    ("D", "EH"): _t1(q_l=1, q_s=1, q_ls=1, r_r=1, r_l=1, r_s=1),
    ("xx", "33", "33"): _t1(q_r=1, q_l=1, q_s=1, r_r=1, r_l=1, r_s=1),
    ("xx", "K3", "K3"): _t1(q_r=1, q_l=1, q_s=1, r_r=1, r_l=1, r_s=1),
    ("xx", "E3", "E3"): _t1(q_r=1, q_l=1, q_s=1, r_r=1, r_l=1, r_s=1),
    ("xx", "3H", "3H"): _t1(q_r=1, q_l=1, q_s=1, r_r=1, r_l=1, r_s=1),
    ("xx", "KH", "KH"): _t1(q_r=1, q_l=1, q_s=1, r_r=1, r_l=1, r_s=1),
    ("xx", "EH", "EH"): _t1(q_r=1, q_l=1, q_s=1, r_r=1, r_l=1, r_s=1),
    ("xx", "33", "K3"): _t1(q_l=1, q_s=1, q_ls=1, r_l=1, r_s=1),
    ("xx", "33", "E3"): _t1(q_l=1, q_ls=1, r_l=1),
    ("xx", "33", "3H"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "33", "KH"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "33", "EH"): _t1(q_ls=1),
    ("xx", "K3", "E3"): _t1(q_l=1, q_s=1, q_ls=1, r_l=1, r_s=1),
    ("xx", "K3", "3H"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "K3", "KH"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "K3", "EH"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "E3", "3H"): _t1(q_ls=1),
    ("xx", "E3", "KH"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "E3", "EH"): _t1(q_s=1, q_ls=1, r_s=1),
    ("xx", "3H", "KH"): _t1(q_l=1, q_s=1, q_ls=1, r_l=1, r_s=1),
    ("xx", "3H", "EH"): _t1(q_l=1, q_ls=1, r_l=1),
    ("xx", "KH", "EH"): _t1(q_l=1, q_s=1, q_ls=1, r_l=1, r_s=1),
}


def _t3(*names):
    return set(names)

EXPECTED_TABLE3 = {
    ("D", "33"): _t3("V211S2H", "L20ES4H"),
    ("D", "K3"): _t3("V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("D", "E3"): _t3("L20ES4H", "S4H"),
    ("D", "3H"): _t3("L40E", "V211S2H"),
    ("D", "KH"): _t3("V22", "V31S2H", "V211S2H"),
    ("D", "EH"): _t3(),
    ("xx", "33", "33"): _t3("V22", "L40E", "V211S2H", "V22S4H", "L20ES4H", "S4H"),
    ("xx", "K3", "K3"): _t3("V22", "L40E", "V31S2H", "V22S4H", "L20ES4H", "S4H"),
    ("xx", "E3", "E3"): _t3("L20ES4H", "S4H"),
    ("xx", "3H", "3H"): _t3("V22", "L40E", "V211S2H"),
    ("xx", "KH", "KH"): _t3("V22", "L40E", "V31S2H"),
    ("xx", "EH", "EH"): _t3(),
    ("xx", "33", "K3"): _t3("V22", "L40E", "V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("xx", "33", "E3"): _t3("L40E", "V211S2H", "L20ES4H"),
    ("xx", "33", "3H"): _t3("V211S2H", "V22S4H", "L20ES4H", "S4H"),
    ("xx", "33", "KH"): _t3("V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("xx", "33", "EH"): _t3("V211S2H", "L20ES4H"),
    ("xx", "K3", "E3"): _t3("V22", "V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("xx", "K3", "3H"): _t3("V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("xx", "K3", "KH"): _t3("V31S2H", "V211S2H", "V22S4H", "L20ES4H", "S4H"),
    ("xx", "K3", "EH"): _t3("V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("xx", "E3", "3H"): _t3("V211S2H", "L20ES4H"),
    ("xx", "E3", "KH"): _t3("V31S2H", "V211S2H", "V22S4H", "L20ES4H"),
    ("xx", "E3", "EH"): _t3("L20ES4H", "S4H"),
    ("xx", "3H", "KH"): _t3("V22", "L40E", "V31S2H", "V211S2H"),
    ("xx", "3H", "EH"): _t3("L40E", "V211S2H"),
    ("xx", "KH", "EH"): _t3("V22", "V31S2H", "V211S2H"),
}

#: Cells where the embedded expectation deviates from the reference
#: tables because those contradict each other or the formulas they
#: tabulate; resolved by direct measurement.  (row label, table, column)
#: -> explanation.
_SCHUR_33 = ("reference tick is Schur-forbidden: the curvature S2ES2H modules "
             "need S^2E content, and E (x) Lambda^3_0 E = Lambda^4_0 E + "
             "V211 + Lambda^2_0 E contains no S^2 E for any n; embedded as "
             "unticked (measured zero at n = 2, 3)")

REFERENCE_DEVIATIONS = {
    ("xi_K3.xi_E3", 2, "L20E_a"):
        "the reference curvature table leaves the (L20E)_x cell empty, but "
        "the reference Ricci table ticks both L20E columns for this row and "
        "the evaluated formulas are nonzero; embedded as ticked",
    ("xi_K3.xi_E3", 2, "L20E_b"):
        "same as the (L20E)_a cell of this row",
    ("Dxi_33", 1, "q_S2ES2H"): _SCHUR_33,
    ("Dxi_33", 1, "r_S2ES2H"): _SCHUR_33,
    ("Dxi_33", 2, "S2ES2H_a"): _SCHUR_33,
    ("Dxi_33", 2, "S2ES2H_b"): _SCHUR_33,
    ("Dxi_3H", 1, "q_S2ES2H"): _SCHUR_33,
    ("Dxi_3H", 1, "r_S2ES2H"): _SCHUR_33,
    ("Dxi_3H", 2, "S2ES2H_a"): _SCHUR_33,
    ("Dxi_3H", 2, "S2ES2H_b"): _SCHUR_33,
}

#: Cells of Tables 1 and 3 whose generic coupling vanishes identically at
#: one low n (verified nonzero at a higher n); reported as 'low_n_zero',
#: never as mismatch.  A Table-2 cell is one when every expected Table-1
#: column behind it is.  The zero-rank-column skips of the audit do not
#: cover these: the target modules are nonzero, the specific quadratic
#: couplings degenerate.
LOW_N_VANISHING = {
    2: {
        ("xi_K3*xi_K3", "q_L20E"), ("xi_K3*xi_K3", "r_L20E"),
        ("xi_K3*xi_K3", "V31S2H"), ("xi_K3*xi_K3", "r_S2ES2H"),
        ("xi_E3*xi_E3", "r_S2ES2H"),
        ("xi_KH*xi_KH", "q_L20E"), ("xi_KH*xi_KH", "r_L20E"),
        ("xi_K3.xi_E3", "V31S2H"), ("xi_K3.xi_E3", "r_S2ES2H"),
    },
    3: {
        ("xi_33*xi_33", "q_L20E"), ("xi_33*xi_33", "r_L20E"),
        ("xi_3H*xi_3H", "q_L20E"), ("xi_3H*xi_3H", "r_L20E"),
        ("xi_E3*xi_E3", "S4H"),
        ("xi_K3.xi_E3", "V22S4H"),
    },
}


def _expected_ticks(key, table: int) -> set:
    """The columns the embedded expectations tick on one row of one table;
    Table 2's are the modules behind the row's Table-1 ticks."""
    if table == 2:
        t1 = EXPECTED_TABLE1[key]
        return {col for col, behind in TABLE2_FROM_TABLE1.items() if t1.intersection(behind)}
    return (EXPECTED_TABLE1 if table == 1 else EXPECTED_TABLE3)[key]


def _low_n_zero(n: int, key, table: int, col: str) -> bool:
    """Whether the expected cell is a LOW_N_VANISHING one at n; a Table-2
    cell is when every expected Table-1 column behind it is."""
    behind = ([c for c in TABLE2_FROM_TABLE1[col] if c in EXPECTED_TABLE1[key]]
              if table == 2 else [col])
    return all((row_label(key), c) in LOW_N_VANISHING.get(n, ()) for c in behind)


# Direction annotations for the R_a + R_b column of Table 2: each entry is
# (direction, orthogonal witness, source) with coefficient pairs (alpha,
# beta) meaning alpha*a + beta*b.  Four rows carry the reference
# annotations (which the free evaluation reproduces exactly); for the
# other four the reference annotations hold only modulo the on-shell
# trades discussed in the curvature_from_torsion module docstring, and
# the embedded directions are the ones the Ricci formulas actually
# produce (closed forms fitted exactly at n = 2, 3, 4).  A derived row
# has no orthogonal witness here: run_tables takes the metric-orthogonal
# complement within span{a, b} from the context's <a, a> and <b, b>.
def direction_annotations(n: int) -> dict:
    k1, k2 = n - 1.0, 2.0 * n + 1.0
    f = n * n + 3.0 * n + 1.0
    g = n * n + 1.0
    eh_a = -2.0 * (n - 1.0) * (10.0 * n ** 3 + 17.0 * n * n - 2.0 * n - 1.0)
    eh_b = (2.0 * n + 1.0) * (10.0 * n ** 3 - 13.0 * n * n - 8.0 * n - 1.0)
    return {
        ("gamma",): ((2.0, 1.0), (k1, -k2), "reference"),
        ("D", "EH"): ((2.0 * k1, -k2), (1.0, 1.0), "reference"),
        ("xx", "33", "33"): ((5.0 * k1, -k2), (2.0, 5.0), "reference"),
        ("xx", "E3", "E3"): ((2.0 * k1 * f, -k2 * g), (g, f), "reference"),
        ("xx", "K3", "K3"): ((2.0 * k1, 5.0 * k2), None, "derived"),
        ("xx", "3H", "3H"): ((-4.0 * k1, -k2), None, "derived"),
        ("xx", "KH", "KH"): ((-4.0 * k1, -k2), None, "derived"),
        ("xx", "EH", "EH"): ((eh_a, eh_b), None, "derived"),
    }


# ---------------------------------------------------------------------------
# Column evaluation.

@dataclass
class TableContext:
    """Precomputed machinery shared by all cells.

    ``P1`` gives pi_1 on pair coordinates as C -> C P1, and ``columns[X]``
    is (the bank's (coords, rows) blocks of X, c_X), with G = c_X on X
    (module docstring).  ``build`` takes c_X as the Rayleigh quotient of G
    at a seeded y in X and checks G y = c_X y."""

    m: ModelSpace
    bank: dec.ProjectorBank
    tbank: tor.TorsionBank
    P1: np.ndarray
    columns: dict
    ab_norm2: np.ndarray          # <a, a> and <b, b> for a, b = pi2 +- 6 pi1

    @classmethod
    def build(cls, bank: dec.ProjectorBank, tbank: tor.TorsionBank):
        m = bank.model
        ps = bank.scheme
        # pi_1 acts on the second 2-form slot only, so in pair coordinates it
        # is C -> C P1: 4 pi_1es = 3 - sum_A A_(3) A_(4) is -(1/2) sum_A D_A^2
        # (D_A skew), and pi_1s is (1/2n) sum_A w_A w_A^T, w_A = omega_A's
        # coordinates; the tests compare P1 with probes of pi1_operator
        D, w = cs._pair_derivations(ps, m.triple), m.omegas[:, ps.first, ps.second]
        P1 = np.tensordot(D, D, axes=([0, 1], [0, 1])) / 8.0 - (w.T @ w) / (2.0 * m.n)
        columns = {}
        for name in TABLE3_COLUMNS:
            c, blocks = 1.0, bank.blocks(name)        # no blocks at rank 0
            if blocks:
                y = bank.project_coords(cs.substream("schur", name).standard_normal(ps.m ** 2),
                                        name)
                YP1 = y.reshape(ps.m, ps.m) @ P1      # G y = QKperp part of Y P1 P1^T
                c = float(np.vdot(YP1, YP1) / np.vdot(y, y))
                off = float(np.linalg.norm(
                    bank.project_coords((YP1 @ P1.T).ravel(), "QKperp") - c * y))
                if not (c > 0 and off <= cs.EIG_TOL * c * np.linalg.norm(y)):
                    raise ArithmeticError(f"Table 3: the QKperp image of pi_1 is not "
                                          f"scalar on {name} (c = {c}, residual {off})")
            columns[name] = (blocks, c)
        ab_norm2 = np.array([top.curvature_inner(x, x)
                             for x in (m.pi2 + 6 * m.pi1, m.pi2 - 6 * m.pi1)])
        return cls(m=m, bank=bank, tbank=tbank, P1=P1, columns=columns, ab_norm2=ab_norm2)

    def pi1_columns(self, pi1: np.ndarray, names=TABLE3_COLUMNS) -> dict:
        """Table-3 coordinates on each named column of pi_1 of a state, or of
        a batch (leading axes lead every column): B_X (V P1^T) / c_X, V the
        pair matrix of pi_1, read block by block from the bank's rows."""
        ps = self.bank.scheme
        V = cs.to_pair_coords(ps, pi1)
        U = (V.reshape(V.shape[:-1] + (ps.m, ps.m)) @ self.P1.T).reshape(V.shape)
        out = {}
        for name in names:
            blocks, c = self.columns[name]
            out[name] = np.concatenate([np.zeros(V.shape[:-1] + (0,))]
                                       + [U[..., coords] @ B.T / c for coords, B in blocks], -1)
        return out


#: The ``ricci_component_formulas`` entry behind each Ricci column.
_FORMULA_OF_COLUMN = {
    "q_R": "pi_R_ricq", "q_L20E": "pi_L20E_ricq",
    "q_S2ES2H": "pi_S2ES2H_ricq", "q_L20ES2H": "pi_L20ES2H_ricq",
    "r_R": "pi_R_ric", "r_L20E": "pi_L20E_ric", "r_S2ES2H": "pi_S2ES2H_ric",
    "R_ab": "R_ab", "L20E_a": "ric_L20E_a", "L20E_b": "ric_L20E_b",
    "S2ES2H_a": "ric_S2ES2H_a", "S2ES2H_b": "ric_S2ES2H_b",
    "L20ES2H": "pi_L20ES2H_ricq",
}


def evaluate_columns(ctx: TableContext, state: cft.TorsionState) -> dict:
    """All column values for one state, or for a batch of states (their
    leading axes lead every column): Ricci components (tables 1-2) and the
    QKperp projections of pi_2 pi_1 (table 3)."""
    formulas = cft.ricci_component_formulas(ctx.m, state)
    return ({col: formulas[key] for col, key in _FORMULA_OF_COLUMN.items()}
            | ctx.pi1_columns(cft.pi1_state(ctx.m, state)))


def evaluate_row(ctx: TableContext, key, seeds: int, pure: dict) -> dict:
    """Column values for one source row from one batch of states, one
    leading entry per seed (one in all for the gamma row); polarized for
    the off-diagonal products.  ``pure`` caches, per component c, the
    columns of its seeded pure states, which the diagonal row and every
    off-diagonal row containing c share; rows fill it as they need it."""
    m, tbank = ctx.m, ctx.tbank

    def batch(one, count=seeds):
        return evaluate_columns(ctx, cft.TorsionState.stack([one(s) for s in range(count)]))

    def pure_of(c):
        if c not in pure:
            pure[c] = batch(lambda s: cft.TorsionState.make(m, t=tbank.random_component(c, s)))
        return pure[c]

    if key[0] == "gamma":
        return batch(lambda s: cft.TorsionState.qk_point(m, 1.0), 1)
    if key[0] == "D":
        return batch(lambda s: cft.TorsionState.make(
            m, D=tor.random_derivative_component(tbank, key[1], s)))
    _, c1, c2 = key
    if c1 == c2:
        return pure_of(c1)
    mixed = batch(lambda s: cft.TorsionState.make(
        m, t=tbank.random_component(c1, s) + tbank.random_component(c2, s)))
    return {k: mixed[k] - pure_of(c1)[k] - pure_of(c2)[k] for k in mixed}


def _witnesses(ctx: TableContext, cols: dict) -> dict:
    """Witness per table cell and seed from the raw column values."""
    w = {}
    for name in ("q_R", "r_R"):
        w[name] = np.abs(cols[name]) * np.sqrt(ctx.m.dim)
    for name in ("q_L20E", "q_S2ES2H", "q_L20ES2H", "r_L20E", "r_S2ES2H",
                 "L20E_a", "L20E_b", "S2ES2H_a", "S2ES2H_b", "L20ES2H"):
        w[name] = np.sqrt((cols[name] ** 2).sum(axis=(-2, -1)))
    w["R_a"], w["R_b"] = np.moveaxis(np.abs(cols["R_ab"]) * np.sqrt(ctx.ab_norm2), -1, 0)
    for name in TABLE3_COLUMNS:
        w[name] = np.linalg.norm(cols[name], axis=-1)
    return w


# ---------------------------------------------------------------------------
# Report structures.

@dataclass
class ContributionCell:
    source: str
    table: int
    target: str
    tick: bool
    witness: float
    seeds_used: int
    expected: bool | None = None
    status: str = "ok"           # ok | mismatch | remark | ambiguous | skipped


@dataclass
class TablesReport:
    n: int
    seeds: int
    cells: list = field(default_factory=list)
    direction_checks: list = field(default_factory=list)
    skipped_columns: tuple = ()

    @property
    def mismatches(self):
        return [c for c in self.cells if c.status == "mismatch"]

    @property
    def remark_cells(self):
        return [c for c in self.cells if c.status == "remark"]

    @property
    def ambiguous(self):
        return [c for c in self.cells if c.status == "ambiguous"]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.ambiguous


def run_tables(bank: dec.ProjectorBank, tbank: tor.TorsionBank,
               seeds: int = DEFAULT_SEEDS) -> TablesReport:
    """Evaluate every cell of the three tables and diff against the embedded
    expectations; verify the R_x direction annotations of Table 2.  A cell
    needs at least one seed: ``seeds < 1`` raises ValueError."""
    if seeds < 1:
        raise ValueError(f"run_tables needs at least one seed, got {seeds}")
    ctx = TableContext.build(bank, tbank)
    n = ctx.m.n
    skipped = {name for name in TABLE2_COLUMNS + TABLE3_COLUMNS if bank.rank(name) == 0}
    report = TablesReport(n=n, seeds=seeds, skipped_columns=tuple(sorted(skipped)))
    annotations = direction_annotations(n)

    table_specs = ((1, TABLE1_COLUMNS), (2, TABLE2_COLUMNS), (3, TABLE3_COLUMNS))

    pure = {}
    for key in row_keys():
        zero_source = (key[0] in ("D", "xx")
                       and any(tbank.rank(c) == 0 for c in key[1:]))
        if not zero_source:
            cols = evaluate_row(ctx, key, seeds, pure)
            wit = _witnesses(ctx, cols)
        for table, columns in table_specs:
            if table == 3 and key not in EXPECTED_TABLE3:
                continue
            expected = _expected_ticks(key, table)
            for col in columns:
                if zero_source or col in skipped:
                    report.cells.append(ContributionCell(
                        source=row_label(key), table=table, target=col,
                        tick=False, witness=0.0, seeds_used=0,
                        expected=col in expected, status="skipped"))
                    continue
                ws = wit[col]
                wmax = float(ws.max())
                if wmax > TICK_ON:
                    tick, status = True, "ok"
                elif wmax < TICK_OFF:
                    tick, status = False, "ok"
                else:
                    tick, status = False, "ambiguous"
                exp = col in expected
                if status != "ambiguous" and tick != exp:
                    if not tick and exp and _low_n_zero(n, key, table, col):
                        status = "low_n_zero"
                    elif col in REMARK_COLUMNS:
                        status = "remark"
                    else:
                        status = "mismatch"
                report.cells.append(ContributionCell(
                    source=row_label(key), table=table, target=col,
                    tick=tick, witness=wmax, seeds_used=len(ws),
                    expected=exp, status=status))
        # direction annotations
        if key in annotations and not zero_source:
            direction, orth, provenance = annotations[key]
            if orth is None:
                orth = (direction[1] * ctx.ab_norm2[1], -direction[0] * ctx.ab_norm2[0])
            met = np.diag(ctx.ab_norm2)
            pp, qq = np.array(direction, dtype=float), np.array(orth, dtype=float)
            pn, qn = float(np.sqrt(pp @ met @ pp)), float(np.sqrt(qq @ met @ qq))
            for s, tt in enumerate(cols["R_ab"]):
                tn = float(np.sqrt(tt @ met @ tt))
                cosd = float(tt @ met @ pp) / (tn * pn)
                cosq = float(tt @ met @ qq) / (tn * qn)
                # a quadratic source fixes the sign of its direction
                along = cosd if key[0] == "xx" else abs(cosd)
                report.direction_checks.append({
                    "source": row_label(key), "seed": s, "annotation": provenance,
                    "cos_direction": cosd, "cos_orthogonal": cosq,
                    "aligned": bool(along > 1.0 - DIRECTION_TOL and abs(cosq) < DIRECTION_TOL)})
    return report


# ---------------------------------------------------------------------------
# Torsion-class corollaries: with xi restricted to a family of components
# (and nabla~xi in the same second-factor family), certain curvature
# components receive no contribution at all.  Each forbidden set is the
# Table-3 columns that EXPECTED_TABLE3 leaves empty on every row of the
# family.

COROLLARY_CASES = (
    ("quaternionic (H classes only)", ("3H", "KH", "EH"),
     ("V22S4H", "L20ES4H", "S4H")),
    ("E-type torsion", ("E3", "EH"),
     ("V22", "L40E", "V31S2H", "V211S2H", "V22S4H")),
    ("Lambda^3_0-type torsion", ("33", "3H"),
     ("V31S2H",)),
)


def corollary_vanishing(report: TablesReport) -> list:
    """Max Table-3 witness of every forbidden component over the report's
    rows whose components all lie in each case's family; all should sit at
    roundoff level.  The columns are linear in nabla~xi and quadratic in
    xi, so they vanish on the family iff they vanish on its derivative,
    pure and polarized rows."""
    results = []
    for label, comps, forbidden in COROLLARY_CASES:
        rows = {row_label(key) for key in row_keys()
                if key[0] != "gamma" and set(key[1:]) <= set(comps)}
        worst = max(c.witness for c in report.cells
                    if c.table == 3 and c.target in forbidden and c.source in rows)
        results.append({"case": label, "forbidden": forbidden, "max_witness": worst})
    return results
