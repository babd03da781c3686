"""Randomized contribution-table engine.

For every source (the gamma trace, a single component of nabla~xi, or a
symmetric product of torsion components) and every curvature / Ricci
target, the engine samples seeded single-component states, evaluates the
closed formulas, projects onto the target, and records whether the
coupling is nonzero.  Off-diagonal products are handled by polarization:
each quadratic target is evaluated at xi + zeta and the pure terms, the
states of the two diagonal rows, are subtracted.  The states of all rows
are made and evaluated a bounded stack at a time, so one stack of states
is alive whatever the seed count, and the fixed cost of an evaluation is
paid once per stack, not once per row.  The states linear in the state
(gamma and nabla~xi) are stacked apart from the xi (x) xi states, so no
stack carries, or evaluates the terms of, a piece only the other kind
has.

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
v = pi_1(state) under img = Q M (Q the QKperp rows, M the map
``curvature_space.pi1_operator`` in pair coordinates): G^-1 img v with
G = img img^T invertible.  G is an Sp(n)Sp(1) intertwiner, so by Schur's
lemma it is a scalar c_X on every component without an isomorphic
partner; only S2ES2H_a/b and, at n = 3, L20E_a/b are coupled, and none of
them is a Table-3 column.  So the coordinates are B_X M^T v / c_X (c_X is
1/2 on V22, 1 on V22S4H), read from the bank's sign-class blocks of X;
``TableContext.build`` checks G = c_X on X by a probe, one application of
``pi1_operator``.  M is a symmetric projection and v, a value of pi_1,
already lies in its image (the tests check it), so M^T v = v and the
coordinates are B_X v / c_X.
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

EXPECTED_TABLE1 = {
    ("gamma",): {"q_R", "r_R"},
    # the reference S2ES2H ticks of the two Lambda^3_0-derivative rows are
    # Schur-forbidden (E (x) Lambda^3_0 E contains no S^2 E for any n);
    # see REFERENCE_DEVIATIONS
    ("D", "33"): {"q_L20ES2H"},
    ("D", "K3"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("D", "E3"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("D", "3H"): {"q_L20E", "q_L20ES2H", "r_L20E"},
    ("D", "KH"): {"q_L20E", "q_S2ES2H", "q_L20ES2H", "r_L20E", "r_S2ES2H"},
    ("D", "EH"): {"q_L20E", "q_S2ES2H", "q_L20ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "33", "33"): {"q_R", "q_L20E", "q_S2ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "K3", "K3"): {"q_R", "q_L20E", "q_S2ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "E3", "E3"): {"q_R", "q_L20E", "q_S2ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "3H", "3H"): {"q_R", "q_L20E", "q_S2ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "KH", "KH"): {"q_R", "q_L20E", "q_S2ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "EH", "EH"): {"q_R", "q_L20E", "q_S2ES2H", "r_R", "r_L20E", "r_S2ES2H"},
    ("xx", "33", "K3"): {"q_L20E", "q_S2ES2H", "q_L20ES2H", "r_L20E", "r_S2ES2H"},
    ("xx", "33", "E3"): {"q_L20E", "q_L20ES2H", "r_L20E"},
    ("xx", "33", "3H"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "33", "KH"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "33", "EH"): {"q_L20ES2H"},
    ("xx", "K3", "E3"): {"q_L20E", "q_S2ES2H", "q_L20ES2H", "r_L20E", "r_S2ES2H"},
    ("xx", "K3", "3H"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "K3", "KH"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "K3", "EH"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "E3", "3H"): {"q_L20ES2H"},
    ("xx", "E3", "KH"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "E3", "EH"): {"q_S2ES2H", "q_L20ES2H", "r_S2ES2H"},
    ("xx", "3H", "KH"): {"q_L20E", "q_S2ES2H", "q_L20ES2H", "r_L20E", "r_S2ES2H"},
    ("xx", "3H", "EH"): {"q_L20E", "q_L20ES2H", "r_L20E"},
    ("xx", "KH", "EH"): {"q_L20E", "q_S2ES2H", "q_L20ES2H", "r_L20E", "r_S2ES2H"},
}

EXPECTED_TABLE3 = {
    ("D", "33"): {"V211S2H", "L20ES4H"},
    ("D", "K3"): {"V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("D", "E3"): {"L20ES4H", "S4H"},
    ("D", "3H"): {"L40E", "V211S2H"},
    ("D", "KH"): {"V22", "V31S2H", "V211S2H"},
    ("D", "EH"): set(),
    ("xx", "33", "33"): {"V22", "L40E", "V211S2H", "V22S4H", "L20ES4H", "S4H"},
    ("xx", "K3", "K3"): {"V22", "L40E", "V31S2H", "V22S4H", "L20ES4H", "S4H"},
    ("xx", "E3", "E3"): {"L20ES4H", "S4H"},
    ("xx", "3H", "3H"): {"V22", "L40E", "V211S2H"},
    ("xx", "KH", "KH"): {"V22", "L40E", "V31S2H"},
    ("xx", "EH", "EH"): set(),
    ("xx", "33", "K3"): {"V22", "L40E", "V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("xx", "33", "E3"): {"L40E", "V211S2H", "L20ES4H"},
    ("xx", "33", "3H"): {"V211S2H", "V22S4H", "L20ES4H", "S4H"},
    ("xx", "33", "KH"): {"V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("xx", "33", "EH"): {"V211S2H", "L20ES4H"},
    ("xx", "K3", "E3"): {"V22", "V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("xx", "K3", "3H"): {"V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("xx", "K3", "KH"): {"V31S2H", "V211S2H", "V22S4H", "L20ES4H", "S4H"},
    ("xx", "K3", "EH"): {"V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("xx", "E3", "3H"): {"V211S2H", "L20ES4H"},
    ("xx", "E3", "KH"): {"V31S2H", "V211S2H", "V22S4H", "L20ES4H"},
    ("xx", "E3", "EH"): {"L20ES4H", "S4H"},
    ("xx", "3H", "KH"): {"V22", "L40E", "V31S2H", "V211S2H"},
    ("xx", "3H", "EH"): {"L40E", "V211S2H"},
    ("xx", "KH", "EH"): {"V22", "V31S2H", "V211S2H"},
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
# (direction, provenance), the direction a coefficient pair (alpha, beta)
# meaning alpha*a + beta*b.  The four "reference" rows carry the reference
# annotations, which the evaluated formulas reproduce.  The four "derived"
# rows carry the directions the Ricci formulas produce, closed forms fitted
# at n = 2, 3 and 4; criterion 10 checks them at n = 2 and 3.  Every row is
# checked against one orthogonality rule: run_tables takes the metric
# complement of the direction within span{a, b}, from the context's <a, a>
# and <b, b>.
def direction_annotations(n: int) -> dict:
    k1, k2 = n - 1.0, 2.0 * n + 1.0
    f = n * n + 3.0 * n + 1.0
    g = n * n + 1.0
    eh_a = -2.0 * (n - 1.0) * (10.0 * n ** 3 + 17.0 * n * n - 2.0 * n - 1.0)
    eh_b = (2.0 * n + 1.0) * (10.0 * n ** 3 - 13.0 * n * n - 8.0 * n - 1.0)
    return {
        ("gamma",): ((2.0, 1.0), "reference"),
        ("D", "EH"): ((2.0 * k1, -k2), "reference"),
        ("xx", "33", "33"): ((5.0 * k1, -k2), "reference"),
        ("xx", "E3", "E3"): ((2.0 * k1 * f, -k2 * g), "reference"),
        ("xx", "K3", "K3"): ((2.0 * k1, 5.0 * k2), "derived"),
        ("xx", "3H", "3H"): ((-4.0 * k1, -k2), "derived"),
        ("xx", "KH", "KH"): ((-4.0 * k1, -k2), "derived"),
        ("xx", "EH", "EH"): ((eh_a, eh_b), "derived"),
    }


# ---------------------------------------------------------------------------
# Column evaluation.

@dataclass
class TableContext:
    """Precomputed machinery shared by all cells.

    ``build`` takes c_X, with G = c_X on each Table-3 column X (module
    docstring), as the Rayleigh quotient of G at a seeded y in X and
    checks G y = c_X y; it applies ``cs.pi1_operator`` to the probes, and
    no matrix of pi_1 is formed.  ``readout`` holds, per sign class of the
    bank, the class's coordinates and the rows of every Table-3 column in
    that class, each divided by its c_X; ``positions[X]`` says where X's
    coordinates sit among the products of the classes, in class order."""

    m: ModelSpace
    bank: dec.ProjectorBank
    tbank: tor.TorsionBank
    readout: list
    positions: dict
    ab_norm2: np.ndarray          # <a, a> and <b, b> for a, b = pi2 +- 6 pi1

    @classmethod
    def build(cls, bank: dec.ProjectorBank, tbank: tor.TorsionBank):
        m = bank.model
        ps = bank.scheme
        # one probe y per nonzero column, all mapped and projected onto QKperp
        # at once: G y = QKperp part of M M^T y, and M M^T = M (a symmetric
        # projection)
        live = [name for name in TABLE3_COLUMNS if bank.rank(name)]
        ys = np.array([bank.project_coords(cs.substream("schur", name).standard_normal(ps.m ** 2),
                                           name) for name in live])
        images = cs.to_pair_coords(ps, cs.pi1_operator(m, cs.from_pair_coords(ps, ys)))
        quotients = np.sum(images * images, axis=-1) / np.sum(ys * ys, axis=-1)
        offs = np.linalg.norm(bank.project_coords(images, "QKperp") - quotients[:, None] * ys, axis=-1)
        scale = dict.fromkeys(TABLE3_COLUMNS, 1.0)
        for name, y, c, off in zip(live, ys, quotients.tolist(), offs.tolist()):
            if not (c > 0 and off <= cs.EIG_TOL * c * np.linalg.norm(y)):
                raise ArithmeticError(f"Table 3: the QKperp image of pi_1 is not "
                                      f"scalar on {name} (c = {c}, residual {off})")
            scale[name] = c
        readout, positions, width = [], {name: [] for name in TABLE3_COLUMNS}, 0
        for coords, rows, slices in zip(bank.classes, bank.rows, bank.slices):
            picked = [rows[slices[name]] / scale[name] for name in TABLE3_COLUMNS]
            for name, B in zip(TABLE3_COLUMNS, picked):
                positions[name] += range(width, width + len(B))
                width += len(B)
            readout.append((coords, np.concatenate(picked)))
        positions = {name: np.array(at, dtype=int) for name, at in positions.items()}
        ab_norm2 = np.array([top.curvature_inner(x, x)
                             for x in (m.pi2 + 6 * m.pi1, m.pi2 - 6 * m.pi1)])
        return cls(m=m, bank=bank, tbank=tbank, readout=readout, positions=positions,
                   ab_norm2=ab_norm2)

    def pi1_columns(self, state: cft.TorsionState) -> dict:
        """Table-3 coordinates on each column of pi_1 of a state, or of a
        batch (leading axes lead every column): B_X v / c_X, v the pair
        coordinates of pi_1 (scaled as ``cs.to_pair_coords``), evaluated
        at those coordinates alone.  Each sign class of v is read once,
        by one product with the rows of every column there."""
        k = self.bank.scheme.flat_index
        pi1 = cft.pi1_state(self.m, state, at=k)
        v = 2.0 * pi1.reshape(pi1.shape[:-2] + (-1,))
        w = np.concatenate([v[..., coords] @ rows.T for coords, rows in self.readout], -1)
        return {name: w[..., at] for name, at in self.positions.items()}


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
    QKperp projections of pi_2 pi_1 (table 3).  Much of a call's cost is
    fixed: at n = 2 (one BLAS thread on a Xeon core) one xi (x) xi state
    takes about 0.6 ms and 40 take about 3.9 ms, one nabla~xi state about
    0.15 ms and 40 about 1.5 ms, so ``run_tables`` evaluates its states in
    stacks of ``_STACK``."""
    formulas = cft.ricci_component_formulas(ctx.m, state)
    return ({col: formulas[key] for col, key in _FORMULA_OF_COLUMN.items()}
            | ctx.pi1_columns(state))


#: Most states per ``evaluate_columns`` call of ``run_tables``: at n = 2
#: (seeds 8) the tables take three calls, one of the 33 gamma and nabla~xi
#: states and two of 40 xi (x) xi states.  A stack of 40 peaks at 2.4 MB
#: (nabla~xi) and 4.1 MB (xi) of traced memory at n = 2, 14.0 and 16.7 MB
#: at n = 3, below the 6.5 and 32.3 MB of the 32 full states stacked before.
_STACK = 40


def _seeded_states(ctx: TableContext, keys, seeds: int, pure: dict):
    """The seeded states of the rows ``keys``, row after row, one per seed
    (one in all for the gamma row), each made when it is read.  A diagonal
    row's states are the pure states ``pure[c, s]``; an off-diagonal row's
    are the sums of two of them."""
    m, tbank = ctx.m, ctx.tbank
    for key in keys:
        if key[0] == "gamma":
            yield cft.TorsionState.qk_point(m, 1.0)
            continue
        for s in range(seeds):
            if key[0] == "D":
                yield cft.TorsionState.make(
                    m, D=tbank.random_component(key[1], s, derivative=True))
            elif key[1] == key[2]:
                yield cft.TorsionState.make(m, t=pure[key[1], s])
            else:
                yield cft.TorsionState.make(m, t=pure[key[1], s] + pure[key[2], s])


def _row_columns(ctx: TableContext, keys, seeds: int) -> dict:
    """Column values of each source row in ``keys``, one leading entry per
    seed (one in all for the gamma row); polarized for the off-diagonal
    products, which subtract the columns of the diagonal rows of their
    two components (``keys`` holds those rows).  Each component's pure
    states are drawn once.  The states of the rows linear in the state
    (gamma and nabla~xi) and those of the xi (x) xi rows are evaluated
    apart, each in stacks of at most ``_STACK``, so no stack carries a
    piece that only the other kind needs.  Each stack is made just before
    it is evaluated; only the columns are kept."""
    comps = {c for key in keys if key[0] == "xx" for c in key[1:]}
    pure = {(c, s): ctx.tbank.random_component(c, s) for c in comps for s in range(seeds)}
    rows = {}
    for group in ([key for key in keys if key[0] != "xx"], [key for key in keys if key[0] == "xx"]):
        states = _seeded_states(ctx, group, seeds, pure)
        parts = []
        while stack := list(itertools.islice(states, _STACK)):
            stack = cft.TorsionState.stack(stack)        # frees the single states
            parts.append(evaluate_columns(ctx, stack))
        flat = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
        at = 0
        for key in group:
            count = 1 if key[0] == "gamma" else seeds
            rows[key] = {k: v[at:at + count] for k, v in flat.items()}
            at += count
    for key in keys:
        if key[0] == "xx" and key[1] != key[2]:
            mixed, p1, p2 = rows[key], rows["xx", key[1], key[1]], rows["xx", key[2], key[2]]
            rows[key] = {k: mixed[k] - p1[k] - p2[k] for k in mixed}
    return rows


#: The Ricci columns whose values are bilinear forms: all but the scalars
#: q_R and r_R and the R_a + R_b coefficients R_ab.
_FORM_COLUMNS = tuple(col for col in _FORMULA_OF_COLUMN if col not in ("q_R", "r_R", "R_ab"))


def _witnesses(ctx: TableContext, cols: dict) -> dict:
    """The witness of each table cell of one row, from its raw column
    values: the largest over the row's seeds of |value| sqrt(dim) for a
    scalar, |value| |a| or |value| |b| for the R_a + R_b coefficients, and
    the norm of a form or of Table-3 coordinates.  Columns of one kind are
    measured in one pass."""
    scalars = np.abs(np.stack([cols["q_R"], cols["r_R"]])) * np.sqrt(ctx.m.dim)
    forms = np.stack([cols[name] for name in _FORM_COLUMNS])
    w = dict(zip(("q_R", "r_R"), scalars.max(-1).tolist()))
    w |= dict(zip(_FORM_COLUMNS, np.sqrt((forms ** 2).sum(axis=(-2, -1))).max(-1).tolist()))
    w |= dict(zip(("R_a", "R_b"), (np.abs(cols["R_ab"]) * np.sqrt(ctx.ab_norm2)).max(0).tolist()))
    w |= dict.fromkeys(TABLE3_COLUMNS, 0.0)
    # some Table-3 column has nonzero rank at every n >= 2: live is never empty
    live = [name for name in TABLE3_COLUMNS if cols[name].shape[-1]]
    starts = np.cumsum([0] + [cols[name].shape[-1] for name in live[:-1]])
    squares = np.concatenate([cols[name] for name in live], -1) ** 2
    w |= dict(zip(live, np.sqrt(np.add.reduceat(squares, starts, axis=-1)).max(0).tolist()))
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
    seeds: int
    expected: bool
    status: str                  # ok | mismatch | remark | low_n_zero | ambiguous | skipped


@dataclass
class TablesReport:
    cells: list = field(default_factory=list)
    direction_checks: list = field(default_factory=list)

    @property
    def mismatches(self):
        return [c for c in self.cells if c.status == "mismatch"]

    @property
    def remark_cells(self):
        return [c for c in self.cells if c.status == "remark"]

    @property
    def ambiguous(self):
        return [c for c in self.cells if c.status == "ambiguous"]


def run_tables(bank: dec.ProjectorBank, tbank: tor.TorsionBank,
               seeds: int = DEFAULT_SEEDS) -> TablesReport:
    """Evaluate every cell of the three tables and diff against the embedded
    expectations; verify the R_x direction annotations of Table 2.  A cell
    needs at least one seed: ``seeds < 1`` raises ValueError.  The seeded
    states of every row whose components are nonzero at n are evaluated
    together, in stacks (``_row_columns``); the cells are then read row by
    row from each row's columns."""
    if seeds < 1:
        raise ValueError(f"run_tables needs at least one seed, got {seeds}")
    ctx = TableContext.build(bank, tbank)
    n = ctx.m.n
    skipped = {name for name in TABLE2_COLUMNS + TABLE3_COLUMNS if bank.rank(name) == 0}
    report = TablesReport()
    annotations = direction_annotations(n)

    table_specs = ((1, TABLE1_COLUMNS), (2, TABLE2_COLUMNS), (3, TABLE3_COLUMNS))

    live = [key for key in row_keys()
            if key[0] == "gamma" or all(tbank.rank(c) for c in key[1:])]
    row_cols = _row_columns(ctx, live, seeds)
    for key in row_keys():
        zero_source = key not in row_cols
        if not zero_source:
            cols = row_cols[key]
            wit, used = _witnesses(ctx, cols), len(cols["q_R"])
        for table, columns in table_specs:
            if table == 3 and key not in EXPECTED_TABLE3:
                continue
            expected = _expected_ticks(key, table)
            for col in columns:
                if zero_source or col in skipped:
                    report.cells.append(ContributionCell(
                        source=row_label(key), table=table, target=col,
                        tick=False, witness=0.0, seeds=0,
                        expected=col in expected, status="skipped"))
                    continue
                wmax = wit[col]
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
                    tick=tick, witness=wmax, seeds=used,
                    expected=exp, status=status))
        # direction annotations
        if key in annotations and not zero_source:
            direction, provenance = annotations[key]
            met = np.diag(ctx.ab_norm2)
            pp = np.array(direction, dtype=float)
            qq = np.array((pp[1] * ctx.ab_norm2[1], -pp[0] * ctx.ab_norm2[0]))
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
