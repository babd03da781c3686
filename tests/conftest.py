"""Shared fixtures: models and projector banks are expensive at n = 3, so
they are built once per session and shared read-only (they are immutable)."""

import numpy as np
import pytest

from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tables as tbl
from qhcurv import torsion as tor
from qhcurv.model_space import build_model

_CACHE = {}


def _get(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


@pytest.fixture(scope="session", params=[2, 3])
def n(request):
    return request.param


@pytest.fixture(scope="session")
def model(n):
    return _get(("model", n), lambda: build_model(n))


@pytest.fixture(scope="session")
def model2():
    return _get(("model", 2), lambda: build_model(2))


@pytest.fixture(scope="session")
def model3():
    return _get(("model", 3), lambda: build_model(3))


def get_bank(n):
    return _get(("bank", n),
                lambda: dec.build_sp_projectors(_get(("model", n), lambda: build_model(n))))


def get_torsion_bank(n):
    return _get(("tbank", n),
                lambda: tor.build_torsion_bank(_get(("model", n), lambda: build_model(n))))


@pytest.fixture(scope="session")
def bank(n):
    return get_bank(n)


@pytest.fixture(scope="session")
def bank2():
    return get_bank(2)


@pytest.fixture(scope="session")
def bank3():
    return get_bank(3)


@pytest.fixture(scope="session")
def tbank(n):
    return get_torsion_bank(n)


@pytest.fixture(scope="session")
def tbank2():
    return get_torsion_bank(2)


def coordinate_grades(m, ps):
    """(counts, label): the distinct line-count vectors of the m * m pair
    coordinates (how many of the four indices fall in each line), one row
    per grade, and for each coordinate the index of its grade.  The package
    blocks by sign classes, whose line part is these counts mod 2; the
    tests check that L and L_sigma keep the grades too."""
    line = np.eye(m.n, dtype=int)[np.arange(m.dim) // 4]   # one-hot line of each index
    per_pair = line[ps.first] + line[ps.second]
    per_coord = (per_pair[:, None, :] + per_pair[None, :, :]).reshape(-1, m.n)
    counts, label = np.unique(per_coord, axis=0, return_inverse=True)
    return counts, label.reshape(-1)


def full_width_R_basis(m, ps):
    """The closed-form rows of R, class after class, scattered to full
    m^2 width: an oracle the package itself never forms."""
    _, classes = cs.sign_classes(m, ps)
    return dec._scatter(list(zip(classes, cs.curvature_basis(m, ps, classes))), ps.m ** 2)


def coordinate_characters(m, ps):
    """The character of every pair coordinate under each generator of
    cs.sign_generators, computed from the signs themselves: row c, column
    k is 1 when generator k multiplies coordinate c by -1."""
    f = cs.sign_generators(m.n)                          # (k, dim) of +-1
    ones = np.ones((m.dim,) * 4)
    signs = np.array([cs.to_pair_coords(ps, np.einsum("x,y,z,u,xyzu->xyzu", g, g, g, g, ones))
                      for g in f])
    return (signs.T < 0).astype(int)


def random_torsion(tbank, seed):
    """Random element of the full torsion space: a Gaussian rank-3 tensor,
    projected."""
    rng = cs.substream("tests-torsion", tbank.model.n, seed)
    d = tbank.model.dim
    return tor.project_to_torsion_space(tbank.model, rng.standard_normal((d, d, d)))


def random_derivative(tbank, seed):
    """Random derivative: a Gaussian rank-4 tensor whose last three axes are
    projected to the torsion space."""
    rng = cs.substream("tests-derivative", tbank.model.n, seed)
    d = tbank.model.dim
    return tor.project_to_torsion_space(tbank.model, rng.standard_normal((d, d, d, d)))


def random_gammas(m, seed):
    rng = cs.substream("tests-gamma", m.n, seed)
    g = rng.standard_normal((3, m.dim, m.dim))
    return g - g.swapaxes(1, 2)


def exact_scales(arrays) -> tuple[int, int]:
    """[lo, hi], within [-1000, 1000]: the k for which 2^k times every array
    stays finite, with every nonzero entry normal."""
    x = np.abs(np.concatenate([a.ravel() for a in arrays]))
    e_min, e_max = np.frexp(x[x > 0].min())[1], np.frexp(x.max())[1]
    return max(-1000, -1021 - int(e_min)), min(1000, 1024 - int(e_max))


def assert_table2_follows_table1(report):
    """On every row of a table report, a Table-2 module ticks (either half
    of an a/b pair) iff one of the Table-1 columns behind it does."""
    ticks = {(c.source, c.table, c.target): c.tick for c in report.cells}
    for source in {c.source for c in report.cells}:
        for behind in set(tbl.TABLE2_FROM_TABLE1.values()):
            modules = [col for col, b in tbl.TABLE2_FROM_TABLE1.items() if b == behind]
            assert (any(ticks[(source, 2, col)] for col in modules)
                    == any(ticks[(source, 1, col)] for col in behind)), (source, modules)
