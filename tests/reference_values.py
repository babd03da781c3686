"""Recorded reference values: the commonly tabulated coefficients of the
component-norm expansions of scal and scal^q.

The package's coefficients (``curvature_from_torsion.scal_coefficients``
and ``scalq_coefficients``) are the unique ones valid on free torsion
states, and on realized states they give scal and scal^q of R
(acceptance criterion 13).  The tabulated ones carry different
coefficients on some components (K3, 3H, KH, EH and the d*theta term).
They are no on-shell variant: they miss on realized states too.  On the
first realized state of criterion 13 at n = 2, R gives scal = -32.4 and
scal^q = 2.101, the package's coefficients give the same, and these give
-103.1 and -273.2.  The tests only report them.
"""

from qhcurv import curvature_from_torsion as cft


def reference_scal_coefficients(n: int) -> dict:
    """The commonly tabulated coefficients of scal."""
    return {
        "gamma": 2.0 * (n + 2.0) / 3.0,
        "33": 7.0 / 3.0, "K3": -1.0 / 3.0,
        "E3": (2.0 * n * n + 3.0 * n + 2.0) / (3.0 * n),
        "3H": -1.0 / 3.0, "KH": -7.0 / 3.0,
        "EH": 2.0 * (4.0 * n * n + 6.0 * n + 1.0) / (3.0 * n),
        "dstar": -16.0 * (2.0 * n + 1.0) * (n + 1.0) / n,
    }


def reference_scalq_coefficients(n: int) -> dict:
    """The commonly tabulated coefficients of scal^q."""
    return {
        "gamma": 2.0 * n,
        "33": 1.0, "K3": 1.0, "E3": 1.0,
        "3H": -2.0, "KH": -9.0, "EH": -2.0 / 3.0,
        "dstar": 0.0,
    }


def reference_deviations(n: int) -> dict:
    """Every coefficient where a reference scalar expansion differs from
    the free-state one: {"scal": {name: (free, reference)}, "scal^q": ...}."""
    out = {}
    for label, free, ref in (
            ("scal", cft.scal_coefficients(n), reference_scal_coefficients(n)),
            ("scal^q", cft.scalq_coefficients(n), reference_scalq_coefficients(n))):
        out[label] = {name: (free[name], ref[name]) for name in free
                      if abs(free[name] - ref[name]) > cft.COEFF_TOL}
    return out
