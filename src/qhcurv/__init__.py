"""Numerical Sp(n)Sp(1) curvature and intrinsic-torsion toolkit.

Decomposes algebraic Riemannian curvature tensors on the quaternion-
Hermitian model space R^{4n} into their irreducible components, splits
intrinsic-torsion tensors into their six classes, evaluates the
curvature-from-torsion formulas, and reproduces the contribution tables
at desk scale (n = 2, 3).
"""

__version__ = "1.0.0"

from .curvature_space import (CurvatureTensor, L_map, L_sigma_map,
                              project_to_R, random_curvature, ricci,
                              ricci_q, ricci_star)
from .decomposition import (ProjectorBank, build_sp_projectors,
                            component_norms, dimension_audit,
                            qk_einstein_verify)
from .model_space import ModelSpace, adapted_basis, build_model
from .tables import run_tables
from .torsion import TorsionBank, build_torsion_bank, torsion_from_nabla_omega

__all__ = [
    "ModelSpace", "build_model", "adapted_basis",
    "CurvatureTensor", "project_to_R", "random_curvature",
    "L_map", "L_sigma_map", "ricci", "ricci_q", "ricci_star",
    "ProjectorBank", "build_sp_projectors", "component_norms",
    "dimension_audit", "qk_einstein_verify",
    "TorsionBank", "build_torsion_bank", "torsion_from_nabla_omega",
    "run_tables",
]
