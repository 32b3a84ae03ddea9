"""Numerical laboratory for conical Calabi-Yau gluing.

Dense exterior algebra on R^6 and R^7, pointwise structure recovery from
a (2-form, 3-form) pair, explicit cone and resolved-model geometries,
finite-difference curvature and norm quadrature, a Moser-type radial
flow, and a one-parameter gluing family whose neck defects are scanned
against exact rational rate predictions.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigInvalid, CyglueError, Degenerate, DegenerateMetric,
    DimensionMismatch, DomainEscape, NotClosed, NotPositive,
    NotPositive3Form, NotStable, RateOutOfRange,
)
from .forms import (
    KForm, LinearMap, MetricTensor, contract, form_norm, hodge_star,
    pullback, wedge,
)
from .su3 import (
    NearlyCYReport, SU3Structure, check_prop32, recover_su3,
)
from .g2 import (
    TorsionSample, build_phi_chi, compare_g2, metric_from_phi, torsion_psi,
)
from .cones import (
    ACGeometry, ConeGeometry, ConicalSingularityData, FieldSample,
    calabi_ale_o3, complex_dilation, flat_c3_cone, lie_derivative_check,
    quotient_cone_z3, t6_z3_orbifold_patch,
)
from .analysis import (
    fd_exterior_derivative, kahler_ricci, region_norms, riemann_ricci,
)
from .moser import (
    MoserResult, moser_integrate, moser_vector_field, radial_primitive,
    split_form,
)
from .gluing import (
    DefectScan, GluedStructure, GluingConfig, Thm52Verdict, build_glued,
    defect_scan, nearly_cy_on_neck, thm52_check,
)

__all__ = [
    "__version__",
    "CyglueError", "DimensionMismatch", "DegenerateMetric", "NotStable",
    "NotPositive", "NotPositive3Form", "NotClosed", "RateOutOfRange",
    "Degenerate", "DomainEscape", "ConfigInvalid",
    "KForm", "LinearMap", "MetricTensor", "wedge", "contract", "pullback",
    "hodge_star", "form_norm",
    "SU3Structure", "NearlyCYReport", "recover_su3", "check_prop32",
    "TorsionSample", "build_phi_chi", "metric_from_phi", "torsion_psi",
    "compare_g2",
    "ConeGeometry", "ACGeometry", "ConicalSingularityData", "FieldSample",
    "flat_c3_cone", "quotient_cone_z3", "calabi_ale_o3",
    "t6_z3_orbifold_patch", "complex_dilation", "lie_derivative_check",
    "fd_exterior_derivative", "riemann_ricci", "kahler_ricci",
    "region_norms",
    "MoserResult", "split_form", "radial_primitive", "moser_vector_field",
    "moser_integrate",
    "GluingConfig", "GluedStructure", "DefectScan", "Thm52Verdict",
    "build_glued", "nearly_cy_on_neck", "defect_scan", "thm52_check",
]
