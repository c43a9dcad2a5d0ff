"""Exact tools for centerpole-set experiments.

Sandwich constructions in Z^(1+k), shift-covering of L-shaped facet
sets, exact rational hyperplane geometry, T-shape decisions with
certificates, witness colorings, and finite-window symmetry-graph
certification.
"""

from .certifier import (
    ScheduleReport,
    SymmetryGraph,
    WindowSpec,
    WindowVerdict,
    build_symmetry_graph,
    certify_schedule,
    decide_k_colorable,
    verify_witness,
)
from .colorings import (
    ColoringRule,
    cone_coloring,
    halfspace_coloring,
    pair_coloring,
    plus0_extension,
    plus1_extension,
    plus2_extension,
    standard_simplex,
    symmetric_pair_scan,
)
from .covering import (
    CaseAnalysisError,
    CoverCertificate,
    brute_force_cover_shifts,
    constructive_cover_shift,
    verify_covering_lemma,
)
from .cube import (
    LShape,
    SigmaZeroSet,
    build_sandwich,
    cube_points,
    enumerate_maximal_sigma0_sets,
    sandwich_contains,
    sandwich_size,
    sigma0,
)
from .geometry import (
    affine_hull_dim,
    hyperplane,
    in_general_position,
    separates,
    side_of,
)
from .tshape import (
    KNOWN_T_VALUES,
    TShapeCertificate,
    TShapeResult,
    is_t_shaped,
    moment_curve_points,
    verify_t_value_bounds,
)

__version__ = "0.1.0"
