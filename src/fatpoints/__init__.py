"""Fat point ideals on the plane: Hilbert functions and graded resolutions.

The pipeline models a set of (possibly infinitely near) points carried by a
line, a conic, or a smooth cubic, assigns multiplicities, and produces the
Hilbert function together with the two graded free modules of the minimal
resolution.  Every numeric claim can be replayed against a finite-field
oracle that builds the interpolation matrix directly.
"""

from __future__ import annotations

from .cohomology import (
    CaseContext,
    CohomologyAnswer,
    h0_any,
    h0_with_decomposition,
    make_context,
)
from .configuration import (
    ConicShape,
    FatPointScheme,
    LambdaSpec,
    Point,
    PointConfig,
    UnsupportedRuleError,
    ValidationError,
)
from .lattice import ClassVector
from .negcurves import NegativeCurveList, enumerate_negative_curves
from .oracle import OracleReport, oracle_report
from .resolution import GradedFreeModule, ResolutionReport, resolve, resolve_line_closed_form
from .syzygy import SyzygyAnswer, s_dim
from .zariski import NotEffective, ZariskiDecomposition, is_nef, zariski_decompose

__all__ = [
    "CaseContext",
    "ClassVector",
    "CohomologyAnswer",
    "ConicShape",
    "FatPointScheme",
    "GradedFreeModule",
    "LambdaSpec",
    "NegativeCurveList",
    "NotEffective",
    "OracleReport",
    "Point",
    "PointConfig",
    "ResolutionReport",
    "SyzygyAnswer",
    "UnsupportedRuleError",
    "ValidationError",
    "ZariskiDecomposition",
    "enumerate_negative_curves",
    "h0_any",
    "h0_with_decomposition",
    "is_nef",
    "make_context",
    "oracle_report",
    "resolve",
    "resolve_line_closed_form",
    "s_dim",
    "zariski_decompose",
]
