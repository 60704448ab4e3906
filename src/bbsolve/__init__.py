"""bbsolve: symbolic-numeric analysis of autonomous equations P(y^(k), y) = 0.

Pipeline: parse an equation, read the Newton polygon of P, expand the
Puiseux branches of the curve P(p, q) = 0 over q = infinity, screen the
necessary conditions for pole-bearing meromorphic solutions, enumerate the
finitely many formal Laurent germs at a pole, and classify candidates into
class W: rational, rational in e^(az), or elliptic.
"""

__version__ = "0.1.0"

from .algebra import (BiPoly, BigComplex, GaussianRational, UPoly, pochhammer,
                      roots_univariate, squarefree_in_p)
from .eqparse import EquationSpec, canonical_string, parse_equation
from .curve import (ExactnessVerdict, NewtonPolygon, PuiseuxBranch,
                    branches_at_infinity, exactness_check, newton_polygon,
                    residue_pdq)
from .conditions import (ConditionsReport, screen_admissibility, degree_bound,
                         residue_screen)
from .series import (LaurentSeries, ZSeries, bracket_phi, enumerate_series,
                     pinning_coefficient, recurrence_bracket, verify_series)
from .classify import (ClassificationVerdict, detect_periods, match_exponential,
                       match_monomial, sweep_poles)
from .cli import analyze

__all__ = [
    "BiPoly", "BigComplex", "GaussianRational", "UPoly", "pochhammer",
    "roots_univariate", "squarefree_in_p", "EquationSpec", "canonical_string",
    "parse_equation", "ExactnessVerdict", "NewtonPolygon", "PuiseuxBranch",
    "branches_at_infinity", "exactness_check", "newton_polygon", "residue_pdq",
    "ConditionsReport", "screen_admissibility", "degree_bound", "residue_screen",
    "LaurentSeries", "ZSeries", "bracket_phi", "enumerate_series",
    "pinning_coefficient", "recurrence_bracket", "verify_series",
    "ClassificationVerdict", "detect_periods", "match_exponential",
    "match_monomial", "sweep_poles",
    "analyze",
]
