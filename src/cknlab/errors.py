"""Exception hierarchy for the ckn-lab toolkit.

Parameter admissibility failures derive from AdmissibilityError; the others
signal a broken precondition or a numerical step that cannot finish.  The CLI
exits 2 with the message of any of them (exit 1 is a failed report contract).
"""


class CknLabError(Exception):
    """Base class for all toolkit errors."""


class AdmissibilityError(CknLabError, ValueError):
    """A parameter triple (a, b, d) violates an admissibility constraint."""


class ConstraintAB(AdmissibilityError):
    """Violates a <= b <= a+1 (d >= 3) or a < b <= a+1 (d = 2)."""


class ConstraintAC(AdmissibilityError):
    """Violates a < a_c = (d-2)/2."""


class SubcriticalRange(AdmissibilityError):
    """Exponent p lies on an endpoint excluded by strict subcriticality."""


class AmplitudeOverflow(CknLabError):
    """The bubble amplitude, or a closed-form value built on it, exceeds double precision."""


class NonPositiveSample(CknLabError):
    """A consumer that requires a positive field received one that is not."""


class GridTooCoarse(CknLabError):
    """Radial grid has too few nodes for the requested stencil."""


class RegionOutsideGrid(CknLabError):
    """Integration region is not contained in the grid support."""


class UnsupportedAngularRep(CknLabError):
    """Operation not defined for this angular representation."""


class RegimeViolation(CknLabError):
    """Operation requires the symmetric regime (alpha <= fs_threshold)."""


class RangeViolation(CknLabError):
    """Intrinsic dimension n outside the range required by the operation."""


class NotSuperharmonic(CknLabError):
    """Field fails the L f <= 0 gate."""


class BadExponent(CknLabError):
    """Weak energy estimate requires t < -1."""


class NotFiniteEnergy(CknLabError):
    """Energy integral not certified finite on the grid."""


class StepFailure(CknLabError):
    """Adaptive ODE integrator could not meet its tolerance."""


class NotDecaying(CknLabError):
    """Profile is not classified as decaying; no scaling fit possible."""


class ConvergenceFailure(CknLabError):
    """A Brent scale fit has no bracket, or an eigensolve is not finite."""


class NoSignChange(CknLabError):
    """Bisection bracket does not contain a sign change."""
