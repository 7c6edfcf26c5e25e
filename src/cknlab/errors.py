"""Exception types for the ckn-lab toolkit, one per way a caller reacts.

CknLabError is a broken precondition or a numerical step that cannot finish;
its message names which.  AdmissibilityError is a parameter triple (a, b, d)
outside the admissible set, which the CLI reports as inadmissible input and
``spectral.fs_crossing`` as a bracket without a crossing.  NotFiniteEnergy is
an energy integral the estimates suite records as not certified rather than
failing on.  A numpy without LAPACK dstebz raises OSError, as ``ctypes.CDLL`` does.
The CLI exits 2 on it or an error from what the user typed, 1 on one a suite raises.
"""


class CknLabError(Exception):
    """Base class for all toolkit errors."""


class AdmissibilityError(CknLabError, ValueError):
    """A parameter triple (a, b, d) violates an admissibility constraint."""


class NotFiniteEnergy(CknLabError):
    """Energy integral not certified finite on the grid."""
