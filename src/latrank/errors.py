"""Exception types shared across the package."""


class LatrankError(Exception):
    pass


class ReduciblePolynomialError(LatrankError):
    """Raised when a defining polynomial fails the irreducibility check."""


class SingularBasisError(LatrankError):
    """Raised when a supplied integral basis is singular."""


class PrecisionError(LatrankError):
    """Raised when embedding precision is insufficient for a requested operation."""


class FieldMismatchError(LatrankError):
    """Raised when elements of different fields are combined."""


class NotIntegralError(LatrankError):
    """Raised when an operation requires integral coordinates."""


class ExactNormUnavailableError(LatrankError):
    """Raised for fields where complex conjugation is not a field automorphism,
    so the trace pairing Tr(x*conj(y)) is not rational-valued."""


class MembershipError(LatrankError):
    """Raised when a claimed sublattice is not contained in its ambient lattice."""


class EnumerationCapError(LatrankError):
    """Raised when a short-vector enumeration passes the configured cap.

    `estimate` is the number of rows the enumeration had reached when it
    stopped, counted over every level of the search; it exceeds `cap`.
    """

    def __init__(self, estimate, cap, radius):
        self.estimate = estimate
        self.cap = cap
        self.radius = radius
        within = "" if radius is None else f" within radius {radius:.6g}"
        super().__init__(
            f"enumeration aborted: it reached {estimate} rows{within}, past the cap of {cap}"
        )


class ValidationError(LatrankError):
    """Raised on invalid run configurations. Message names the violated constraint."""


class InvariantError(LatrankError, ValueError):
    """Raised when an internal invariant fails: a defect, not bad input.

    The message starts with the name of the invariant.  Subclassing
    ValueError keeps callers that catch ValueError working.
    """
