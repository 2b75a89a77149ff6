"""Exception types shared across the package."""


class GradAlgError(Exception):
    """Base class for all package-specific errors."""


class NotInvertibleError(GradAlgError):
    """A scalar or matrix has no inverse in its ring."""


class SubmatrixNotInvertibleError(NotInvertibleError):
    """A quasideterminant is undefined because the complementary submatrix
    cannot be inverted."""


class RegularityError(GradAlgError):
    """A block decomposition required an invertible principal submatrix and the
    elimination could not produce one.  ``principal`` names the offender."""

    def __init__(self, message, principal=None):
        super().__init__(message)
        self.principal = principal


class DimensionNotAdmissibleError(GradAlgError):
    """Strict mode rejects nonzero-degree determinants when the total dimension
    n is 2 or 3 mod 4.  There gdet(XY) = (-1)^(<x,y> n(n-1)/2) gdet(X) gdet(Y),
    so multiplicativity fails only for factor degrees with odd <x,y>."""


class HomogeneityError(GradAlgError):
    """An operation required a homogeneous scalar or matrix."""


class SchemaError(GradAlgError):
    """JSON input does not match the documented schemas."""
