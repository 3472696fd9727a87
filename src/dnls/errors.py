"""Exception types shared across the package."""

__all__ = [
    "DnlsError",
    "PeriodMismatch",
    "InvalidExponent",
    "EmptyCoefficients",
    "SingularShift",
    "NoThresholdFound",
    "CertificateOverflow",
    "CertificateInvalid",
    "SolveFailed",
    "DimensionMismatch",
    "ConfigError",
]


class DnlsError(Exception):
    """Base class for all library-specific errors."""


class PeriodMismatch(DnlsError, ValueError):
    """Forcing period does not divide the lattice time period."""


class InvalidExponent(DnlsError):
    """Power-law exponent that is not positive."""


class EmptyCoefficients(DnlsError):
    """A coefficient list was empty."""


class SingularShift(DnlsError):
    """A^-1's symbol or kernel is not finite: the shift is so small (subnormal
    beta and epsilon) that the reciprocal symbol overflows."""


class NoThresholdFound(DnlsError):
    """No radius exists beyond which |g(t, z)| <= coef * |z|^3: the forcing
    grows cubically with max|f| >= coef, or faster than cubically."""


class CertificateOverflow(DnlsError):
    """A certificate constant left the floating-point range: it overflowed,
    or a cubic constant underflowed to 0."""


class CertificateInvalid(DnlsError):
    """A pipeline step required a VALID existence certificate."""


class SolveFailed(DnlsError):
    """No solver route produced a converged solution."""


class DimensionMismatch(DnlsError):
    """Solution file does not match the configured lattice."""


class ConfigError(DnlsError):
    """Invalid or malformed run configuration."""
