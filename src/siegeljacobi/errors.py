"""Exception types shared across the package."""


class SiegelJacobiError(Exception):
    """Base class for all package errors."""


class NonHermitian(SiegelJacobiError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(SiegelJacobiError):
    """An eigenvalue iteration failed to converge."""


class NotSymmetric(SiegelJacobiError):
    """Input matrix fails the complex-symmetry check."""


class NotSymplectic(SiegelJacobiError):
    """Block pair (a, b) violates the group membership identities."""


class Singular(SiegelJacobiError):
    """A matrix that must be inverted is singular to working precision."""


class DomainViolation(SiegelJacobiError):
    """An argument left the mathematical domain of the operation."""


class OutOfDomain(SiegelJacobiError):
    """A scalar parameter is outside the allowed range."""


class VariableMismatch(SiegelJacobiError):
    """Symbolic operands are defined over different variable sets."""


class CutoffTooSmall(SiegelJacobiError):
    """Truncated Fock-space computation lost too much tail mass."""
