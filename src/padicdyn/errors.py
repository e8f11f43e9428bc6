"""Exception hierarchy shared by all modules.

Mathematical obstructions (resonances, irrational eigenvalues, torsion, ...)
are distinct classes so that callers, in particular the command line front
end, can tell them apart from malformed input.
"""

from __future__ import annotations


class PadicDynError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PadicDynError):
    """Input violates a mathematical precondition of the operation."""


class PrecisionError(PadicDynError):
    """The requested computation cannot be decided at the working precision."""


class IntegralityError(PadicDynError):
    """A coefficient fails the required p-integrality."""


class IrrationalEigenvalueError(PadicDynError):
    """The characteristic polynomial has roots outside the rationals."""


class ResonantMonomialError(PadicDynError):
    """A homological divisor vanishes: lambda^I equals lambda_j.

    Attributes:
        monomial:  exponent tuple I of the obstructed monomial
        component: 0-based index j of the component whose coefficient is blocked
    """

    def __init__(self, monomial, component):
        self.monomial = tuple(monomial)
        self.component = int(component)
        super().__init__(
            f"resonant monomial: lambda^{self.monomial} = lambda_{self.component}"
        )


class NotSemisimpleError(PadicDynError):
    """A tangent map or normal block is not diagonalizable."""


class EigenvalueVariationError(PadicDynError):
    """Eigenvalues of the normal block vary along the fixed locus."""


class SingularBlockError(PadicDynError):
    """The transverse linear block is singular (eigenvalue-one count is wrong)."""


class TorsionError(PadicDynError):
    """The multiplicative group generated by the eigenvalues has torsion."""


class DivisionFailureError(PadicDynError):
    """Graded division by the pivot form failed (bad seed or vanishing order)."""


class HeightCeilingError(PadicDynError):
    """An exact result is too tall to be written out in decimal."""


class DocumentError(PadicDynError):
    """A JSON input document is malformed.

    Attributes:
        path: location of the offending field, e.g. "components[1][0].exponents"
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
