"""Exception hierarchy of the decision engine.

Every error names the first structural obstruction; parameter-range
failures are never raised as exceptions but reported as NOT_COVERED
verdicts with a trace.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class Unsupported(EngineError):
    """The requested quantity is not defined for this input (e.g. an index
    for the scale of vanishing continuous functions, or a symbolic query
    sent to a concrete-only entry point)."""


class NotIdentifiable(EngineError):
    """A Sobolev-Slobodeckij descriptor admits neither the Bessel-potential
    nor the Besov rewriting at the given parameters."""


class HypothesisViolation(EngineError):
    """A Banach-space hypothesis is missing: UMD flag, property-(alpha) flag
    for genuinely anisotropic weights, algebra/unit flags, or a pointwise
    multiplication of value spaces outside the admissible shapes."""


class IncompatibleSpaces(EngineError):
    """Operands do not share anisotropy, domain label or value space."""


class NoInterpolationRule(EngineError):
    """The operand pair matches none of the implemented interpolation
    identities."""


class ClosureFromUncovered(EngineError):
    """Interpolation closure requested from a parent instance that is
    neither COVERED nor asserted by the caller."""


class InfeasibleRange(EngineError):
    """The target sum lies outside the feasible range of the realization
    construction."""


class WrongScale(EngineError):
    """A numerical seminorm was requested for a descriptor outside the
    scale/parameter range of the quadrature formula."""


class ResolutionError(EngineError):
    """The grid does not resolve enough decades of difference steps for the
    quadrature to be meaningful."""


class UncoveredInstance(EngineError):
    """A numerical probe was requested for an instance that the decision
    engine does not cover; there is no estimate to test."""
