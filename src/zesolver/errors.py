"""Exception types shared across the solver modules."""


class InputError(ValueError):
    """A command-line or config value is not a number where one is needed."""


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class OrderingViolation(SolverError):
    """Mixture parameters violate the required strict ordering."""


class DivisionByZero(SolverError):
    """A Riemann invariant of zero makes a formula denominator vanish."""


class ComplexRoots(SolverError):
    """The concentration-to-invariant quadratic has no real roots."""


class DegenerateLeadingCoefficient(SolverError):
    """1 + u1 + u2 = 0: the quadratic degenerates to a linear equation."""


class NonPhysicalState(SolverError):
    """Total concentration violates 1 + u1 + u2 > 0."""


class CoincidentInvariants(SolverError):
    """R1 and R2 too close: (R1 - R2)^3 denominators blow up."""


class IntegrationFailure(SolverError):
    """An isochrone march produced no samples."""


class NoRootInInterval(SolverError):
    """Root solve found no root in the bracketing interval."""


class NonMonotoneParametrization(SolverError):
    """A parametric profile failed its strict-monotonicity assertion."""


class DomainError(SolverError):
    """Evaluation requested outside a curve's or zone's validity window."""


class UnexpectedOrdering(SolverError):
    """Event times, or a layout's zone edges, violate the order the construction needs."""


class PhaseGap(SolverError):
    """Profile samples out of x order, or repeating an x inside a zone run."""


class LevelDrift(SolverError):
    """Isochrone march drifted off the t = t* level line."""


class FoldDetected(SolverError):
    """The (a,b) -> (x,t) map folded; march stopped without continuation."""


class CFLViolation(SolverError):
    """Grid CFL number outside (0, 1)."""


class DomainMismatch(SolverError):
    """Numeric and analytic fields do not overlap in x."""
