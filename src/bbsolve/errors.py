"""Exception types shared across the package.

Soft conditions (a skipped screen, a search cap, an empty match list) are
reported through notes/status fields on result objects, not exceptions;
only genuine failures raise.
"""


class BBError(Exception):
    """Base class for all bbsolve errors."""


class DegenerateInput(BBError):
    """Input outside the analyzable shape (zero polynomial, constant in p or q)."""


class PrecisionExhausted(BBError):
    """Working precision too low to separate roots / certify a decision."""


class InsufficientDepth(BBError):
    """A branch expansion is too short to expose the requested coefficient."""


class DepthTooSmall(InsufficientDepth):
    """Branch depth below what the series recurrence needs."""


class NoRoots(BBError):
    """Leading-coefficient equation has no admissible nonzero root."""


class InconsistentResonance(BBError):
    """The resonant index meets a nonzero forced term: no series with this leading root."""


class SingularEncounter(BBError):
    """Analytic continuation hit a branch point of the curve (dP/dp = 0 off-pole)."""


class ToleranceLoss(BBError):
    """Continuation could not keep the consistency defect below tolerance."""


class EquationSyntaxError(BBError):
    """Parse failure; carries the offending position and the expected tokens."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.position = position
        self.expected = tuple(expected)


class UnsupportedForm(BBError):
    """Equation contains a derivative other than y and y^(k)."""


class NotPolynomial(BBError):
    """Non-polynomial operators outside the resolved right-hand side."""
