"""Exception hierarchy shared by all modules.

Validation failures map to CLI exit code 1, search-budget failures to
exit code 2.
"""


class InclabError(Exception):
    """Base class for all library errors."""


class ValidationError(InclabError):
    """Bad input: violated precondition, malformed data, out-of-range value."""


class GuardExceeded(ValidationError):
    """A desk-scale size guard was exceeded (e.g. too many rounds)."""


class UnsupportedObject(ValidationError):
    """Operation not defined for this object kind (e.g. implicit surfaces)."""


class CoincidentObjects(ValidationError):
    """Two inputs describe the same point set where distinctness is required."""


class DegenerateShape(ValidationError):
    """Triangle shape parameters do not describe a genuine triangle."""


class MissingParam(ValidationError):
    """A bound formula was evaluated without a required symbol."""


class OutOfRange(ValidationError):
    """A bound formula parameter is outside its admissible range."""


class InsufficientData(ValidationError):
    """Not enough data points for a fit."""


class SearchFailure(InclabError):
    """A randomized search ran out of budget or retries (exit code 2)."""


class BudgetExhausted(SearchFailure):
    """Candidate budget exhausted without an accepted bisection polynomial.

    best_imbalance is a score: the largest open side of any cell, as a
    fraction of that cell.  When the round's cells admit no feasible
    threshold at all (a cell of 1 or 3 points at delta = 1/4), it is the
    least score any threshold can reach; otherwise it is the smallest score
    over the rejected candidates, when any was scored.
    """

    def __init__(self, message, best_imbalance=None):
        super().__init__(message)
        self.best_imbalance = best_imbalance


class GenericityFailure(SearchFailure):
    """Could not find a generic map/translation within the retry budget."""
