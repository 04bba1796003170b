"""Exception hierarchy for mdkit.

Every domain failure raises a subclass of :class:`MdkError`; the CLI maps
these to exit code 1 and everything else (usage mistakes) to exit code 2.
"""


class MdkError(Exception):
    """Base class for all domain errors raised by mdkit."""


class DimensionMismatchError(MdkError):
    """Shapes of S, T, or labels disagree with the declared rank."""


class NonIntegralError(MdkError):
    """A quantity that must be a (nonnegative) integer is not one.

    Parameters
    ----------
    message : str
    where : tuple, optional
        Index of the worst offending entry.
    residual : float, optional
        Distance from the nearest integer (or from admissibility).
    """

    def __init__(self, message, where=None, residual=None):
        super().__init__(message)
        self.where = where
        self.residual = residual


class NotAGroupError(MdkError):
    """A Cayley table fails a group axiom.

    Carries ``axiom`` ("closure", "identity", "associativity", "inverse")
    and ``witness``, the first offending element or triple.
    """

    def __init__(self, message, axiom=None, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class DegeneracyResolutionError(MdkError):
    """Randomized class-sum combinations failed to separate characters."""


class DegenerateFormError(MdkError):
    """The bilinear form attached to a quadratic form is degenerate."""


class NonRationalChargeError(MdkError):
    """No rational with bounded denominator matches the Gauss-sum phase."""


class ValidationFailedError(MdkError):
    """Modular data failed its axiom checks, found at first use; ``report``
    is the :class:`ValidationReport`."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ToleranceError(MdkError, ValueError):
    """A tolerance is not a finite number > 0.

    Also a ValueError, so a caller that catches ValueError from
    ``default_eps`` on a bad MDK_EPS still does.
    """


class SearchBudgetError(MdkError):
    """A bounded search ran past its budget: ``nodes`` is the count
    reached and ``cap`` the cap.  Every search in mdkit stops through
    :class:`_Budget`, which raises the subclass
    :class:`IncompleteEnumerationError`."""

    def __init__(self, message, nodes=None, cap=None):
        super().__init__(message)
        self.nodes = nodes
        self.cap = cap


class IncompleteEnumerationError(SearchBudgetError):
    """A search ran past its node cap; no partial answer is returned."""


class _Budget:
    """Node counter of one search call: ``spend`` raises past ``cap``."""

    def __init__(self, what: str, cap, nodes: int = 0):
        self.what = what
        self.cap = cap
        self.nodes = nodes

    def spend(self, k: int = 1) -> None:
        self.nodes += k
        if self.nodes > self.cap:
            raise IncompleteEnumerationError(
                f"{self.what} ran past its {self.cap}-node cap",
                nodes=self.nodes, cap=self.cap)


class SpecParseError(MdkError):
    """A build-spec string failed to parse.

    ``position`` is the byte offset of the failure; ``expected`` the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message, position=None, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected) if expected else ()


class UnknownPresetError(MdkError):
    """Unknown preset name; carries the list of available names."""

    def __init__(self, message, available=()):
        super().__init__(message)
        self.available = tuple(available)
