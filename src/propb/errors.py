"""Exception types shared across the package."""


class PropBError(Exception):
    """Base class for all propb errors."""


class NonUniformEdge(PropBError):
    """Edge size differs from the declared uniformity, or a vertex repeats."""


class VertexOutOfRange(PropBError):
    """Edge references a vertex id outside [0, p)."""


class TooManyEdges(PropBError):
    """More distinct edges requested than C(p, n) allows."""


class InsufficientVertices(PropBError):
    """Padding needs at least n fresh vertices per fresh disjoint edge."""


class InvalidOrdering(PropBError):
    """A visit order is not a permutation of the vertex ids, or has the wrong length."""


class BudgetExceeded(PropBError):
    """An enumeration or search would exceed its explicit budget."""


class EqualityStructureViolated(PropBError):
    """Set-pair sum reached 1 but the forced equality structure is absent.

    Under the two-families theorem this cannot happen for a family that
    passes the disjointness and non-containment conditions, so raising it
    signals a bug in the caller's condition checking.
    """


class CounterexampleFound(PropBError):
    """A verification run hit an instance violating the checked bound; record is its report dict."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class FixtureFailure(PropBError):
    """A curated fixture failed one of its asserted properties."""


class FileAccessError(PropBError):
    """An input file cannot be read, or an --out file cannot be written."""


class ParseError(PropBError):
    """Hypergraph text input is malformed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
