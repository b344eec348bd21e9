"""Exception types shared across the package."""


class KmatchError(Exception):
    """Base class for all kmatch errors."""


class BadVertex(KmatchError):
    """Malformed instance: a bad khg directive, or an edge referencing a
    vertex outside the universe."""


class ClosureViolation(KmatchError):
    """A sub-edge required by downward closure is missing."""


class NotPartite(KmatchError):
    """Partite degrees requested on a system that is not partite."""


class NotAKVector(KmatchError):
    """A vector is not a nonnegative k-vector of the right dimension."""


class EmptyAllocation(KmatchError):
    """Operation requires a nonempty allocation."""


class IndexNotInAllocation(KmatchError):
    """An edge's index vector does not occur in the allocation."""


class DimensionMismatch(KmatchError):
    """Vectors of different dimensions were mixed."""


class NotInLattice(KmatchError):
    """Target vector is not a member of the generated lattice."""


class BoundTooSmall(KmatchError):
    """No decomposition exists within the coefficient bound."""


class MalformedCert(KmatchError):
    """A certificate fails its structural well-formedness checks."""


class EmptyTopLevel(KmatchError):
    """The top level of the system has no edges."""


class UnknownEdge(KmatchError):
    """A weight references an edge absent from the host system."""


class MixedHost(KmatchError):
    """Fractional matchings from different host systems were combined."""


class PreconditionFailed(KmatchError):
    """A stated precondition does not hold for the input."""


class AbsorberUnavailable(KmatchError):
    """Lattice of robust vectors is incomplete; absorber cannot be built.

    Carries the offending partition so the caller can turn it into a
    divisibility-barrier candidate.
    """

    def __init__(self, message, partition=None, lattice=None):
        super().__init__(message)
        self.partition = partition
        self.lattice = lattice


class BudgetExhausted(KmatchError):
    """Random greedy construction ran out of budget or capacity."""


class AbsorptionFailed(KmatchError):
    """A leftover k-set found no unused absorber."""


class BadFamily(KmatchError):
    """A supplied fractional-matching family violates its invariants."""


class TooLarge(KmatchError):
    """Instance exceeds a size cap: brute force, or explicit levels for decide."""


class BadParams(KmatchError):
    """Generator parameters are inconsistent."""


class Unsatisfiable(KmatchError):
    """Generator could not meet the requested degree floor within budget."""
