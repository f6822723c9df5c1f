"""Exception types shared across the package."""


class DessinsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2  # of the command line; 2 is an input error


# --- dessin parsing / validation ---

class MalformedInput(DessinsError):
    """The input text is not a well-formed dessin description."""


class NotAPermutation(DessinsError):
    """A cycle list does not describe a permutation of the darts."""


class Disconnected(DessinsError):
    """The two permutations do not act transitively on the darts."""


# --- Moebius arithmetic ---

class PoleEvaluation(DessinsError):
    """Derivative requested at the pole of the transformation."""


class DegenerateTriple(DessinsError):
    """Two of the three prescribed points coincide."""


class UnsupportedType(DessinsError):
    """No standard generators exist for this group type."""


# --- finite group construction ---

class InfiniteGroup(DessinsError):
    """Closure enumeration exceeded its element cap."""


class NumericalAmbiguity(DessinsError):
    """Two group elements are too close to separate reliably."""


class TrivialGroup(DessinsError):
    """The operation needs at least one non-identity element."""


class CyclicGroupUnsupported(DessinsError):
    """The construction is undefined for cyclic symmetry groups."""

    exit_code = 3


# --- metrics ---

class StencilOutOfDomain(DessinsError):
    """A finite-difference stencil point left the metric's domain."""


class GenusMismatch(DessinsError):
    """Sphere metric constructions need a genus-0 dessin."""

    exit_code = 4


# --- triangle mapping ---

class BranchViolation(DessinsError):
    """Argument lies in the open lower half-plane."""


class NoConvergence(DessinsError):
    """A Newton step did not lower the residual, or the steps ran out."""


class OutsideButterfly(DessinsError):
    """Point does not belong to the doubled triangle."""
