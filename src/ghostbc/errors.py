"""Exception hierarchy for the solver pipeline.

Every stage raises a subclass of :class:`GhostBcError`, so callers (CLI,
sweep driver) can distinguish numerical failures from programming errors.
"""

from __future__ import annotations


class GhostBcError(Exception):
    """Base class for all solver errors."""


class GeometryError(GhostBcError):
    """Grid / level-set configuration is unusable."""


class NodeOnBoundary(GeometryError):
    """A lattice node lies exactly on the zero level set."""


class EmptyInterior(GeometryError):
    """The level set encloses no lattice node."""


class ProjectionDiverged(GeometryError):
    """Closest-point iteration did not converge."""


class ZeroGradient(GeometryError):
    """Level-set gradient vanished at a projection iterate."""


class NoAxisIntersection(GeometryError):
    """Neither axis ray from a ghost crosses the boundary nearby."""


class InactiveMember(GhostBcError):
    """A stencil references a node outside the active set."""


class NotAdmissible(GhostBcError):
    """Constraint matrix is rank-deficient; stencil cannot represent the operator."""


class MissingNeighbor(GhostBcError):
    """An interior finite-difference row references an inactive node."""


class SingularMatrix(GhostBcError):
    """Sparse factorization broke down."""


class SolveFailed(GhostBcError):
    """Linear solve did not reach the residual tolerance."""


class DegenerateFit(GhostBcError):
    """Convergence-order fit is not well posed."""


class UnknownDomain(GhostBcError):
    """Requested benchmark name is not in the catalog."""


class ConfigError(GhostBcError):
    """Run configuration is invalid."""
