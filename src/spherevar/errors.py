"""Exception hierarchy shared across the toolkit."""


class SphereVarError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SphereVarError):
    """Invalid builder or operation parameters."""


class MeshError(SphereVarError):
    """Mesh fails a validity requirement (closedness, orientation, areas)."""


class UnsupportedSurfaceError(SphereVarError):
    """Requested catalog entry or operation is outside the supported set."""


class ContractError(SphereVarError):
    """An operation precondition on the data (not the mesh) is violated."""


class SolverError(SphereVarError):
    """Eigen or linear solver failed to converge; the message states the residual."""
