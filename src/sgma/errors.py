"""Exception types shared across the package."""


class SgmaError(Exception):
    """Base class for package-specific failures."""


class DomainError(SgmaError):
    """A mathematically valid request evaluated outside its domain of validity."""


class NoBranchError(DomainError):
    """No usable branch over a base point: the fiber is empty, no branch is
    convex or has the requested index, or the branch is degenerate (caustic)."""


class MetricSingularError(DomainError):
    """The pull-back metric is degenerate (within tolerance) at the query point."""


class ConfigError(SgmaError):
    """Invalid run configuration (CLI/config-file layer)."""
