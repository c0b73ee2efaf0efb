"""Exception types shared by all modules."""


class BmwError(Exception):
    """Base class for all domain errors."""


class ContainmentError(BmwError):
    """Raised when a skew operation needs mu contained in lambda."""


class ShapeLevelMismatch(BmwError):
    """Raised when (shape, level) does not determine a valid defect."""


class RegimeMismatch(BmwError):
    """Raised when an operation needs a different parameter regime."""


class LevelMismatch(BmwError):
    """Raised when two labeled partitions live at different levels."""


class ResourceLimit(BmwError):
    """Raised when a degree/order cap is exceeded."""


class ZeroDenominator(BmwError):
    """Raised when an internal exact division or interpolation fails."""
