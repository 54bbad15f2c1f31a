"""Exception hierarchy shared across the package."""


class RelaxKVError(Exception):
    """Base class for all package errors."""


class ConfigError(RelaxKVError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class ContractViolationError(RelaxKVError):
    """An operation was called with arguments that break its contract (CLI exit code 3)."""


class DegeneratePrototypeError(RelaxKVError):
    """Key block has a (near-)zero mean; no direction can be extracted."""


class InvalidStepError(RelaxKVError):
    """Position plan requested for a step index too small for the memory layout."""


class WindowOverflowError(RelaxKVError):
    """Sliding-window plan exceeds the configured window capacity."""


class CacheMissError(RelaxKVError):
    """A frame referenced by the memory set is absent from the KV cache."""


class DegenerateFeatureError(RelaxKVError):
    """Clip feature with zero norm; cosine metrics undefined."""
