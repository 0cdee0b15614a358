"""Exception types shared across the package."""


class EntnetError(Exception):
    """Base class for package-specific failures."""


class ConvergenceError(EntnetError):
    """A truncated series or root bracketing failed to converge."""


class SizeLimitError(EntnetError):
    """A request exceeded a documented size cap (oracle qubits, distillation enumeration)."""
