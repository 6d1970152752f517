"""Exception types shared across the package."""


class ModGridError(Exception):
    """Base class for all package-specific errors."""


class NotInvertible(ModGridError, ValueError):
    """Residue has no multiplicative inverse for the given modulus."""


class NonPrimeModulus(ModGridError, ValueError):
    """Operation requires a prime modulus."""


class DegeneratePair(ModGridError, ValueError):
    """Two supposedly distinct points coincide."""


class DegenerateInput(ModGridError, ValueError):
    """Point collection contains duplicates or is too small."""


class DegenerateParams(ModGridError, ValueError):
    """Fractional-linear parameters define a non-bijective map."""


class BadResidueClass(ModGridError, ValueError):
    """Modulus lies in the wrong residue class for this construction."""


class BoundExceeded(ModGridError, ValueError):
    """Input exceeds a configured size bound."""


class OutOfRange(ModGridError, ValueError):
    """Argument outside its valid range."""


class CheckpointMismatch(ModGridError, ValueError):
    """Checkpoint file does not match the requested search parameters."""
