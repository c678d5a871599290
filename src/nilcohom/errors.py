"""Exception types shared across the package, and the one counter that
raises ResourceCapExceeded for every counted cap (``Budget``)."""


class NilcohomError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(NilcohomError, ValueError):
    """Vector or matrix sizes are incompatible."""


class NotLieAlgebra(NilcohomError, ValueError):
    """An operation requiring the Jacobi identity received a non-Lie bracket."""


class NotInVariety(NilcohomError, ValueError):
    """Input bracket violates the constraint (nilpotency step, SN vanishing)."""


class NotNumeric(NilcohomError, ValueError):
    """A computation that needs numbers received a table over polynomials
    (field "sym"); evaluate the family at a point first."""


class SingularMatrix(NilcohomError, ValueError):
    """A basis-change or solve step hit a non-invertible matrix."""


class NotDerivation(NilcohomError, ValueError):
    """The matrix handed to a semidirect extension is not a derivation."""


class TableError(NilcohomError, ValueError):
    """Structure-table text could not be parsed; carries line/column info."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class UnknownAlgebra(NilcohomError, LookupError):
    """Catalog lookup for a name that is not registered."""


class ExternalDataRequired(NilcohomError, LookupError):
    """The requested record is only available from the optional data pack."""


class ResourceCapExceeded(NilcohomError, RuntimeError):
    """A capped computation (walk, search, Buchberger) ran past its limits."""


class Budget:
    """A counted cap: ``charge()`` adds one to ``spent`` and raises
    ResourceCapExceeded(``message``) once the count passes ``limit``."""

    __slots__ = ("limit", "message", "spent")

    def __init__(self, limit, message):
        self.limit, self.message, self.spent = limit, message, 0

    def charge(self):
        self.spent += 1
        if self.spent > self.limit:
            raise ResourceCapExceeded(self.message)
