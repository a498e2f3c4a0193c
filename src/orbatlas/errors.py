"""Exception hierarchy shared by all orbatlas modules."""


class OrbAtlasError(Exception):
    """Base class for all orbatlas errors."""


class ConductorMismatchError(OrbAtlasError):
    """Two field elements live in cyclotomic fields of different conductors."""


class NotRealError(OrbAtlasError):
    """Sign requested for an element outside the real subfield."""


class DimensionMismatchError(OrbAtlasError):
    """Incompatible ambient dimensions."""


class NotSimilarityError(OrbAtlasError):
    """Affine map whose linear part is not a scalar multiple of a unitary."""


class PointOutsideDomainError(OrbAtlasError):
    """Point does not lie in the chart domain."""


class NoConjugatorError(OrbAtlasError):
    """No group element carries one embedding to the other."""


class NotUniqueError(OrbAtlasError):
    """More than one group element solves an equation that must have one solution."""


class OracleRefusedError(OrbAtlasError):
    """The refinement oracle did not identify two points it should identify."""


class AtlasMismatchError(OrbAtlasError):
    """Objects over different atlases were combined."""


class InvalidAtlasError(OrbAtlasError):
    """Atlas data violates a structural invariant."""


class NotComposableError(OrbAtlasError):
    """Arrows with t(first) != s(second) passed to the multiplication."""


class BoundaryMismatchError(OrbAtlasError):
    """2-cells whose boundary 1-cells do not match."""


class IllTypedError(OrbAtlasError):
    """A pasting diagram or law fixture is not well typed."""


class NotASubAtlasError(OrbAtlasError):
    """Claimed sub-atlas is not contained in the atlas."""


class NotEquivalentError(OrbAtlasError):
    """Common refinement requested for atlases without valid witnesses."""


class WitnessInvalidError(OrbAtlasError):
    """Equivalence witness fails validation."""


class UnsupportedPresentationError(OrbAtlasError):
    """Groupoid presentation outside the supported strategies."""


class UnsupportedParamsError(OrbAtlasError):
    """Gallery parameters outside the supported ranges."""


class ParseError(OrbAtlasError):
    """Malformed document."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
