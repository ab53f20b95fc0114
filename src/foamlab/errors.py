"""Shared error taxonomy for foamlab.

Every module raises subclasses of :class:`FoamlabError` so the CLI can map
library failures onto a consistent exit-code scheme (input problems exit 2,
mathematical check failures exit 1).
"""


class FoamlabError(Exception):
    """Base class for all foamlab errors."""


class InputError(FoamlabError):
    """Malformed user input (bad web, bad move pattern, bad DSL text)."""


# ---------------------------------------------------------------------------
# polyring
# ---------------------------------------------------------------------------

class DivisionNotExact(FoamlabError):
    """Exact polynomial division was requested but a remainder is left."""


class WrongRing(FoamlabError):
    """Operation requires a different coefficient ring (e.g. a prime field)."""


class NotInSymmetricSubring(FoamlabError):
    """kill_equivariance applied to a polynomial that is not symmetric."""


class IndexOutOfRange(InputError):
    """A sequence (Witt/flat) was queried beyond its stored index range."""


# ---------------------------------------------------------------------------
# foamcore
# ---------------------------------------------------------------------------

class WebInvalid(InputError):
    """A web violates trivalence, flow, orientation or closedness."""


class PatternMismatch(InputError):
    """A basic move's pattern ids do not match the current web slice."""


class BoundaryMismatch(InputError):
    """Movie composition attempted between incompatible boundary webs."""


class SeamSignInconsistent(FoamlabError):
    """A separating seam circle carries inconsistent orientation bits.

    This indicates a convention bug (or a genuinely twisted gluing that the
    orientation bookkeeping cannot certify); it is surfaced rather than
    silently resolved.
    """


# ---------------------------------------------------------------------------
# foameval
# ---------------------------------------------------------------------------

class OddEuler(FoamlabError):
    """A bichrome surface has odd Euler characteristic: malformed complex."""


class NotPolynomial(FoamlabError):
    """A summed evaluation failed to be a polynomial (convention bug)."""


class NotSymmetric(FoamlabError):
    """A summed evaluation failed to be symmetric (convention bug)."""


class NotEquivariant(NotSymmetric):
    """A coloring's colored value is not its orbit representative's value
    with the pigments relabelled (convention bug)."""


class NonHomogeneous(FoamlabError):
    """Degree was requested for a foam with non-homogeneous decorations."""


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

class NonSphericalWithNu3(FoamlabError):
    """nu3 must vanish when the movie contains saddles."""


class TwoNotInvertible(FoamlabError):
    """A coefficient of 1/2 is required but 2 is not invertible in the ring."""


class CharTwoNonSpherical(FoamlabError):
    """The p-DG differential needs p > 2 on movies containing saddles."""


# ---------------------------------------------------------------------------
# statespace
# ---------------------------------------------------------------------------

class RankUnstable(FoamlabError):
    """Independent random specializations disagreed about a matrix rank."""


class NotWellDefined(FoamlabError):
    """An induced operator failed its kernel-stability certificate."""
