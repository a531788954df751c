"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "WavetomoError",
    "DegeneratePointError",
    "DomainLookupError",
    "MissingAnchorError",
    "NodeAtOriginError",
    "SingularFrequencyError",
    "UnsupportedSizeError",
    "ManifestError",
]


class WavetomoError(Exception):
    """Base class for package-specific failures."""


class DegeneratePointError(WavetomoError, ValueError):
    """Raised where a transform is undefined, e.g. mu and nu both below threshold."""


class DomainLookupError(WavetomoError, ValueError):
    """A sampled Fresnel map lacks data that the density-matrix inversion needs.

    Either its X' window cuts a column (the edge samples hold more than a
    fixed fraction of the column's peak), or a ray nu/mu of the inversion
    falls outside its nu' range. Carries that nu' as ``point``, a 1-tuple,
    so callers can report it or enlarge the map.
    """

    def __init__(self, message: str, point: tuple[float, ...]):
        super().__init__(f"{message}: point {point}")
        self.point = point


class MissingAnchorError(WavetomoError, ValueError):
    """The psi and rho plane read-outs anchor on the nu=0 plane; none was supplied."""


class NodeAtOriginError(WavetomoError, ValueError):
    """The wavefunction vanishes at the origin, so the anchor value is unusable."""


class SingularFrequencyError(WavetomoError, ValueError):
    """The closed-form transform is singular at the requested frequency."""


class UnsupportedSizeError(WavetomoError, ValueError):
    """Dimension count outside the supported range for this operation."""


class ManifestError(WavetomoError, ValueError):
    """A data file's manifest line or column layout could not be parsed."""
