"""Parameter and grid containers, the parameter-range rules, and the two
array conventions, shared by all geometry modules.

Every module refuses a bad array through ``require``, which names the first
failing entry rather than printing the array, and freezes a shared or
recorded array through ``read_only``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

# Kernels must reproduce the spectral side at their check points to this
# relative accuracy, otherwise the kernel is rejected outright.
CALIBRATION_RESIDUAL_CAP = 1e-8


def require(ok, message, x, error=ParameterError):
    """Raise ``error(message.format(x))`` unless the boolean array ``ok`` holds
    everywhere; an array x is named by its first failing entry rather than
    printed whole, a scalar or 0-d x as it is."""
    if not ok.all():
        i = int(np.argmin(ok))
        named = x if np.ndim(x) == 0 else f"{np.asarray(x).flat[i]}, entry {i} of {np.size(x)}"
        raise error(message.format(named))


def read_only(array):
    """The array, made read-only in place: a cached table every caller shares,
    or a record's own copy."""
    array.flags.writeable = False
    return array


def mode_degrees(m):
    """A degree or an integer array of degrees, as an array; the degrees of
    spherical harmonics are ints >= 0."""
    degrees = np.asarray(m)
    if degrees.dtype.kind not in "iu":
        raise ParameterError(f"mode degree must be an int, got {m!r}")
    require(degrees >= 0, "mode degree must be >= 0, got {}", m)
    return degrees


def require_int(x, name):
    """Refuse x unless it is an int; a bool, an int to Python, is refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParameterError(f"{name} must be an int, got {x!r}")


def require_dimension(n, context="dimension n", least=1, most=None):
    """Refuse n unless it is an int with least <= n (<= most, if given): the
    one dimension rule, n >= 2 on the cylinder and n = 1 on the line."""
    require_int(n, "dimension n")
    if n < least:
        raise ParameterError(f"{context} needs n >= {least}, got n = {n}")
    if most is not None and n > most:
        raise ParameterError(f"{context} needs n <= {most}, got n = {n}")


def require_grid(length, shape):
    """The one grid rule: a finite positive length, and a 1-d shape whose size
    is a power of two >= 8, so the transforms always get a clean FFT length.
    Returns the length as a float."""
    length_value = float(length)
    if not math.isfinite(length_value) or length_value <= 0.0:
        raise ParameterError(f"grid length must be positive, got {length!r}")
    if len(shape) != 1 or shape[0] < 8 or shape[0] & (shape[0] - 1) != 0:
        raise ParameterError(
            f"grid size must be a power of two >= 8 on a 1-d array, got shape {shape}"
        )
    return length_value


def require_unit_order(s, context):
    """Refuse s outside 0 < s < 1, the range of the singular kernels, of the
    extension and of its constants; integer s, where the operator is local,
    falls outside it."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"{context} needs s in (0, 1), got s = {s}")


@dataclass(frozen=True)
class FracParams:
    """Dimension n and fractional order s of the operator family.

    The constructor pins down only n >= 1 and s > 0.  This module owns every
    stricter range, and the operations that need one call its rule:
    ``require_subcritical`` (s < n/2, for the scattering symbols and the
    critical exponents), ``require_noncritical`` (s != n/2),
    ``require_unit_order`` (0 < s < 1, for the kernels and the extension)
    and ``require_dimension``.  Several quantities, the sphere symbol among
    them, continue analytically past s = n/2 and remain useful there.
    """

    n: int
    s: float

    def __post_init__(self):
        require_dimension(self.n)
        s = float(self.s)
        if not math.isfinite(s) or s <= 0.0:
            raise ParameterError(f"order s must be finite and positive, got {self.s!r}")
        object.__setattr__(self, "s", s)

    @property
    def sigma(self):
        """Singularity exponent (n + 2s)/2 of the off-diagonal kernels."""
        return 0.5 * (self.n + 2.0 * self.s)

    def require_subcritical(self, context):
        if self.s >= 0.5 * self.n:
            raise ParameterError(
                f"{context} requires s < n/2, got n = {self.n}, s = {self.s}"
            )

    def require_noncritical(self, context):
        if abs(self.n - 2.0 * self.s) < 1e-12:
            raise ParameterError(
                f"{context} is undefined at s = n/2, got n = {self.n}, s = {self.s}"
            )

    @property
    def two_star(self):
        """Critical Sobolev exponent 2n / (n - 2s)."""
        self.require_subcritical("the critical exponent")
        return 2.0 * self.n / (self.n - 2.0 * self.s)

    @property
    def q(self):
        """Nonlinearity exponent (n + 2s) / (n - 2s) of the curvature equation."""
        self.require_subcritical("the curvature-equation exponent")
        return (self.n + 2.0 * self.s) / (self.n - 2.0 * self.s)


@dataclass(frozen=True)
class KernelSpec:
    """A normalized singular kernel on one of the model geometries.

    ``normalization`` multiplies the geometry's fixed kernel profile; it is
    the closed form C_(n,s) of the pulled-back Euclidean kernel.
    ``calibration`` records the check of that constant against the spectral
    side: the modes or frequencies probed, the relative residual at each,
    and their maximum ``residual``.
    """

    params: FracParams
    normalization: float
    calibration: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = float(self.normalization)
        if not math.isfinite(norm) or norm <= 0.0:
            raise ParameterError(
                f"kernel normalization must be positive, got {self.normalization!r}"
            )
        object.__setattr__(self, "normalization", norm)
        residual = self.calibration.get("residual")
        if residual is not None and not residual < CALIBRATION_RESIDUAL_CAP:
            raise ParameterError(
                f"kernel calibration residual {residual!r} exceeds "
                f"{CALIBRATION_RESIDUAL_CAP}"
            )


@dataclass(frozen=True)
class GridFunction:
    """Samples on the centred uniform grid x_j = -length/2 + j length/N.

    One container for the line, where the samples are taken as zero off the
    grid, and for one period of a periodic profile.  Its length and size
    follow ``require_grid``; the right endpoint length/2 is excluded,
    matching the transforms' periodic convention.
    """

    length: float
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # the record's own copy
        object.__setattr__(self, "length", require_grid(self.length, v.shape))
        require(np.isfinite(v), "values must be finite, got {}", self.values)
        object.__setattr__(self, "values", read_only(v))

    @property
    def size(self):
        return self.values.size

    @property
    def dx(self):
        return self.length / self.values.size

    @property
    def x(self):
        return -0.5 * self.length + self.dx * np.arange(self.values.size)

    @property
    def frequencies(self):
        """Angular frequencies 2 pi k / length of the real-FFT bins."""
        return 2.0 * math.pi * np.fft.rfftfreq(self.values.size, d=self.dx)
