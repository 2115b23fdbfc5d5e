"""Size guard for the exponentially growing enumerations.

Vertex counts grow like (2n)!/n!, so n=6 already means 665,280 vertices.
Enumerating operations refuse to run above a configurable cap instead of
silently grinding; the cap can be raised per call (``max_n=``) or globally
through the ``PA_MAX_N`` environment variable.
"""

import os

DEFAULT_MAX_N = 6
ENV_VAR = "PA_MAX_N"


class ResourceCapError(RuntimeError):
    """An enumeration was asked to run above the configured size cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"n={n} exceeds the enumeration cap {cap}; "
            f"pass max_n or set {ENV_VAR} to override"
        )
        self.n = n
        self.cap = cap


def resource_cap(max_n: int | None = None) -> int:
    """The effective cap: explicit argument, else environment, else default.

    Raises ValueError, naming the source, when the cap is not an integer of
    at least 1.
    """
    if max_n is not None:
        source, cap = "max_n", max_n
    else:
        value = os.environ.get(ENV_VAR)
        if value is None:
            return DEFAULT_MAX_N
        try:
            cap = int(value)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {value!r}") from None
        source = ENV_VAR
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    return cap


def check_n(n: int) -> None:
    """Refuse n below 1: the labels 0..n must number at least two."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def check_cap(n: int, max_n: int | None = None) -> None:
    cap = resource_cap(max_n)
    if n > cap:
        raise ResourceCapError(n, cap)
