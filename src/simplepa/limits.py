"""Size guard for the exponentially growing enumerations.

Vertex counts grow like (2n)!/n!, so n=6 already means 665,280 vertices.
Enumerating operations refuse to run above a configurable cap instead of
silently grinding; the cap can be raised per call (``max_n=``) or globally
through the ``PA_MAX_N`` environment variable.  The full check holds every
vertex point, then two whole graphs, then each dimension's faces in turn,
so it has a lower default cap of its own, raised the same two ways.
"""

import os

DEFAULT_MAX_N = 6
CHECK_MAX_N = 5
CHECK_WHY = " of the full check, which measured 76 s and 1,119 MB at n = 6"
ENV_VAR = "PA_MAX_N"


class ResourceCapError(RuntimeError):
    """An enumeration was asked to run above the configured size cap."""

    def __init__(self, n: int, cap: int, why: str = ""):
        super().__init__(
            f"n={n} exceeds the enumeration cap {cap}{why}; "
            f"pass --max-n (max_n from Python) or set {ENV_VAR} to override"
        )
        self.n = n
        self.cap = cap


def check_n(n: int) -> None:
    """Refuse n below 1: the labels 0..n must number at least two."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def check_cap(
    n: int, max_n: int | None = None, default: int = DEFAULT_MAX_N, why: str = ""
) -> None:
    """Refuse n above the cap: ``max_n``, else ``PA_MAX_N``, else ``default``,
    whose reason ``why`` then joins the message.

    Raises ValueError, naming the source, when a cap asked for is not an
    integer of at least 1.
    """
    if max_n is not None:
        source, cap = "max_n", max_n
    elif ENV_VAR in os.environ:
        value = os.environ[ENV_VAR]
        try:
            cap = int(value)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {value!r}") from None
        source = ENV_VAR
    else:
        if n > default:
            raise ResourceCapError(n, default, why)
        return
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    if n > cap:
        raise ResourceCapError(n, cap)
