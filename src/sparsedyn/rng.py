"""Deterministic random number generation.

All randomness in this package flows through :class:`CounterRng`, one
numpy ``Generator`` on the PCG64 bit generator (O'Neill 2014): ziggurat
normals (Marsaglia & Tsang 2000), numpy's bounded integers and shuffle.
``normals(a)`` then ``normals(b)`` give the values of one ``normals(a + b)``.

Contract: the same seed gives the same bits on the same numpy version.
numpy keeps its bit generators' raw streams stable, but not its
distributions' values across versions (NEP 19); the test suite pins a
digest of the stream, so a numpy upgrade that changes it fails loudly.
:func:`derive_seed` mixes child seeds with splitmix64 on Python integers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, require_count

_MASK = 2**64 - 1


def _mix(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from a master seed and a tuple of indices.

    Used to assign independent streams to grid points and trials by index,
    so results do not depend on scheduling order.  Each input is an
    integer of any sign, taken modulo 2^64.
    """
    state = require_count(master, "master") & _MASK
    for part in parts:
        state = _mix(state ^ _mix((require_count(part, "part") + 0x9E3779B97F4A7C15) & _MASK))
    return state


class CounterRng:
    """One numpy PCG64 ``Generator``, seeded with any integer modulo 2^64."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(require_count(seed, "seed") & _MASK))

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) with 53-bit resolution."""
        return self._gen.random(require_count(n, "n", 0))

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """``n`` standard normal variates.

        ``out``, if given, receives the draw in row-major order and is
        returned: a C-contiguous float64 array of ``n`` entries, of any
        shape.  Its values are the same bits ``normals(n)`` would return,
        and no other array of the draw's size is made.  A wrong ``out``
        is a ``ConstructionError`` before anything is drawn.
        """
        n = require_count(n, "n", 0)
        if out is None:
            return self._gen.standard_normal(n)
        if (not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.size != n
                or not out.flags.c_contiguous or not out.flags.writeable):
            raise ConstructionError(
                f"out must be a writeable C-contiguous float64 array of {n} entries")
        self._gen.standard_normal(out=out.reshape(-1))
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal matrix filled row-major from one ``normals`` call."""
        rows, cols = require_count(rows, "rows", 0), require_count(cols, "cols", 0)
        return self.normals(rows * cols).reshape(rows, cols)

    def below_each(self, bounds) -> list[int]:
        """One integer uniform on {0, ..., k-1} for each ``k`` in
        ``bounds``, from one ``integers`` call."""
        bounds = [require_count(k, "k", 1) for k in bounds]
        return self._gen.integers(0, bounds).tolist()

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._gen.shuffle(items)
