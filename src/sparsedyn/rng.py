"""Deterministic, portable random number generation.

All randomness in this package flows through :class:`CounterRng`, a
counter-mode splitmix64 generator: output ``i`` is a bijective 64-bit mix
of ``seed + (i+1) * GOLDEN``.  Because each output depends only on the seed
and its index, blocks of any size can be produced with vectorized integer
arithmetic, and the stream is reproducible across platforms and processes
(no dependence on numpy's generator internals).

Normal variates use the Box-Muller transform on explicit 53-bit uniforms;
bounded integers use ``floor(u * k)``.  Both conventions are part of the
reproducibility contract: identical seeds yield bit-identical streams.
Large normal draws are computed in cache-sized blocks, in parallel over
the CPUs the process may use (capped by a cgroup CPU quota); since every output depends only on its
index, the split changes no bit of the stream.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConstructionError, require_count

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = float(2.0**-53)
_TWO_PI = 2.0 * np.pi
# Box-Muller pairs per block: the block's five working arrays (1.25 MB)
# stay in a 2 MB L2.
_BLOCK = 1 << 15
# Each thread of a draw gets at least this many blocks, so draws of fewer
# than twice as many run on the calling thread alone.  Measured on a 2-CPU
# VM: two threads lose at 2-3 blocks, tie at 4-5 and win from 6 on.
_BLOCKS_PER_THREAD = 3
# The cgroup v2 CPU quota of the process's cgroup namespace, "max" if none.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place: bijective avalanche mix of the
    64-bit words in ``z``; ``tmp`` is scratch of the same shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp
    return z


def _words(key: np.ndarray, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """In place: counters ``i`` in ``z`` become the stream words
    ``mix(key + i * GOLDEN)``; the one word generator."""
    z *= _GOLDEN
    z += key
    return _mix(z, tmp)


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from a master seed and a tuple of indices.

    Used to assign independent streams to grid points and trials by index,
    so results do not depend on scheduling order.  Each input is an
    integer of any sign, taken modulo 2^64.
    """
    state = np.array([require_count(master, "master") & _MASK], dtype=_U64)
    token = np.empty(1, dtype=_U64)
    tmp = np.empty(1, dtype=_U64)
    for part in parts:
        token[0] = require_count(part, "part") & _MASK
        token += _GOLDEN
        state ^= _mix(token, tmp)
        _mix(state, tmp)
    return int(state[0])


def _cpus() -> int:
    """CPUs this process may use: those it may run on, capped by a cgroup
    CPU quota (whole CPUs, at least one) when one is set."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()
        return max(1, min(cpus, int(quota) // int(period)))
    except (OSError, ValueError):  # no cgroup v2, or no quota ("max")
        return cpus


def _fill_normals(key: np.ndarray, first: int, out: np.ndarray, claim) -> None:
    """Fill the blocks that ``claim()`` hands out, until it returns None,
    of a draw of ``m = ceil(len(out) / 2)`` Box-Muller pairs whose first
    raw word has counter ``first``.  Pair ``j`` takes its radius from word
    ``first + j`` and its angle from word ``first + m + j``, and writes
    ``r cos`` to ``out[j]`` and ``r sin`` to ``out[m + j]``; an odd length
    drops the last sine.

    Works in five reused block-sized arrays and calls only numpy, which
    releases the GIL, so several threads can share one draw.
    """
    n = len(out)
    m = (n + 1) // 2
    size = min(_BLOCK, m)
    counters = np.arange(size, dtype=_U64)
    z = np.empty(size, dtype=_U64)
    tmp = np.empty(size, dtype=_U64)
    radius = np.empty(size)
    angle = np.empty(size)
    trig = tmp.view(np.float64)
    while (block := claim()) is not None:
        start = block * _BLOCK
        k = min(size, m - start)
        zk, tk, rk, ak, ck = z[:k], tmp[:k], radius[:k], angle[:k], trig[:k]
        # radius = sqrt(-2 log u1), u1 = ((w >> 11) + 1) / 2^53 in (0, 1]
        np.add(counters[:k], _U64(first + start), out=zk)
        _words(key, zk, tk)
        zk >>= _U64(11)
        np.add(zk, 1.0, out=rk, dtype=np.float64)
        rk *= _INV_2_53
        np.log(rk, out=rk)
        rk *= -2.0
        np.sqrt(rk, out=rk)
        # angle = 2 pi u2, u2 = (w >> 11) / 2^53 in [0, 1)
        np.add(counters[:k], _U64(first + m + start), out=zk)
        _words(key, zk, tk)
        zk >>= _U64(11)
        np.multiply(zk, _INV_2_53, out=ak, dtype=np.float64)
        ak *= _TWO_PI
        np.cos(ak, out=ck)
        np.multiply(rk, ck, out=out[start:start + k])
        np.sin(ak, out=ck)
        sines = min(k, n - m - start)
        np.multiply(rk[:sines], ck[:sines], out=out[m + start:m + start + sines])


def _claimer(blocks: int):
    """Hands out block indices 0..blocks-1, each once, to any thread."""
    pending = iter(range(blocks))
    lock = threading.Lock()

    def claim():
        with lock:
            return next(pending, None)

    return claim


class CounterRng:
    """Counter-mode splitmix64 stream with a fixed 64-bit seed."""

    def __init__(self, seed: int):
        self._key = np.array(require_count(seed, "seed") & _MASK, dtype=_U64)
        self._pos = 0

    @property
    def position(self) -> int:
        """Number of raw 64-bit words consumed so far."""
        return self._pos

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        n = require_count(n, "n", 0)
        z = np.arange(self._pos + 1, self._pos + n + 1, dtype=_U64)
        self._pos += n
        return _words(self._key, z, np.empty_like(z))

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) with 53-bit resolution."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """``n`` standard normal variates via Box-Muller.

        Consumes ``2 * ceil(n / 2)`` raw words: the first half of the block
        supplies radii (uniforms shifted into (0, 1] so log never sees 0),
        the second half angles; the cosine products come first in the
        output, then the sine products.

        ``out``, if given, receives the draw in row-major order and is
        returned: a C-contiguous float64 array of ``n`` entries, of any
        shape.  Its values are the same bits ``normals(n)`` would return,
        and no other array of the draw's size is made.  A wrong ``out``
        is a ``ConstructionError`` before any word is consumed.

        The pairs are computed in cache-sized blocks written straight into
        the output.  A draw of several blocks is shared by the calling
        thread and short-lived helper threads, one thread per CPU the
        process may use (capped by a cgroup CPU quota) and per three
        blocks.  Each thread takes the next unclaimed block until none is
        left, so a helper that starts late delays nothing, but one that is
        descheduled mid-block delays the call until it resumes.  Each value depends only on the seed and its index, so
        the stream is the same bit for bit however the blocks are shared.
        """
        n = require_count(n, "n", 0)
        if out is None:
            out = np.empty(n)
        elif (not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.size != n
              or not out.flags.c_contiguous or not out.flags.writeable):
            raise ConstructionError(
                f"out must be a writeable C-contiguous float64 array of {n} entries")
        flat = out.reshape(-1)
        m = (n + 1) // 2
        first = self._pos + 1
        self._pos += 2 * m
        blocks = -(-m // _BLOCK)
        claim = _claimer(blocks)
        workers = 1
        if blocks >= 2 * _BLOCKS_PER_THREAD:
            workers = min(_cpus(), blocks // _BLOCKS_PER_THREAD)
        if workers == 1:
            _fill_normals(self._key, first, flat, claim)
        else:
            with ThreadPoolExecutor(workers - 1) as pool:
                helpers = [pool.submit(_fill_normals, self._key, first, flat, claim)
                           for _ in range(workers - 1)]
                _fill_normals(self._key, first, flat, claim)
                for helper in helpers:
                    helper.result()
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal matrix filled row-major from one ``normals`` call."""
        rows, cols = require_count(rows, "rows", 0), require_count(cols, "cols", 0)
        return self.normals(rows * cols).reshape(rows, cols)

    def below(self, k: int) -> int:
        """One integer uniform on {0, ..., k-1}."""
        return self.below_each([k])[0]

    def below_each(self, bounds) -> list[int]:
        """One integer uniform on {0, ..., k-1} for each ``k`` in
        ``bounds``, from one ``uniforms`` call: word ``t`` gives
        ``floor(u_t * k_t)``, clamped against rounding up to ``k_t``."""
        bounds = [require_count(k, "k", 1) for k in bounds]
        return [min(int(u * k), k - 1) for u, k in zip(self.uniforms(len(bounds)).tolist(), bounds)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle (consumes ``len(items) - 1`` words)."""
        swaps = self.below_each(range(len(items), 1, -1))
        for i, j in zip(range(len(items) - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]
