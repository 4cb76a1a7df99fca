"""Sample-path simulation and reduction to sufficient statistics.

Two samplers run one sampling core, the recursion
``X(i+1) = F X(i) + w(i)``; they differ only in ``F`` and the covariance
of the one-step increments ``w``:

* ``simulate_discrete`` iterates the discrete-time model directly, with
  ``F = I + eta * joint`` and isotropic increments of covariance ``eta I``;
* ``simulate_continuous`` subsamples the continuous-time flow at step
  ``eta``, with ``F = exp(eta * joint)`` and the increments drawn from
  either the exact flow-filtered covariance (``mode="exact"``, via the
  Van Loan block-exponential integral) or its Riemann-sum approximation
  over ``K`` sub-bins (``mode="binned"``, matching integration schemes that
  hold the driving noise constant within each bin).

The core runs the recursion as a two-level block scan in about
``3 sqrt(n)`` vectorised steps rather than n one-step products.  It
agrees with the one-step loop to about 1e-15 of the path's largest entry,
not bit for bit; runs with the same seed give bit-identical paths.

The solver never touches raw paths: ``sufficient_stats`` reduces a
trajectory to the two cross-moment matrices and the squared-increment sum
that determine the least-squares objective.  ``simulate_stats`` gives the
statistics of a continuous-time chain without its path: it runs the chain
in its noise basis, with no increment product, no path check and no
increment temporary.  The trajectory CSV layout lives here too; ``csvio``
handles the text.

``save_trajectory`` also writes a binary copy of the path beside every CSV
it writes to a regular file (``traj.csv.npy`` beside ``traj.csv``): one
``.npy`` record of the SHA-256 of the CSV bytes as written, ``eta`` and
``x``.  ``load_trajectory`` trusts the copy only while that digest matches
the CSV's bytes and otherwise parses the CSV, so the CSV stays the one
authority and the copy only saves the parse.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import decode_text, read_table, require_complete, table_blocks, write_text
from .errors import ConstructionError, DataError, NumericalError, require_count, require_real
from .linalg import (as_matrix, matrix_exponential, solve_lyapunov_continuous,
                     solve_lyapunov_discrete)
from .model import SystemParams
from .rng import CounterRng

__all__ = [
    "Trajectory",
    "SufficientStats",
    "simulate_discrete",
    "simulate_continuous",
    "simulate_stats",
    "exact_increment_covariance",
    "binned_increment_covariance",
    "sufficient_stats",
    "merge_stats",
    "trajectory_blocks",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "save_trajectory",
    "load_trajectory",
]

# Rows of normals turned into increments per matrix product (a 1.4 MB
# buffer at p+r = 42).
_CHUNK_ROWS = 4096


def _finite(a: np.ndarray) -> bool:
    """All entries finite, by NaN-propagating reductions (no temporary of ``a``'s size)."""
    return math.isfinite(a.min(initial=0.0)) and math.isfinite(a.max(initial=0.0))


@dataclass(frozen=True)
class Trajectory:
    """Observed sample path ``x(0..n)``, shape (n+1, p), at sampling step
    ``eta`` over a finite horizon ``eta n``; its finiteness check is the one
    check on a sampled path."""

    x: np.ndarray
    eta: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ConstructionError("trajectory needs at least two samples of shape (n+1, p)")
        if not _finite(x):
            raise ConstructionError("trajectory contains non-finite values")
        require_real(self.eta, "eta", "positive")
        object.__setattr__(self, "x", x)
        require_real(float(self.eta) * self.n, "the horizon eta * n")

    @property
    def n(self) -> int:
        """Number of transitions."""
        return self.x.shape[0] - 1

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SufficientStats:
    """Single-pass reduction of a trajectory.

    ``S1 = (1/n) sum x(i) x(i)^T`` and
    ``S2 = (1/(eta n)) sum (x(i+1) - x(i)) x(i)^T``; together with
    ``sq_increment_sum = sum ||x(i+1) - x(i)||^2`` they determine the
    least-squares objective and its gradient for any candidate drift.
    """

    S1: np.ndarray
    S2: np.ndarray
    n: int
    eta: float
    sq_increment_sum: float


def _initial_state(params: SystemParams, init, rng, stationary_cov) -> np.ndarray:
    """Starting joint state ``[x(0); u(0)]``: zeros, a draw from the
    stationary Gaussian (which removes burn-in), or the given vector."""
    m = params.p + params.r
    if isinstance(init, str):
        if init == "zero":
            return np.zeros(m)
        if init == "stationary":
            return np.linalg.cholesky(stationary_cov()) @ rng.normals(m)
        raise ConstructionError(
            f"unknown init {init!r} (expected 'zero', 'stationary' or a vector)")
    state = np.asarray(init, dtype=float)
    if state.shape != (m,) or not _finite(state):
        raise ConstructionError(f"init vector must be finite, of shape ({m},): [x(0); u(0)]")
    return state


def _sample(f: np.ndarray, n: int, rng: CounterRng, start: np.ndarray | None = None,
            noise=None, factor: np.ndarray | None = None) -> np.ndarray:
    """Run ``X(i+1) = f X(i) + w(i)`` for ``n`` steps; the one sampling core.

    Returns the (n+1, p+r) states, a view of the scan's array.  ``start``
    is ``X(0)`` (``None``: zeros).  The increments are the given (n, p+r)
    ``noise``, or standard normals ``z`` drawn from ``rng`` after any draws
    of the starting state: ``w = z @ factor.T``, or ``w = z`` itself when
    ``factor`` is ``None`` (the chain in its noise basis).  The normals are
    drawn straight into the state array and turned into increments there, a
    chunk of at most ``_CHUNK_ROWS`` rows at a time, so the path is the one
    array of its size.  The chunks differ in size by one row at most, so
    none is small enough for the BLAS to take another kernel (a lone tail
    row would go through a matrix-vector product): each row's bits are
    those of one product over all rows.

    The recursion runs as a two-level block scan (Blelloch 1990, "Prefix
    sums and their applications") over the n+1 rows, cut into blocks of
    ``b = isqrt(n+1)`` rows and padded with zero rows to whole blocks:

    1. every block's response to its own increments from a zero state
       before it, all blocks at once: b-1 steps;
    2. each block's true end state, carried from the previous block's
       with ``f^b``: one step per block;
    3. row j of every later block adds ``f^(j+1)`` times the previous
       block's end state: b-1 steps.

    That is about ``3 sqrt(n)`` vectorised steps instead of n.  Block 0
    starts from the starting state, so ``x(1) = f x(0) + w(0)`` as in the
    one-step recursion; later rows agree with it to about 1e-15 of the
    path's largest entry, not bit for bit.  Equal inputs give equal bits.
    An ``n`` that numpy cannot allocate is a ``ConstructionError``.

    ``f`` is stable and the start and ``noise`` finite, so the states get
    no check here.
    """
    n = require_count(n, "n", 1)
    m = f.shape[0]
    rows = n + 1
    b = math.isqrt(rows)
    nb = -(-rows // b)
    # The increments are written straight into the one padded state array.
    try:
        states = np.empty((nb * b, m))
    except (ValueError, MemoryError) as exc:  # numpy refuses the shape or its bytes
        raise ConstructionError(f"n = {n} samples of {m} states are more than numpy "
                                f"can allocate: {exc}") from exc
    states[0] = 0.0 if start is None else start
    states[rows:] = 0.0
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (n, m) or not _finite(noise):
            raise ConstructionError(f"noise must be finite, of shape ({n}, {m})")
        states[1:rows] = noise
    else:
        rng.normals(n * m, out=states[1:rows])
        if factor is not None:
            chunks = -(-n // _CHUNK_ROWS)
            edges = [1 + i * n // chunks for i in range(chunks + 1)]
            buf = np.empty((-(-n // chunks), m))
            for lo, hi in zip(edges, edges[1:]):
                np.matmul(states[lo:hi], factor.T, out=buf[:hi - lo])
                states[lo:hi] = buf[:hi - lo]
    blocks = states.reshape(nb, b, m)
    ends = blocks[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, b):
            blocks[:, j] += blocks[:, j - 1] @ f.T
        f_b = np.linalg.matrix_power(f, b)
        for k in range(1, nb):
            ends[k] += f_b @ ends[k - 1]
        f_j = f
        for j in range(b - 1):
            blocks[1:, j] += ends[:-1] @ f_j.T
            f_j = f_j @ f
    return states[:rows]


def simulate_discrete(
    params: SystemParams,
    n: int,
    seed: int = 0,
    noise: np.ndarray | None = None,
    init: str | np.ndarray = "zero",
) -> Trajectory:
    """Iterate ``X(i+1) = (I + eta*joint) X(i) + w(i)``, ``w ~ N(0, eta I)``.

    ``noise`` overrides the increments ``w`` with a finite (n, p+r)
    array (used by tests to inject specific increments).  ``init`` is the
    starting state: ``"zero"``, ``"stationary"`` (a draw from the
    stationary Gaussian, consuming p+r normals before the path noise), or
    the joint vector ``[x(0); u(0)]`` of length p+r.  ``params`` is stable
    by construction, so the iteration converges.
    """
    if params.eta <= 0:
        raise ConstructionError(f"discrete simulation needs params.eta > 0, got {params.eta:g}")
    m = params.p + params.r
    f = np.eye(m) + params.eta * params.joint()
    rng = CounterRng(seed)
    start = _initial_state(params, init, rng,
                           lambda: solve_lyapunov_discrete(params.joint(), params.eta))
    x = _sample(f, n, rng, start, noise, np.sqrt(params.eta) * np.eye(m))
    return Trajectory(x=x[:, :params.p], eta=params.eta)


def exact_increment_covariance(joint: np.ndarray, eta: float) -> np.ndarray:
    """Covariance ``G(eta) = int_0^eta e^{sM} e^{sM^T} ds`` of the exact
    one-step stochastic increment, via the Van Loan block exponential."""
    joint = as_matrix(joint, "joint", "square")
    require_real(eta, "eta", "positive")
    m = joint.shape[0]
    block = np.zeros((2 * m, 2 * m))
    block[:m, :m] = -joint
    block[:m, m:] = np.eye(m)
    block[m:, m:] = joint.T
    e = matrix_exponential(block * eta)
    g = e[m:, m:].T @ e[:m, m:]
    return 0.5 * (g + g.T)


def binned_increment_covariance(joint: np.ndarray, eta: float, bins: int) -> np.ndarray:
    """Covariance of the binned approximation of the one-step increment.

    Holding the driving noise constant on each of ``bins`` sub-intervals
    and flowing each bin's increment to the end of the step gives a sum
    ``sum_k e^{(eta - tau_k) M} dW_k`` with ``dW_k ~ N(0, (eta/bins) I)``
    and ``tau_k`` the right endpoint of bin ``k``, so the mixing matrices
    are ``e^{j eta M / bins}`` for ``j = 0 .. bins-1`` (the newest bin
    enters unfiltered).  The result is the left Riemann sum of the exact
    integral and converges to it at rate O(eta / bins).
    """
    bins = require_count(bins, "bins", 1)
    joint = as_matrix(joint, "joint", "square")
    require_real(eta, "eta", "positive")
    m = joint.shape[0]
    step = matrix_exponential(joint * (eta / bins))
    g = np.zeros((m, m))
    factor = np.eye(m)
    for _ in range(bins):
        g += factor @ factor.T
        factor = factor @ step
    g *= eta / bins
    return 0.5 * (g + g.T)


def simulate_continuous(
    params: SystemParams,
    eta: float,
    n: int,
    mode: str = "binned",
    bins: int = 10,
    seed: int = 0,
    noise: np.ndarray | None = None,
    init: str | np.ndarray = "zero",
) -> Trajectory:
    """Subsample the continuous-time flow at step ``eta``.

    Both modes share the deterministic flow ``X(i+1) = e^{eta M} X(i)``;
    they differ in the one-step noise covariance (exact flow integral vs.
    its ``bins``-bin Riemann approximation).  Increments are sampled
    through the Cholesky factor of that covariance, which reproduces the
    respective Gaussian law exactly.  ``noise`` overrides the increments
    with a finite (n, p+r) array (zeros give the noise-free flow).
    ``init`` is the starting state: ``"zero"``, ``"stationary"`` (a draw
    from the SDE's stationary covariance ``Q``), or the joint vector
    ``[x(0); u(0)]`` of length p+r.  Only the exact chain keeps ``Q``: the
    binned chain's own ``S = F S F^T + G_binned`` has observed variances a
    median 1.02x (eta = 0.05) to 1.04x (eta = 0.1) those of ``Q`` at p = 40,
    so a binned path from ``"stationary"`` still has a burn-in.  ``params``
    must be a continuous-time system (``params.eta = 0``); it is stable by
    construction, so its joint drift is Hurwitz.
    """
    f, chol = _flow(params, eta, mode, bins)
    rng = CounterRng(seed)
    start = _initial_state(params, init, rng, lambda: solve_lyapunov_continuous(params.joint()))
    x = _sample(f, n, rng, start, noise, chol)
    return Trajectory(x=x[:, :params.p], eta=eta)


def _flow(params: SystemParams, eta: float, mode: str, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The continuous-time chain at step ``eta``: its transition ``F =
    exp(eta M)`` and the lower Cholesky factor of its increment covariance."""
    if params.eta > 0:
        raise ConstructionError(f"continuous simulation needs params.eta = 0, got {params.eta:g}")
    require_real(eta, "eta", "positive")
    joint = params.joint()
    if mode == "exact":
        cov = exact_increment_covariance(joint, eta)
    elif mode == "binned":
        cov = binned_increment_covariance(joint, eta, bins)
    else:
        raise ConstructionError(f"unknown mode {mode!r} (expected 'exact' or 'binned')")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"increment covariance not positive definite: {exc}") from exc
    return matrix_exponential(joint * eta), chol


def simulate_stats(
    params: SystemParams,
    eta: float,
    n: int,
    mode: str = "binned",
    bins: int = 10,
    seed: int = 0,
) -> SufficientStats:
    """The sufficient statistics of ``simulate_continuous(params, eta, n,
    mode, bins, seed)`` from its zero start, without the path.

    With ``C`` the lower Cholesky factor of the increment covariance and
    ``x = C y``, the chain is ``y(i+1) = C^{-1} F C y(i) + z(i)``: it runs
    on the drawn normals ``z`` themselves (the same normals in the same
    order as the path sampler's, and no increment product).  ``C`` is lower
    triangular and the observed states come first, so ``x_obs(i) = C_p
    y_p(i)``, with ``C_p`` the leading p x p block of ``C`` and ``y_p`` the
    leading p states.  With sums over ``i < n`` of ``G = y_p(i) y_p(i)^T``
    and ``K = (y_p(i+1) - y_p(i)) y_p(i)^T``: ``S1 = C_p G C_p^T / n``,
    ``S2 = C_p K C_p^T / (eta n)`` and ``sq_increment_sum = tr(C_p D
    C_p^T)`` with ``D = y_p(n) y_p(n)^T - K - K^T`` (``y(0) = 0``).  ``K``
    is a difference of two sums of the states' size, so the statistics
    round like ``1e-16 / eta`` relative to each matrix's largest entry
    where :func:`sufficient_stats` of the path rounds like 1e-16.  The scan
    array is the one array of the path's size; statistics that overflow
    are a ``DataError``.
    """
    f, chol = _flow(params, eta, mode, bins)
    y = _sample(np.linalg.solve(chol, f @ chol), n, CounterRng(seed))[:, :params.p]
    n = y.shape[0] - 1
    c_p = chol[:params.p, :params.p]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = y[:-1].T @ y[:-1]
        cross = y[1:].T @ y[:-1] - gram
        s1 = c_p @ gram @ c_p.T / n
        s2 = c_p @ cross @ c_p.T / (eta * n)
        sq = float(np.sum((c_p @ (np.outer(y[-1], y[-1]) - cross - cross.T)) * c_p))
    if not (np.isfinite(s1).all() and np.isfinite(s2).all() and math.isfinite(sq)):
        raise DataError(f"sufficient statistics overflow: the chain's largest state is "
                        f"{np.abs(y).max():.3g} noise units; rescale the system")
    return SufficientStats(S1=0.5 * (s1 + s1.T), S2=s2, n=n, eta=eta, sq_increment_sum=sq)


def sufficient_stats(traj: Trajectory) -> SufficientStats:
    """Reduce a trajectory to its least-squares sufficient statistics.

    The increments are the one temporary of the path's size; they are
    squared in place for their sum.  Statistics that overflow are a
    ``DataError`` naming the data's largest magnitude.
    """
    xc = traj.x[:-1]
    n = traj.n
    with np.errstate(over="ignore", invalid="ignore"):
        dx = traj.x[1:] - xc
        s1 = xc.T @ xc / n
        s1 = 0.5 * (s1 + s1.T)
        s2 = dx.T @ xc / (traj.eta * n)
        sq = float(np.sum(np.square(dx, out=dx)))
    if not (np.isfinite(s1).all() and np.isfinite(s2).all() and math.isfinite(sq)):
        raise DataError(
            f"sufficient statistics overflow: the trajectory's largest |x| is "
            f"{np.abs(traj.x).max():.3g}; rescale the data")
    return SufficientStats(S1=s1, S2=s2, n=n, eta=traj.eta, sq_increment_sum=sq)


def merge_stats(parts: list[SufficientStats]) -> SufficientStats:
    """Merge the statistics of chunks of one trajectory, which share one
    ``eta`` exactly and one ``p``; transition counts weight the averages."""
    if not parts:
        raise ConstructionError("merge_stats needs at least one chunk")
    eta, shape = parts[0].eta, parts[0].S1.shape
    for part in parts:
        if part.eta != eta:
            raise ConstructionError("cannot merge statistics with different eta")
        as_matrix(part.S1, "a merged chunk's S1", shape)
    total = sum(part.n for part in parts)
    s1 = sum(part.S1 * part.n for part in parts) / total
    s2 = sum(part.S2 * part.n for part in parts) / total
    sq = float(sum(part.sq_increment_sum for part in parts))
    return SufficientStats(S1=0.5 * (s1 + s1.T), S2=s2, n=total, eta=eta, sq_increment_sum=sq)


def trajectory_blocks(traj: Trajectory, comments: list[str] | None = None) -> Iterator[str]:
    """A trajectory's CSV as :func:`csvio.table_blocks` streams it:
    optional '#' comment lines, then a ``t,x1..xp`` header and one row per
    sample with ``t = i * eta``; the path is never copied whole."""
    header = ["t"] + [f"x{j + 1}" for j in range(traj.p)]
    times = np.arange(traj.x.shape[0]) * traj.eta
    return table_blocks(header, [times, traj.x], comments)


def trajectory_to_csv(traj: Trajectory, comments: list[str] | None = None) -> str:
    """A trajectory's CSV text: the join of :func:`trajectory_blocks`."""
    return "".join(trajectory_blocks(traj, comments))


def trajectory_from_csv(text: str) -> Trajectory:
    """Parse the CSV format written by :func:`trajectory_to_csv`.

    Every cell must be a finite number.  The step is ``eta = t(1) - t(0)
    > 0``, and each ``t(i)`` must lie within ``1e-6 * eta`` of ``t(0) +
    i * eta`` as :func:`trajectory_blocks` computes it, so every grid it
    writes passes exactly, and so does a decimal grid; any other time
    column (a time that is not a finite number included) is a ``DataError``.
    """
    table = read_table(text)
    if table.header_line and table.header[0] != "t":
        raise DataError(f"line {table.header_line}: expected header 't,x1,...'")
    if len(table.lines) < 2:
        raise DataError("trajectory CSV needs a header and at least two rows")
    require_complete(table)
    times = table.values[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        eta = float(times[1] - times[0])
        grid = times[0] + np.arange(len(times)) * eta
        if not (eta > 0 and np.all(np.abs(times - grid) <= 1e-6 * eta)):
            raise DataError("time column must be a uniform, strictly increasing grid")
    return Trajectory(x=table.values[:, 1:], eta=eta)


def save_trajectory(path, traj: Trajectory, comments: list[str] | None = None) -> None:
    """Write ``traj``'s CSV to ``path`` block by block, then its sidecar.

    The CSV's bytes are those of :func:`trajectory_blocks`, hashed by
    :func:`csvio.write_text` as it writes them; a comment with a line break
    is a ``ValueError`` before either file exists.  :func:`trajectory_from_csv`
    parses every CSV that :func:`trajectory_blocks` writes to the same bits,
    so loading the sidecar gives what parsing the CSV gives.  The sidecar is
    written after the CSV is complete, when ``path`` is a regular file (a
    pipe cannot be read back).  Its path is written ``_CHUNK_ROWS`` rows at
    a time, never copied whole, and its bytes depend only on the trajectory
    and the CSV's digest.
    """
    path = Path(path)
    digest = write_text(path, trajectory_blocks(traj, comments))
    if not path.is_file():
        return
    with _sidecar(path).open("wb") as handle:
        np.lib.format.write_array_header_1_0(handle, {
            "descr": np.lib.format.dtype_to_descr(_record(traj.x.shape)),
            "fortran_order": False, "shape": ()})
        handle.write(digest + np.float64(traj.eta).tobytes())
        for start in range(0, traj.x.shape[0], _CHUNK_ROWS):
            handle.write(traj.x[start:start + _CHUNK_ROWS].tobytes())


def load_trajectory(path) -> Trajectory:
    """The trajectory in the CSV at ``path``.

    The file is read once and hashed.  When its sidecar holds that digest,
    the trajectory is built from the sidecar's record, with the
    ``Trajectory``'s own checks.  In any other case (no sidecar, a stale,
    corrupt or foreign one) the CSV is decoded and parsed by
    :func:`trajectory_from_csv`, with its errors.
    """
    data = Path(path).read_bytes()
    traj = _from_sidecar(_sidecar(path), hashlib.sha256(data).digest())
    return traj if traj is not None else trajectory_from_csv(decode_text(data, path))


def _sidecar(path) -> Path:
    """A trajectory CSV's binary copy: the CSV's name plus ``.npy``."""
    return Path(f"{path}.npy")


def _record(shape) -> np.dtype:
    """The sidecar's one record: the CSV's SHA-256, ``eta`` and ``x`` of ``shape``."""
    return np.dtype([("sha256", np.uint8, 32), ("eta", np.float64), ("x", np.float64, shape)])


def _from_sidecar(path: Path, digest: bytes) -> Trajectory | None:
    """The sidecar's trajectory when it matches ``digest``, else ``None``."""
    # The sidecar only saves a parse: whatever fails in reading it (a
    # missing, truncated or foreign file, another record, a non-finite
    # path), the CSV is parsed instead.  ``read_array`` takes the ``.npy``
    # format alone, where ``np.load`` would open a zip as an archive.
    try:
        with path.open("rb") as handle:
            record = np.lib.format.read_array(handle, allow_pickle=False)
        x = record["x"]
        if record.dtype != _record(x.shape) or record["sha256"].tobytes() != digest:
            return None
        return Trajectory(x=x, eta=float(record["eta"]))
    except Exception:
        return None
