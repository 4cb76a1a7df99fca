"""Ground-truth system constructors.

Two families:

* a random sparse ensemble where each observed variable interacts with
  ``s`` random others and loads on exactly two latent factors, stabilized
  through Gershgorin diagonals;
* a deterministic structured example where every observed variable is
  driven by exactly one latent factor, which admits closed-form stationary
  covariances and is used for golden tests.

Generation is a pure function of the spec: the same seed reproduces the
same system bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import _json_doc, _json_matrix, json_text
from .errors import ConstructionError, DataError, require_count, require_real
from .model import SystemParams
from .rng import CounterRng

__all__ = [
    "GenSpec",
    "gen_random_system",
    "gen_illustrative",
    "system_to_json",
    "system_from_json",
]

_MAX_ASSIGN_ATTEMPTS = 100


@dataclass(frozen=True)
class GenSpec:
    """Free choices of the random ensemble generator.

    ``s`` counts off-diagonal nonzeros per row of ``A`` (the diagonal is
    the stabilizer and is set separately).  ``diag_margin`` is the slack
    added beyond the Gershgorin radius, which lower-bounds the stability
    margin of the output.  ``eta = 0`` builds a continuous-time system.
    """

    p: int
    r: int
    s: int
    seed: int
    diag_margin: float = 1.0
    eta: float = 0.0

    def __post_init__(self):
        for name, least in (("p", 1), ("r", 0), ("s", 0), ("seed", None)):
            object.__setattr__(self, name, require_count(getattr(self, name), name, least))
        if not self.s < self.p:
            raise ConstructionError("s must satisfy 0 <= s < p")
        if self.r > 0 and (2 * self.p) % self.r != 0:
            raise ConstructionError(
                f"r = {self.r} must divide 2p = {2 * self.p} for balanced "
                "latent assignment"
            )
        if self.r == 1:
            raise ConstructionError(
                "r = 1 is infeasible: each row needs two distinct latent indices"
            )
        require_real(self.diag_margin, "diag_margin", "positive")
        require_real(self.eta, "eta", "non-negative")


def _row_support(rng: CounterRng, p: int, row: int, s: int) -> list[int]:
    """s distinct off-diagonal column indices via partial Fisher-Yates."""
    cands = [j for j in range(p) if j != row]
    for t, j in enumerate(rng.below_each(range(len(cands), len(cands) - s, -1))):
        cands[t], cands[t + j] = cands[t + j], cands[t]
    return sorted(cands[:s])


def _balanced_latent_pairs(rng: CounterRng, p: int, r: int) -> list[tuple[int, int]]:
    """Assign each row two distinct latent indices, each latent index used
    exactly ``2p/r`` times, by shuffling the exact-degree multiset and
    repairing duplicate pairs with local swaps."""
    quota = 2 * p // r
    base = [k for k in range(r) for _ in range(quota)]
    for _ in range(_MAX_ASSIGN_ATTEMPTS):
        pool = list(base)
        rng.shuffle(pool)
        ok = True
        for i in range(p):
            if pool[2 * i] == pool[2 * i + 1]:
                for j in range(2 * i + 2, 2 * p):
                    if pool[j] != pool[2 * i]:
                        pool[2 * i + 1], pool[j] = pool[j], pool[2 * i + 1]
                        break
                else:
                    ok = False
                    break
        if ok:
            return [tuple(sorted((pool[2 * i], pool[2 * i + 1]))) for i in range(p)]
    raise ConstructionError(
        f"balanced latent assignment infeasible for p = {p}, r = {r}"
    )


def gen_random_system(spec: GenSpec) -> SystemParams:
    """Draw one system from the random sparse ensemble.

    Structure: each row of ``A`` has exactly ``spec.s`` off-diagonal
    nonzeros at uniform positions, each row of ``B`` exactly two nonzeros
    with every latent column receiving exactly ``2p/r`` rows, ``C = 0``,
    ``D`` diagonal.  Values are i.i.d. standard normal.  Diagonals of ``A``
    and ``D`` are set to minus the symmetrized off-diagonal Gershgorin
    radius of their joint row minus ``diag_margin``, which places every
    Gershgorin disk of the symmetrized joint drift in the open left
    half-plane and hence guarantees a stability margin of at least
    ``diag_margin``.
    """
    p, r, s = spec.p, spec.r, spec.s
    rng = CounterRng(spec.seed)

    a = np.zeros((p, p))
    for i in range(p):
        support = _row_support(rng, p, i, s)
        if support:
            a[i, support] = rng.normals(len(support))

    b = np.zeros((p, r))
    if r:
        pairs = _balanced_latent_pairs(rng, p, r)
        for i, (j1, j2) in enumerate(pairs):
            vals = rng.normals(2)
            b[i, j1] = vals[0]
            b[i, j2] = vals[1]

    c = np.zeros((r, p))
    d = np.zeros((r, r))

    # Symmetrized Gershgorin radii: 0.5 * (row + column) off-diagonal l1
    # mass of the joint matrix, which bounds the disk radius of
    # (joint + joint^T) / 2.  Diagonals do not enter the radii, so the two
    # blocks can be set independently.
    abs_a = np.abs(a)
    abs_b = np.abs(b)
    for i in range(p):
        mass = abs_a[i].sum() + abs_a[:, i].sum() + abs_b[i].sum()
        a[i, i] = -(0.5 * mass + spec.diag_margin)
    for k in range(r):
        d[k, k] = -(0.5 * abs_b[:, k].sum() + spec.diag_margin)

    return SystemParams(A=a, B=b, C=c, D=d, eta=spec.eta)


def gen_illustrative(p: int, r: int) -> SystemParams:
    """Structured example: every observed variable follows its own decay
    plus exactly one latent driver; latents decay independently.

    ``A = -I``, ``C = 0``, ``D = -I``; ``B`` is 0/1 with one 1 per row and
    ``p/r`` per column (columns orthogonal).  Continuous time (eta = 0).

    Under isotropic unit noise the stationary quantities have closed forms:
    ``P = I/2``, ``R = B^T/4``, ``Q = I/2 + BB^T/4``,
    ``L = r/(p+2r) BB^T`` (rank ``r``), ``mu = r``, ``alpha = 3r/sqrt(p)``,
    ``theta = 2/3`` (``1`` when ``p = r``) and stability margin
    ``1 - sqrt(p/r)/2``.  The margin is positive, so assumption A1 holds,
    only while ``p/r < 4``; it is 0 at ``p/r = 4`` and negative beyond.
    Acceptance criterion 1 checks these forms.
    """
    p, r = require_count(p, "p", 1), require_count(r, "r", 1)
    if p % r != 0:
        raise ConstructionError(f"r = {r} must divide p = {p}")
    group = p // r
    b = np.zeros((p, r))
    for i in range(p):
        b[i, i // group] = 1.0
    return SystemParams(
        A=-np.eye(p),
        B=b,
        C=np.zeros((r, p)),
        D=-np.eye(r),
        eta=0.0,
    )


def system_to_json(params: SystemParams, config: dict | None = None) -> str:
    """Serialize a system (and optional provenance config) to JSON."""
    doc = {
        "config": config or {},
        "p": params.p,
        "r": params.r,
        "eta": params.eta,
        "A": params.A.tolist(),
        "B": params.B.tolist(),
        "C": params.C.tolist(),
        "D": params.D.tolist(),
    }
    return json_text(doc)


def system_from_json(text: str) -> tuple[SystemParams, dict]:
    """Parse a system JSON document; returns (params, embedded config)."""
    doc = _json_doc(text, "system")
    try:
        p, r = require_count(doc["p"], "'p'", 1), require_count(doc["r"], "'r'", 0)
        shapes = {"A": (p, p), "B": (p, r), "C": (r, p), "D": (r, r)}
        blocks = {key: _json_matrix(doc[key], f"'{key}'", shape) for key, shape in shapes.items()}
        blocks["eta"] = float(require_real(doc["eta"], "'eta'"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"system JSON missing or malformed field: {exc}") from exc
    return SystemParams(**blocks), doc.get("config", {})
