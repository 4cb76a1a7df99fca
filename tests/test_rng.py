import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from sparsedyn.errors import ConstructionError
from sparsedyn.generate import GenSpec, gen_random_system
from sparsedyn.rng import CounterRng, derive_seed
from sparsedyn.simulate import simulate_continuous


def _untouched(rng, seed):
    """Whether ``rng``'s next draw is a fresh ``CounterRng(seed)``'s first,
    that is whether nothing was drawn from it yet."""
    return rng.normals(3).tobytes() == CounterRng(seed).normals(3).tobytes()


def test_same_seed_same_stream():
    a = CounterRng(123456789).normals(1000)
    b = CounterRng(123456789).normals(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = CounterRng(1).uniforms(100)
    b = CounterRng(2).uniforms(100)
    assert not np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = CounterRng(99).uniforms(200000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1 / 12) < 0.005


def test_normal_moments():
    z = CounterRng(5).normals(200001)
    assert np.isfinite(z).all()
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # symmetry of tails
    assert abs((z > 1.0).mean() - (z < -1.0).mean()) < 0.005


def test_normal_matrix_matches_flat_draw():
    flat = CounterRng(11).normals(12)
    mat = CounterRng(11).normal_matrix(3, 4)
    assert np.array_equal(mat, flat.reshape(3, 4))


def test_below_bounds_and_determinism():
    draws = CounterRng(17).below_each([7] * 2000)
    assert min(draws) == 0 and max(draws) == 6
    assert draws[:50] == CounterRng(17).below_each([7] * 50)


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        CounterRng(0).below_each([0])


def test_shuffle_is_permutation():
    rng = CounterRng(23)
    items = list(range(100))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_derive_seed_depends_on_all_parts():
    base = derive_seed(42, 0, 0)
    assert derive_seed(42, 0, 1) != base
    assert derive_seed(42, 1, 0) != base
    assert derive_seed(43, 0, 0) != base
    assert derive_seed(42, 0, 0) == base


# Pinned on the numpy uint64 implementation; the integer one must keep
# every value.  Inputs are taken modulo 2^64, with zero to three parts.
DERIVED_SEEDS = [
    ((0,), 0x0),
    ((1,), 0x1),
    ((-1,), 0xffffffffffffffff),
    ((2**64,), 0x0),
    ((2**64 + 5,), 0x5),
    ((2**70 - 3,), 0xfffffffffffffffd),
    ((-2**63,), 0x8000000000000000),
    ((0, 0), 0x48218226ff3cd4bf),
    ((42, 0, 0), 0x9ce0ef2b4732fb8d),
    ((42, 0, 1), 0xf95f80c001c7daa),
    ((42, 1, 0), 0x81813290be0774a1),
    ((43, 0, 0), 0x1e23fa4a8e6f79d0),
    ((-7, 3), 0x70d9d3a88b442ef9),
    ((7, -3), 0xcbf835d04fd90678),
    ((2**64 - 1, 2**64 - 1), 0x4650bc0eb3312e23),
    ((2**65, -2**65), 0x48218226ff3cd4bf),
    ((3601, 40, 7), 0xb4534ce291395e08),
    ((123456789, 2**64, -1, 0), 0x7ed78f4666e4268f),
    ((-1, -1, -1, -1), 0xf89e5a4dc3a9600c),
    ((11, 5), 0x5adfeec8bedb1ab9),
]


@pytest.mark.parametrize("inputs, seed", DERIVED_SEEDS)
def test_derive_seed_values_are_pinned(inputs, seed):
    assert derive_seed(*inputs) == seed
    assert type(derive_seed(*inputs)) is int


@pytest.mark.parametrize("call, message", [
    # Floats and strings ended in a bare TypeError, and a bool ran as 0 or 1.
    (lambda: CounterRng(0.5), "seed must be an integer, got 0.5"),
    (lambda: CounterRng(True), "seed must be an integer, got True"),
    (lambda: CounterRng("1"), "seed must be an integer, got '1'"),
    (lambda: derive_seed(1.5), "master must be an integer, got 1.5"),
    (lambda: derive_seed(True, 0), "master must be an integer, got True"),
    (lambda: derive_seed(1, 2.5), "part must be an integer, got 2.5"),
    (lambda: derive_seed(1, 0, False), "part must be an integer, got False"),
], ids=["rng-float", "rng-bool", "rng-str", "master-float", "master-bool", "part-float",
        "part-bool"])
def test_seeds_must_be_integers(call, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_scalars_give_the_stream_and_result_of_python_ones():
    # Seeds of any sign are taken modulo 2^64, as numpy or Python integers.
    a, b = CounterRng(np.uint64(2**64 - 1)), CounterRng(-1)
    assert a.uniforms(np.int32(3)).tobytes() == b.uniforms(3).tobytes()
    assert a.normals(np.int64(5)).tobytes() == b.normals(5).tobytes()
    assert a.normal_matrix(np.int64(2), np.uint8(3)).tobytes() == b.normal_matrix(2, 3).tobytes()
    assert a.below_each([np.int64(7), np.uint16(3)]) == b.below_each([7, 3])
    assert a.normals(4).tobytes() == b.normals(4).tobytes()
    assert derive_seed(np.int64(5), np.int32(-2)) == derive_seed(5, 2**64 - 2)
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=3))
    path = simulate_continuous(params, np.float64(0.05), np.int64(30), seed=np.int64(-9))
    assert path.eta == 0.05
    assert path.x.tobytes() == simulate_continuous(params, 0.05, 30, seed=-9).x.tobytes()


# ------------------------------------------------------ the stream itself


def test_normals_golden():
    # numpy's ziggurat on PCG64; numpy does not promise these values
    # across its versions (NEP 19).
    assert [x.hex() for x in CounterRng(7).normals(5).tolist()] == [
        "0x1.427a31c1ffc58p-10", "0x1.31ea59a5b303ep-2", "-0x1.18b7980d81558p-2",
        "-0x1.c7fba74b18102p-1", "-0x1.d19537e309692p-2",
    ], f"the normal stream changed under numpy {np.__version__}"


# SHA-256 of a normal, a bounded-integer and a shuffle draw, in turn from
# CounterRng(2**64 - 1), each as little-endian float64, under numpy 2.4.6.
STREAM_DIGEST = "f14ada5047e425dae5caedae50b614dd9ce4f76f4fef0ff4d48850e5e2661984"


def test_stream_digest_is_pinned():
    rng = CounterRng(2**64 - 1)
    items = list(range(50))
    normals = rng.normals(1001)
    below = rng.below_each(range(1, 200))
    rng.shuffle(items)
    digest = hashlib.sha256()
    for part in (normals, np.array(below), np.array(items)):
        digest.update(part.astype("<f8").tobytes())
    assert digest.hexdigest() == STREAM_DIGEST, (
        f"the random stream changed under numpy {np.__version__}; its digest was pinned "
        "under numpy 2.4.6, and every golden system, path and README artifact moves with it")


def test_chunked_draws_equal_one_draw():
    # Draws are sequential: chunks of a draw are the draw, also into given
    # arrays, so a path can be drawn and reduced chunk by chunk.
    want = CounterRng(3).normals(5101)
    chunks, into = CounterRng(3), CounterRng(3)
    drawn = np.concatenate([chunks.normals(k) for k in (1001, 4097, 3)])
    out = np.full(5101, np.nan)
    for lo, hi in ((0, 1001), (1001, 5098), (5098, 5101)):
        into.normals(hi - lo, out=out[lo:hi])
    assert drawn.tobytes() == want.tobytes() == out.tobytes()
    uniforms = CounterRng(7)
    split = np.concatenate([uniforms.uniforms(13), uniforms.uniforms(29)])
    assert split.tobytes() == CounterRng(7).uniforms(42).tobytes()


def test_normal_matrix_draws_through_normals_once(monkeypatch):
    calls = []
    normals = CounterRng.normals

    def counted(self, n):
        calls.append(n)
        return normals(self, n)

    monkeypatch.setattr(CounterRng, "normals", counted)
    rng = CounterRng(3)
    mat = rng.normal_matrix(1001, 7)
    assert calls == [7007]
    assert mat.shape == (1001, 7)
    assert mat.tobytes() == normals(CounterRng(3), 7007).tobytes()


@pytest.mark.parametrize("draw, message", [
    (lambda r: r.normals(-1), "n must be at least 0, got -1"),
    (lambda r: r.normals(-2), "n must be at least 0, got -2"),
    (lambda r: r.uniforms(-1), "n must be at least 0, got -1"),
    (lambda r: r.normal_matrix(-1, 3), "rows must be at least 0, got -1"),
    (lambda r: r.normal_matrix(3, -1), "cols must be at least 0, got -1"),
    (lambda r: r.normal_matrix(-2, -3), "rows must be at least 0, got -2"),
    # These ended in a bare TypeError, and True drew two words.
    (lambda r: r.normals(2.5), "n must be an integer, got 2.5"),
    (lambda r: r.normals(True), "n must be an integer, got True"),
    (lambda r: r.uniforms("3"), "n must be an integer, got '3'"),
    (lambda r: r.normal_matrix(2.0, 3), "rows must be an integer, got 2.0"),
], ids=["normals-1", "normals-2", "uniforms-1", "matrix-rows", "matrix-cols", "matrix-both",
        "normals-float", "normals-bool", "uniforms-str", "matrix-float"])
def test_negative_sizes_rejected_without_consuming(draw, message):
    rng = CounterRng(9)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        draw(rng)
    assert _untouched(rng, 9)


# ------------------------------------------------ draws into a given array

# Empty, tiny and odd sizes, and one phase_sweep trajectory (48,807 x 42).
_SIZES = (0, 1, 2, 3, 5, 1001, 65537, 2049894)


def test_normals_into_out_match_a_fresh_draw():
    # The same bytes, and the same stream after, as normals(n).
    fresh, into = CounterRng(31), CounterRng(31)
    fresh.normals(5)
    into.normals(5)
    for n in _SIZES:
        want = fresh.normals(n)
        out = np.full(n, np.nan)
        assert into.normals(n, out=out) is out
        assert out.tobytes() == want.tobytes(), n
    assert into.normals(3).tobytes() == fresh.normals(3).tobytes()


def test_normals_fill_a_two_dimensional_out_row_major():
    out = np.empty((7, 5))
    CounterRng(4).normals(35, out=out)
    assert out.tobytes() == CounterRng(4).normal_matrix(7, 5).tobytes()


@pytest.mark.parametrize("out", [
    np.empty(12, dtype=np.float32), np.empty(12, dtype=np.int64), np.empty(11), np.empty(13),
    np.empty(24)[::2], np.empty((3, 4), order="F"), np.empty((12, 2))[:, 0],
    np.frombuffer(bytes(96)), [0.0] * 12,
], ids=["float32", "int64", "short", "long", "strided", "fortran", "column", "read-only",
        "list"])
def test_normals_reject_a_bad_out_without_consuming(out):
    rng = CounterRng(9)
    with pytest.raises(ConstructionError, match="out must be"):
        rng.normals(12, out=out)
    assert _untouched(rng, 9)


def test_odd_normal_draw_makes_no_second_full_length_array():
    # A draw into a given array allocates nothing of its size, and a fresh
    # draw allocates its result once.
    n = 2049895
    out = np.empty(n)
    tracemalloc.start()
    try:
        CounterRng(2).normals(n, out=out)
        into_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        CounterRng(2).normals(n)
        fresh_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert into_peak < 0.25 * out.nbytes
    assert fresh_peak < 1.25 * out.nbytes


# --------------------------------------------------- bounded integers


def test_below_each_is_one_below_per_bound():
    bounds = [7, 1, 40, 2, 1000, 3]
    one_by_one = CounterRng(19)
    singles = [one_by_one.below_each([k])[0] for k in bounds]
    together = CounterRng(19)
    assert together.below_each(bounds) == singles
    assert together.normals(3).tobytes() == one_by_one.normals(3).tobytes()


def test_below_each_rejects_a_bound_without_consuming():
    # The float bound returned 1.5, a value that is not an integer.
    rng = CounterRng(19)
    for bounds, message in (([3, 0, 2], "k must be at least 1, got 0"),
                            ([2.5], "k must be an integer, got 2.5"),
                            ([3, True], "k must be an integer, got True")):
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            rng.below_each(bounds)
    assert _untouched(rng, 19)
