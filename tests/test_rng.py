import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from reference import box_muller_normals

import sparsedyn.rng as rng_module
from sparsedyn.errors import ConstructionError
from sparsedyn.generate import GenSpec, gen_random_system
from sparsedyn.rng import CounterRng, derive_seed
from sparsedyn.simulate import simulate_continuous


def test_same_seed_same_stream():
    a = CounterRng(123456789).normals(1000)
    b = CounterRng(123456789).normals(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = CounterRng(1).uniforms(100)
    b = CounterRng(2).uniforms(100)
    assert not np.array_equal(a, b)


def test_uniform_blocks_are_counter_based():
    # Splitting a uniform request into blocks consumes the same raw words.
    r1, r2 = CounterRng(7), CounterRng(7)
    split = np.concatenate([r1.uniforms(13), r1.uniforms(29)])
    assert np.array_equal(split, r2.uniforms(42))


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
    rng = CounterRng(17)
    draws = [rng.below(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    rng2 = CounterRng(17)
    assert draws[:50] == [rng2.below(7) for _ in range(50)]


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        CounterRng(0).below(0)


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
    assert a.raw(np.int32(3)).tolist() == b.raw(3).tolist()
    assert a.normals(np.int64(5)).tobytes() == b.normals(5).tobytes()
    assert a.normal_matrix(np.int64(2), np.uint8(3)).tobytes() == b.normal_matrix(2, 3).tobytes()
    assert a.below_each([np.int64(7), np.uint16(3)]) == b.below_each([7, 3])
    assert a.position == b.position
    assert derive_seed(np.int64(5), np.int32(-2)) == derive_seed(5, 2**64 - 2)
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=3))
    path = simulate_continuous(params, np.float64(0.05), np.int64(30), seed=np.int64(-9))
    assert path.eta == 0.05
    assert path.x.tobytes() == simulate_continuous(params, 0.05, 30, seed=-9).x.tobytes()


def test_position_tracks_consumption():
    rng = CounterRng(1)
    rng.uniforms(10)
    assert rng.position == 10
    rng.normals(3)  # two pairs -> 4 raw words
    assert rng.position == 14


# ------------------------------------------------------ normal stream

_B = rng_module._BLOCK
_T = rng_module._BLOCKS_PER_THREAD
_P = 2 * _T  # fewest blocks a draw shares between threads
# Draw sizes at and around the block size and the point where a draw is
# split over CPUs (a draw of n normals has ceil(n / 2) pairs), odd sizes
# that drop the last sine, and one phase_sweep trajectory (48,807 x 42).
_SIZES = sorted({0, 1, 2, 3, 5, 2 * _B - 2, 2 * _B - 1, 2 * _B, 2 * _B + 1, 2 * _B + 2,
                 2 * _P * _B - 1, 2 * _P * _B, 2 * _P * _B + 1, 2 * _P * _B + 3,
                 6 * _B + 1, 131071, 131072, 131073, 262145, 1000001, 2049894})


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_normals_match_box_muller_reference(seed):
    # Bit for bit against the full-length formula, with one generator
    # drawing every size in turn, so each draw starts mid-stream.
    rng = CounterRng(seed)
    rng.raw(1)
    for n in _SIZES:
        start = rng.position
        got = rng.normals(n)
        assert got.shape == (n,)
        assert got.tobytes() == box_muller_normals(seed, start, n).tobytes(), n
        assert rng.position == start + 2 * ((n + 1) // 2)


def test_normals_golden():
    # Pins the stream itself, so it cannot drift together with its oracle.
    assert [x.hex() for x in CounterRng(7).normals(5).tolist()] == [
        "-0x1.30c1f365d63e8p+0", "-0x1.5dbda157ee8d1p+1", "0x1.ac17c7ef1d694p-10",
        "-0x1.5dd9483d9aeb1p-1", "0x1.aeefb4641c28ap-1",
    ]


def _force_cpus(monkeypatch, cpus):
    """Let the process run on ``cpus`` CPUs, under no cgroup CPU quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(rng_module, "_CPU_MAX", os.devnull)


def _threads(monkeypatch):
    """Record, per call of the normal filler, its thread and the blocks it
    claims."""
    calls = []
    fill = rng_module._fill_normals

    def recorded(key, first, out, claim):
        blocks = []

        def noted():
            block = claim()
            if block is not None:
                blocks.append(block)
            return block

        calls.append((threading.get_ident(), blocks))
        fill(key, first, out, noted)

    monkeypatch.setattr(rng_module, "_fill_normals", recorded)
    return calls


@pytest.mark.parametrize("n", [2049894, 2 * _P * _B + 1, 2 * _P * _B - 1, 2 * _B + 1, 7])
def test_normals_same_bytes_on_any_number_of_cpus(monkeypatch, n):
    draws, fills = {}, {}
    for cpus in (1, 3):
        _force_cpus(monkeypatch, cpus)
        calls = _threads(monkeypatch)
        rng = CounterRng(11)
        rng.raw(3)
        draws[cpus] = rng.normals(n).tobytes()
        monkeypatch.undo()
        fills[cpus] = calls
    assert draws[1] == draws[3]
    blocks = -(-((n + 1) // 2) // _B)
    workers = min(3, blocks // _T) if blocks >= _P else 1
    assert len(fills[1]) == 1
    # One filler per thread, never more than CPUs or blocks, and every
    # block claimed exactly once.
    assert len(fills[3]) == len({thread for thread, _ in fills[3]}) == workers
    for calls in fills.values():
        assert sorted(b for _, claimed in calls for b in claimed) == list(range(blocks))


def test_normals_with_more_threads_than_cores(monkeypatch):
    # Eight threads on any host, switching as often as the interpreter
    # allows: each block is claimed once and written to its own slices of
    # the output, so no byte moves.
    _force_cpus(monkeypatch, 8)
    n = 2 * 8 * _P * _B + 5
    want = box_muller_normals(13, 0, n).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert CounterRng(13).normals(n).tobytes() == want
    finally:
        sys.setswitchinterval(interval)


def test_normals_cpu_count_fallback(monkeypatch):
    # Without sched_getaffinity the number of CPUs comes from os.cpu_count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(rng_module, "_CPU_MAX", os.devnull)
    calls = _threads(monkeypatch)
    n = 2 * 3 * _P * _B
    assert CounterRng(5).normals(n).tobytes() == box_muller_normals(5, 0, n).tobytes()
    assert len(calls) == 3


@pytest.mark.parametrize("cpu_max, cpus", [
    ("max 100000\n", 3), ("200000 100000\n", 2), ("250000 100000\n", 2),
    ("50000 100000\n", 1), ("800000 100000\n", 3), (None, 3),
], ids=["no-quota", "two", "two-and-a-half", "half", "above-affinity", "no-cgroup-v2"])
def test_normals_threads_capped_by_cgroup_quota(monkeypatch, tmp_path, cpu_max, cpus):
    # A container may be given fewer CPUs of time than it may run on; a
    # draw then starts no more threads than whole CPUs of its quota.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(rng_module, "_CPU_MAX", str(path))
    calls = _threads(monkeypatch)
    n = 2 * 3 * _P * _B
    assert CounterRng(5).normals(n).tobytes() == box_muller_normals(5, 0, n).tobytes()
    assert len(calls) == cpus


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
    assert mat.tobytes() == box_muller_normals(3, 0, 7007).tobytes()
    assert rng.position == 7008


@pytest.mark.parametrize("draw, message", [
    (lambda r: r.normals(-1), "n must be at least 0, got -1"),
    (lambda r: r.normals(-2), "n must be at least 0, got -2"),
    (lambda r: r.raw(-1), "n must be at least 0, got -1"),
    (lambda r: r.uniforms(-1), "n must be at least 0, got -1"),
    (lambda r: r.normal_matrix(-1, 3), "rows must be at least 0, got -1"),
    (lambda r: r.normal_matrix(3, -1), "cols must be at least 0, got -1"),
    (lambda r: r.normal_matrix(-2, -3), "rows must be at least 0, got -2"),
    # These ended in a bare TypeError, and True drew two words.
    (lambda r: r.normals(2.5), "n must be an integer, got 2.5"),
    (lambda r: r.normals(True), "n must be an integer, got True"),
    (lambda r: r.raw("3"), "n must be an integer, got '3'"),
    (lambda r: r.normal_matrix(2.0, 3), "rows must be an integer, got 2.0"),
], ids=["normals-1", "normals-2", "raw-1", "uniforms-1", "matrix-rows", "matrix-cols",
        "matrix-both", "normals-float", "normals-bool", "raw-str", "matrix-float"])
def test_negative_sizes_rejected_without_consuming(draw, message):
    rng = CounterRng(9)
    rng.raw(2)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        draw(rng)
    assert rng.position == 2


# ------------------------------------------------ draws into a given array


@pytest.mark.parametrize("cpus", [1, 3])
def test_normals_into_out_match_a_fresh_draw(monkeypatch, cpus):
    # Every size of the stream tests, on one CPU and shared by three
    # threads: the same bytes and the same words consumed as normals(n).
    _force_cpus(monkeypatch, cpus)
    fresh, into = CounterRng(31), CounterRng(31)
    fresh.raw(5)
    into.raw(5)
    for n in _SIZES:
        want = fresh.normals(n)
        out = np.full(n, np.nan)
        assert into.normals(n, out=out) is out
        assert out.tobytes() == want.tobytes(), n
        assert into.position == fresh.position


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
    rng.raw(2)
    with pytest.raises(ConstructionError, match="out must be"):
        rng.normals(12, out=out)
    assert rng.position == 2


def test_odd_normal_draw_makes_no_second_full_length_array(monkeypatch):
    # An odd draw drops its last sine without a second copy of the draw:
    # into a given array it needs only the block buffers (1.25 MB), and a
    # fresh draw allocates its result once.
    _force_cpus(monkeypatch, 1)
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
    singles = [one_by_one.below(k) for k in bounds]
    together = CounterRng(19)
    assert together.below_each(bounds) == singles
    assert together.position == one_by_one.position == len(bounds)


def test_below_each_rejects_a_bound_without_consuming():
    # The float bound returned 1.5, a value that is not an integer.
    rng = CounterRng(19)
    for bounds, message in (([3, 0, 2], "k must be at least 1, got 0"),
                            ([2.5], "k must be an integer, got 2.5"),
                            ([3, True], "k must be an integer, got True")):
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            rng.below_each(bounds)
    assert rng.position == 0


@pytest.mark.parametrize("size", [0, 1, 2, 17])
def test_shuffle_draws_as_one_below_per_swap(size):
    # The Fisher-Yates swaps of one pass are the word-by-word draws of
    # below(i + 1), i from the last index down to 1.
    items = list(range(size))
    rng = CounterRng(29)
    rng.shuffle(items)
    want = list(range(size))
    ref = CounterRng(29)
    for i in range(size - 1, 0, -1):
        j = ref.below(i + 1)
        want[i], want[j] = want[j], want[i]
    assert items == want
    assert rng.position == ref.position == max(size - 1, 0)
