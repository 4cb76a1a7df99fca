import hashlib
import json
import re

import numpy as np
import pytest

from sparsedyn.errors import ConstructionError
from sparsedyn.generate import (
    GenSpec,
    gen_illustrative,
    gen_random_system,
    system_from_json,
    system_to_json,
)
from sparsedyn.model import stability_margin, steady_state


def test_random_system_structure():
    spec = GenSpec(p=12, r=3, s=4, seed=7)
    params = gen_random_system(spec)
    # A: exactly s off-diagonal nonzeros per row, negative diagonal
    offdiag = params.A.copy()
    np.fill_diagonal(offdiag, 0.0)
    assert np.all((offdiag != 0).sum(axis=1) == spec.s)
    assert np.all(np.diag(params.A) < 0)
    # B: two nonzeros per row, 2p/r per column
    nz = params.B != 0
    assert np.all(nz.sum(axis=1) == 2)
    assert np.all(nz.sum(axis=0) == 2 * spec.p // spec.r)
    # C zero, D diagonal negative
    assert np.all(params.C == 0)
    assert np.all(params.D == np.diag(np.diag(params.D)))
    assert np.all(np.diag(params.D) < 0)


def test_random_system_stability_margin_over_seeds():
    margin = 1.0
    for seed in range(100):
        params = gen_random_system(GenSpec(p=8, r=2, s=2, seed=seed, diag_margin=margin))
        assert stability_margin(params) >= margin - 1e-9


def test_random_system_determinism_and_seed_sensitivity():
    spec = GenSpec(p=10, r=2, s=3, seed=123)
    a = gen_random_system(spec)
    b = gen_random_system(spec)
    assert np.array_equal(a.joint(), b.joint())
    c = gen_random_system(GenSpec(p=10, r=2, s=3, seed=124))
    assert not np.array_equal(a.joint(), c.joint())


def test_random_system_no_latents():
    params = gen_random_system(GenSpec(p=6, r=0, s=2, seed=1))
    assert params.r == 0
    assert params.B.shape == (6, 0)
    assert stability_margin(params) > 0


def test_genspec_rejects_bad_dimensions():
    with pytest.raises(ConstructionError):
        GenSpec(p=6, r=2, s=6, seed=0)  # s must be < p
    with pytest.raises(ConstructionError):
        GenSpec(p=7, r=3, s=2, seed=0)  # r must divide 2p
    with pytest.raises(ConstructionError):
        GenSpec(p=6, r=1, s=2, seed=0)  # two distinct latents impossible
    with pytest.raises(ConstructionError):
        GenSpec(p=6, r=2, s=2, seed=0, diag_margin=0.0)


def _spec(**kw):
    return lambda: GenSpec(**{"p": 6, "r": 2, "s": 2, "seed": 0, **kw})


@pytest.mark.parametrize("call, message", [
    # Floats, strings and gen_illustrative's True ended in a bare TypeError,
    # seed=True ran as seed 1, and p=True failed the s < p check instead.
    (_spec(p=6.0), "p must be an integer, got 6.0"),
    (_spec(p=True), "p must be an integer, got True"),
    (_spec(p="6"), "p must be an integer, got '6'"),
    (_spec(p=0), "p must be at least 1, got 0"),
    (_spec(r=2.0), "r must be an integer, got 2.0"),
    (_spec(r=-1), "r must be at least 0, got -1"),
    (_spec(s=2.0), "s must be an integer, got 2.0"),
    (_spec(s=-1), "s must be at least 0, got -1"),
    (_spec(seed=0.5), "seed must be an integer, got 0.5"),
    (_spec(seed=True), "seed must be an integer, got True"),
    (_spec(seed="0"), "seed must be an integer, got '0'"),
    (lambda: gen_illustrative(4.0, 2), "p must be an integer, got 4.0"),
    (lambda: gen_illustrative(4, True), "r must be an integer, got True"),
    (lambda: gen_illustrative("4", 2), "p must be an integer, got '4'"),
    (lambda: gen_illustrative(4, 0), "r must be at least 1, got 0"),
], ids=["p-float", "p-bool", "p-str", "p-0", "r-float", "r-negative", "s-float", "s-negative",
        "seed-float", "seed-bool", "seed-str", "illustrative-p-float", "illustrative-r-bool",
        "illustrative-p-str", "illustrative-r-0"])
def test_generator_counts_name_the_bad_input(call, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call()


def test_generators_take_numpy_integer_counts():
    spec = GenSpec(p=np.int64(6), r=np.int32(2), s=np.uint8(2), seed=np.int64(-3))
    assert spec == GenSpec(p=6, r=2, s=2, seed=-3)
    assert all(type(v) is int for v in (spec.p, spec.r, spec.s, spec.seed))
    assert np.array_equal(gen_random_system(spec).A,
                          gen_random_system(GenSpec(p=6, r=2, s=2, seed=-3)).A)
    assert np.array_equal(gen_illustrative(np.int64(4), np.int64(2)).B, gen_illustrative(4, 2).B)


def test_illustrative_structure():
    params = gen_illustrative(8, 2)
    assert np.array_equal(params.A, -np.eye(8))
    assert np.array_equal(params.D, -np.eye(2))
    assert np.all(params.C == 0)
    nz = params.B != 0
    assert np.all(nz.sum(axis=1) == 1)
    assert np.all(nz.sum(axis=0) == 4)
    assert set(np.unique(params.B)) == {0.0, 1.0}
    # columns orthogonal
    assert np.allclose(params.B.T @ params.B, 4 * np.eye(2))


def test_illustrative_max_row_l1_is_one():
    params = gen_illustrative(12, 3)
    assert np.max(np.sum(np.abs(params.B), axis=1)) == 1.0


def test_illustrative_p_equals_r_gives_identity():
    params = gen_illustrative(3, 3)
    assert np.array_equal(params.B, np.eye(3))


def test_illustrative_rejects_nondivisible():
    with pytest.raises(ConstructionError):
        gen_illustrative(7, 2)
    with pytest.raises(ConstructionError):
        gen_illustrative(4, 0)


def test_illustrative_steady_state_consistency():
    # The closed forms are exercised in detail in test_model; here only
    # the cheap structural consequences.
    params = gen_illustrative(4, 2)
    ss = steady_state(params)
    assert ss.Cmin > 0
    assert np.allclose(ss.P, 0.5 * np.eye(2), atol=1e-10)


def test_system_json_roundtrip():
    spec = GenSpec(p=5, r=2, s=2, seed=9, eta=0.05)
    params = gen_random_system(spec)
    text = system_to_json(params, config={"seed": 9})
    restored, config = system_from_json(text)
    assert config == {"seed": 9}
    assert restored.eta == params.eta
    assert np.array_equal(restored.joint(), params.joint())
    # deterministic serialization
    assert text == system_to_json(params, config={"seed": 9})


def test_system_json_rejects_garbage():
    from sparsedyn.errors import DataError

    with pytest.raises(DataError):
        system_from_json("not json")
    with pytest.raises(DataError):
        system_from_json(json.dumps({"p": 2, "r": 0}))


# Each value below used to be read through int(): a 1-observed system, or
# no latents.  The message names both counts and shows their values.
@pytest.mark.parametrize("field, value", [("p", 1.9), ("p", True), ("r", False), ("r", 0.0)])
def test_system_json_counts_must_be_json_integers(field, value):
    from sparsedyn.errors import DataError

    doc = {"p": 1, "r": 0, "eta": 0.0, "A": [[-1.0]], "B": [], "C": [], "D": []}
    assert system_from_json(json.dumps(doc))[0].p == 1
    doc[field] = value
    with pytest.raises(DataError, match=f"malformed field: 'p' and 'r' must be JSON ints, got "
                                        f"{doc['p']!r} and {doc['r']!r}$"):
        system_from_json(json.dumps(doc))


# The strings and booleans below used to be read through float() as their
# numbers, and -Infinity failed later as a ConstructionError.  The message
# names the field and the entry.
@pytest.mark.parametrize("field, value, message", [
    ("eta", "0.0", "'0.0' is not a JSON number"), ("eta", False, "False is not a JSON number"),
    ("A", [["-1"]], "'-1' is not a JSON number"), ("A", [[True]], "True is not a JSON number"),
    ("D", [None], "None is not a JSON number"),
    ("A", [[float("-inf")]], "-inf is not a finite number"),
], ids=["eta-string", "eta-bool", "A-string", "A-bool", "D-null", "A-Infinity"])
def test_system_json_entries_must_be_json_numbers(field, value, message):
    from sparsedyn.errors import DataError

    doc = {"p": 1, "r": 0, "eta": 0.0, "A": [[-1.0]], "B": [], "C": [], "D": []}
    assert system_from_json(json.dumps(doc))[0].eta == 0.0
    doc[field] = value
    with pytest.raises(DataError, match=f"malformed field: '{field}': {message}$"):
        system_from_json(json.dumps(doc))


def test_system_json_integers_beyond_float_or_the_digit_limit_are_data_errors():
    from sparsedyn.errors import DataError

    doc = {"p": 1, "r": 0, "eta": 0.0, "A": [[-(10**400)]], "B": [], "C": [], "D": []}
    with pytest.raises(DataError, match="malformed field: 'A': an integer beyond the float range$"):
        system_from_json(json.dumps(doc))
    # json.loads refuses an integer literal of more than 4300 digits.
    with pytest.raises(DataError, match="^invalid system JSON: Exceeds the limit"):
        system_from_json(json.dumps(doc).replace(str(10**400), "1" * 5000))


def test_system_json_rejects_unstable_drift():
    # A system file is checked like any other system, so it fails at load.
    from sparsedyn.errors import StabilityError

    doc = {"p": 1, "r": 0, "eta": 0.0, "A": [[0.1]], "B": [], "C": [], "D": []}
    with pytest.raises(StabilityError, match=r"not Hurwitz \(spectral abscissa 0.1\)$"):
        system_from_json(json.dumps(doc))


# sha256 of every entry of A, B, C, D (row-major, as float.hex, space
# separated) of gen_random_system, pinned before Fisher-Yates drew each
# pass's uniforms in one call: the draw order is part of the stream.
GOLDEN_SYSTEM_DIGESTS = {
    (40, 2, 3, 7): "cb9f0cb20d2eb38490be297ba53d0e815353a50de1a76a7879fa89c47372a138",
    (24, 8, 2, 1): "1c2616711e5a38cf8f63d043d9462854be2ddf66476daf46671c4ec06395482f",
    (12, 3, 5, 5): "5beaf6ae06996bbedcb8beca9e9df155093b494597ee948a513f5e6c58341bf2",
    (5, 2, 4, 9): "b4e4c8cb941b0d43af751de66ddd5a143c49eba151486019b50cf0deea615b59",
}


@pytest.mark.parametrize("p, r, s, seed", sorted(GOLDEN_SYSTEM_DIGESTS),
                         ids=lambda v: str(v))
def test_random_system_golden_digest(p, r, s, seed):
    # The README's system (p=40, r=2, s=3, seed 7) and three others: a
    # many-latent shuffle, a wide row support, and the largest s for p.
    params = gen_random_system(GenSpec(p=p, r=r, s=s, seed=seed))
    words = [float(v).hex() for m in (params.A, params.B, params.C, params.D) for v in m.ravel()]
    digest = hashlib.sha256(" ".join(words).encode()).hexdigest()
    assert digest == GOLDEN_SYSTEM_DIGESTS[(p, r, s, seed)]
