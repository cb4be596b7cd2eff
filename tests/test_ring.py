import pytest

from lee_anticodes.ring import (
    METRICS,
    ChainRingParams,
    column_weights,
    is_prime,
    residue_weight,
    vector_weight,
)

Z9 = ChainRingParams(3, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        ChainRingParams(4, 2)
    with pytest.raises(ValueError):
        ChainRingParams(1, 2)
    with pytest.raises(ValueError):
        ChainRingParams(3, 0)
    assert ChainRingParams(2, 3).modulus == 8
    assert Z9.modulus == 9


def test_valuation():
    assert Z9.valuation(0) == 2
    assert Z9.valuation(3) == 1
    assert Z9.valuation(4) == 0
    assert Z9.valuation(6) == 1
    assert Z9.valuation(9) == 2
    p27 = ChainRingParams(3, 3)
    assert [p27.valuation(x) for x in (0, 9, 18, 3, 1)] == [3, 2, 2, 1, 0]


def test_unit_inverse():
    for x in range(9):
        if x % 3 != 0:
            assert x * Z9.unit_inverse(x) % 9 == 1
    with pytest.raises(ValueError):
        Z9.unit_inverse(3)
    with pytest.raises(ValueError):
        Z9.unit_inverse(0)


def test_lee_weight_scalars():
    assert Z9.lee_weight(0) == 0
    assert Z9.lee_weight(5) == 4
    assert [Z9.lee_weight(x) for x in range(9)] == [0, 1, 2, 3, 4, 4, 3, 2, 1]


def test_lee_weight_symmetry_and_cap():
    for params in (Z9, ChainRingParams(5, 2), ChainRingParams(2, 3)):
        m = params.modulus
        for x in range(m):
            assert params.lee_weight(x) == params.lee_weight(-x)
            assert params.lee_weight(x) <= m // 2


def test_lee_weight_vector():
    assert vector_weight(Z9, (4, 5, 0), "lee") == 8
    assert vector_weight(Z9, (0, 0, 0), "lee") == 0


def test_hamming_weight():
    assert vector_weight(Z9, (0, 0, 0), "hamming") == 0
    assert vector_weight(Z9, (1, 2, 0), "hamming") == 2
    assert vector_weight(Z9, (4, 3, 0), "hamming") == 2


def test_hom_weight_scaled():
    assert Z9.hom_weight_scaled(0) == 0
    assert Z9.hom_weight_scaled(3) == 3
    assert Z9.hom_weight_scaled(6) == 3
    assert Z9.hom_weight_scaled(1) == 2
    assert Z9.hom_weight_scaled(4) == 2
    values = {Z9.hom_weight_scaled(x) for x in range(9)}
    assert values == {0, 2, 3}
    assert vector_weight(Z9, (3, 3, 0), "hom") == 6


def test_hom_weight_scaled_range():
    for params in (Z9, ChainRingParams(5, 2), ChainRingParams(2, 2)):
        p = params.p
        for x in range(params.modulus):
            assert params.hom_weight_scaled(x) in (0, p - 1, p)


def test_ideal_max_lee():
    assert Z9.ideal_max_lee(0) == 4
    assert Z9.ideal_max_lee(1) == 3
    assert ChainRingParams(5, 1).ideal_max_lee(0) == 2
    with pytest.raises(ValueError):
        Z9.ideal_max_lee(2)
    with pytest.raises(ValueError):
        Z9.ideal_max_lee(-1)


def test_ideal_max_lee_closed_form():
    for p, s in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 1), (401, 2)):
        params = ChainRingParams(p, s)
        profile = params.ideal_max_lee_profile
        assert profile == tuple((p**s - p**i) // 2 for i in range(s))
        direct = tuple(
            max(params.lee_weight(p**i * t) for t in range(p ** (s - i)))
            for i in range(s)
        )
        assert profile == direct
        assert all(profile[i] > profile[i + 1] for i in range(s - 1))


def test_odd_prime_guard():
    even = ChainRingParams(2, 2)
    with pytest.raises(ValueError):
        even.require_odd()
    with pytest.raises(ValueError):
        even.ideal_max_lee(0)
    assert even.lee_weight(3) == 1


def test_vector_weight_dispatch():
    vec = (3, 4, 0)
    assert vector_weight(Z9, vec, "lee") == 7
    assert vector_weight(Z9, vec, "hamming") == 2
    assert vector_weight(Z9, vec, "hom") == 5
    assert set(METRICS) == {"lee", "hamming", "hom"}
    with pytest.raises(ValueError):
        vector_weight(Z9, vec, "euclidean")
    with pytest.raises(ValueError):
        residue_weight(Z9, 0, "euclidean")


def test_every_metric_reduces_mod_p_s():
    # (9, -9, 18) is the zero vector of (Z/9)^3 in every metric.
    for metric in METRICS:
        assert vector_weight(Z9, (9, -9, 18), metric) == 0
        assert [residue_weight(Z9, x, metric) for x in (10, -8)] == [
            residue_weight(Z9, 1, metric)
        ] * 2


def test_column_weights_match_vector_weight():
    words = [(0, 0, 0), (3, 4, 0), (8, 6, 1), (4, 4, 4), (1, 0, 3)]
    columns = list(zip(*words))
    for params in (Z9, ChainRingParams(199, 2)):
        for metric in METRICS:
            assert column_weights(params, columns, metric) == [
                vector_weight(params, w, metric) for w in words
            ]


def test_weights_are_translation_invariant_differences():
    for metric in METRICS:
        for x in range(9):
            for y in range(9):
                diff = ((x - y) % 9,)
                direct = vector_weight(Z9, diff, metric)
                shifted = vector_weight(Z9, ((x + 2 - (y + 2)) % 9,), metric)
                assert direct == shifted


def test_is_prime_matches_trial_division():
    def trial(m):
        return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))

    assert [m for m in range(10**4) if is_prime(m) != trial(m)] == []
    # Strong pseudoprimes to several small bases, and primes near 2^64.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3)
    assert is_prime(2**64 - 59)


def test_params_refuse_p_from_2_64():
    ChainRingParams(2**64 - 59, 1)
    with pytest.raises(ValueError, match="below 2\\^64"):
        ChainRingParams(2**64 + 13, 1)


def test_modulus_stays_out_of_init_repr_equality_and_hash():
    assert repr(Z9) == "ChainRingParams(p=3, s=2)"
    assert Z9 == ChainRingParams(3, 2)
    assert Z9 != ChainRingParams(3, 3)
    assert hash(Z9) == hash(ChainRingParams(3, 2)) == hash((3, 2))
    with pytest.raises(TypeError):
        ChainRingParams(3, 2, 9)
