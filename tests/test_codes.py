import json
import random

import pytest

from lee_anticodes import codes as cd
from lee_anticodes import matrices
from lee_anticodes.anticodes import Anticode
from lee_anticodes.codes import Code
from lee_anticodes.oracle import enumerate_anticodes, enumerate_codes
from lee_anticodes.ring import METRICS, ChainRingParams, vector_weight

Z9 = ChainRingParams(3, 2)


def example_code() -> Code:
    return Code.from_rows(Z9, 3, [(1, 2, 0), (0, 3, 0)])


def test_structural_parameters():
    c = example_code()
    assert c.subtype == (1, 1)
    assert c.rank == 2
    assert c.free_rank == 1
    assert not c.is_free
    assert c.r_dimension_scaled == 3
    assert c.size == 27
    assert c.extended_subtype == (1, 1, 1)
    assert c.support_subtype == (2, 0, 1)


def test_free_code():
    c = Code.from_rows(Z9, 3, [(1, 0, 0)])
    assert c.is_free
    assert c.subtype == (1, 0)
    assert c.size == 9


def test_code_equality_is_structural():
    a = Code.from_rows(Z9, 3, [(1, 2, 0), (0, 3, 0)])
    b = Code.from_rows(Z9, 3, [(1, 5, 0), (0, 3, 0), (3, 6, 0)])
    assert a == b
    assert a.gen.rows == ((1, 2, 0), (0, 3, 0))


def test_zero_code():
    z = Code.zero(Z9, 3)
    assert z.subtype == (0, 0)
    assert z.extended_subtype == (0, 0, 3)
    assert z.support_subtype == (0, 0, 3)
    assert z.size == 1
    assert list(matrices.enumerate_elements(z.gen)) == [(0, 0, 0)]
    with pytest.raises(ValueError):
        z.min_distance("lee")


def test_full_code():
    f = Code.full(Z9, 3)
    assert f.subtype == (3, 0)
    assert f.support_subtype == (3, 0, 0)
    assert f.size == 729
    assert f.min_distance("hamming") == 1
    assert f.min_distance("lee") == 1


def test_dual_examples():
    assert Code.zero(Z9, 3).dual() == Code.full(Z9, 3)
    assert Code.full(Z9, 3).dual() == Code.zero(Z9, 3)
    d = example_code().dual()
    assert d.gen.rows == ((3, 3, 0), (0, 0, 1))
    assert d.subtype == (1, 1)
    assert d.rank == 2


def test_dual_is_involutive_on_census():
    for c in enumerate_codes(2, Z9):
        assert c.dual().dual() == c
        assert c.size * c.dual().size == 9**2


def test_contains_columns():
    c = example_code()
    vectors = [(1, 2, 0), (4, 5, 0), (1, 0, 0), (0, 0, 1)]
    columns = [list(column) for column in zip(*vectors)]
    assert c.contains_columns(columns) == [True, True, False, False]
    with pytest.raises(ValueError):
        c.contains_columns([[1], [2]])


def test_weight_extremes():
    c = example_code()
    assert c.max_weight("lee") == 8
    assert c.max_weight("hamming") == 2
    assert c.max_weight("hom") == 6
    free = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    assert free.max_weight("lee") == 7


def _per_word_range(code, metric):
    """The maximum and least nonzero weight, one `vector_weight` per word."""
    words = list(matrices.enumerate_elements(code.gen))
    top = max(vector_weight(code.params, w, metric) for w in words)
    nonzero = [vector_weight(code.params, w, metric) for w in words if any(w)]
    return top, min(nonzero, default=None)


def _random_codes(seed=19, per_ring=12):
    rng = random.Random(seed)
    for p, s in ((3, 2), (2, 3), (5, 2), (3, 3), (3, 1), (2, 2)):
        params = ChainRingParams(p, s)
        for _ in range(per_ring):
            n = rng.randint(1, 3)
            rows = [
                [rng.randrange(params.modulus) for _ in range(n)]
                for _ in range(rng.randint(1, 2))
            ]
            yield Code.from_rows(params, n, rows)
    yield Code.zero(Z9, 3)
    yield Code.from_rows(ChainRingParams(199, 2), 2, [(1, 12345)])


def test_weight_range_matches_per_word_weights():
    for code in _random_codes():
        ranges = cd.weight_range(code, METRICS)
        assert list(ranges) == list(METRICS)
        for metric in METRICS:
            assert ranges[metric] == _per_word_range(code, metric), (code, metric)


def test_small_code_distances():
    c = Code.from_rows(Z9, 3, [(0, 3, 0)])
    assert c.min_distance("lee") == 3
    assert c.max_weight("lee") == 3
    assert c.min_distance("hamming") == 1
    assert c.min_distance("hom") == 3


def test_hamming_support():
    assert cd.hamming_support(example_code()) == (0, 1)
    assert cd.hamming_support(Code.zero(Z9, 2)) == ()
    for c in enumerate_codes(2, Z9):
        support = cd.hamming_support(c)
        assert c.support_subtype[Z9.s] == c.n - len(support)


def test_type_partition():
    assert cd.type_partition(example_code()) == (2, 1)
    assert cd.type_partition(Code.full(Z9, 2)) == (2, 2)
    assert cd.type_partition(Code.zero(Z9, 2)) == ()


def test_code_anticode_bound_on_census():
    """If every anticode weight stays below the code distance, the scaled
    dimensions are complementary: s*k(C) + s*k(A) <= s*n."""
    s, n = Z9.s, 2
    codes = [c for c in enumerate_codes(n, Z9) if c.rank > 0]
    anticodes = enumerate_anticodes(n, Z9)
    checked = 0
    for metric in METRICS:
        for c in codes:
            d = c.min_distance(metric)
            for a in anticodes:
                amax = Code(a.module()).max_weight(metric)
                if amax < d:
                    checked += 1
                    assert (
                        c.r_dimension_scaled + Code(a.module()).r_dimension_scaled
                        <= s * n
                    )
    assert checked > 0


def test_analysis_record():
    record = cd.analysis_record(example_code())
    assert record["p"] == 3 and record["s"] == 2 and record["n"] == 3
    assert record["rank"] == 2
    assert record["free_rank"] == 1
    assert record["k_times_s"] == 3
    assert record["size"] == 27
    assert record["is_free"] is False
    assert record["subtype"] == [1, 1]
    assert record["support_subtype"] == [2, 0, 1]
    assert record["extended_subtype"] == [1, 1, 1]
    assert record["type_partition"] == [2, 1]
    assert record["hamming_support"] == [0, 1]
    assert record["generator_rows"] == [[1, 2, 0], [0, 3, 0]]
    assert record["max_weight"] == {"lee": 8, "hamming": 2, "hom": 6}
    assert record["min_distance"]["hamming"] == 1
    json.dumps(record)


def test_analysis_record_zero_code():
    record = cd.analysis_record(Code.zero(Z9, 2))
    assert record["min_distance"] == {m: None for m in METRICS}
    assert record["max_weight"] == {m: 0 for m in METRICS}


def test_anticode_module_round_trip():
    a = Anticode(Z9, (0, 1, 2))
    c = Code(a.module())
    assert c.support_subtype == (1, 1, 1)
