"""Bulk Philox keys and the re-keyed generator against SeedSequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt.streams import KeyedPhilox, SeedRecord

MASTER_SEEDS = (0, 2**32 - 1, 2**32, 2**70)


def _seed_sequence_key(master, key):
    return np.random.SeedSequence(master, spawn_key=key).generate_state(2, np.uint64)


@settings(max_examples=200, deadline=None)
@given(master=st.sampled_from(MASTER_SEEDS),
       prefix=st.lists(st.integers(0, 2**40), min_size=0, max_size=4),
       indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
       suffix=st.sampled_from([(), ("walk",), ("fbm",), ("fbm", 1)]))
def test_keys_match_seed_sequence(master, prefix, indices, suffix):
    rec = SeedRecord(master, tuple(prefix))
    keys = rec.philox_keys(np.array(indices), *suffix)
    assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
    for i, key in zip(indices, keys):
        expected = _seed_sequence_key(master, rec.derive(i, *suffix).key)
        np.testing.assert_array_equal(key, expected)


def test_key_of_an_unspawned_record():
    # an empty prefix and suffix still spawn-key the stream by the index
    keys = SeedRecord(202).philox_keys(np.array([0, 7]))
    for i, key in zip((0, 7), keys):
        np.testing.assert_array_equal(key, _seed_sequence_key(202, (i,)))


def test_keys_reject_out_of_range_indices():
    rec = SeedRecord(1)
    for bad in ([-1], [2**32], [[0, 1]]):
        with pytest.raises(ValueError):
            rec.philox_keys(np.array(bad, dtype=np.int64))
    assert rec.philox_keys(np.array([], dtype=np.int64)).shape == (0, 2)


@pytest.mark.parametrize("record", [
    SeedRecord(5), SeedRecord(2**70), SeedRecord(3).derive(2**40),
    SeedRecord(7).derive("supercritical", 9, 4, "fbm", 1)])
def test_a_records_own_key_is_its_generators(record):
    key = record.philox_key()
    assert key.shape == (1, 2) and key.dtype == np.uint64
    assert key[0].tolist() == record.generator().bit_generator.state["state"]["key"].tolist()
    np.testing.assert_array_equal(KeyedPhilox().at(key[0]).standard_normal(6),
                                  record.generator().standard_normal(6))


def test_record_dict_names_the_algorithms_and_round_trips():
    record = SeedRecord(7).derive("fbm", 3)
    d = record.to_dict()
    assert d == {"master_seed": 7, "key": [1, 3], "bit_generator": "Philox",
                 "normal_method": "ziggurat"}
    assert SeedRecord.from_dict(d) == record


@pytest.mark.parametrize("name, label", [("bit_generator", "PCG64"),
                                         ("normal_method", "inversion")])
def test_record_dict_of_another_algorithm_is_rejected(name, label):
    d = dict(SeedRecord(7).to_dict(), **{name: label})
    with pytest.raises(ValueError, match=f"{name} '{label}'"):
        SeedRecord.from_dict(d)


class TestKeyedPhilox:
    def _pairs(self):
        rec = SeedRecord(202).derive("subcritical", 8)
        reps = np.concatenate([np.arange(64), [4999, 2**32 - 1]])
        return [(rec.derive(int(r), "walk"), key)
                for r, key in zip(reps, rec.philox_keys(reps, "walk"))]

    def test_draws_match_fresh_generator(self):
        stream = KeyedPhilox()
        for record, key in self._pairs():
            for draw in (lambda g: g.binomial(2**14, 0.5),
                         lambda g: g.standard_normal(9),
                         lambda g: g.integers(0, 2, size=11),
                         lambda g: g.integers(0, 2**40, size=3),
                         lambda g: g.random(5)):
                np.testing.assert_array_equal(draw(stream.at(key)),
                                              draw(record.generator()))

    def test_keys_with_words_of_2_63_and_above(self):
        # both words >= 2^63, where a signed 64-bit conversion would overflow
        rec = SeedRecord(202).derive("subcritical", 14)
        reps = np.arange(64)
        keys = rec.philox_keys(reps, "walk")
        high = np.flatnonzero((keys >= 2**63).all(axis=1))
        assert len(high) >= 4
        stream = KeyedPhilox()
        for rep in high.tolist():
            np.testing.assert_array_equal(
                stream.at(keys[rep]).binomial(2**14, 0.5, size=3),
                rec.derive(rep, "walk").generator().binomial(2**14, 0.5, size=3))
        for key in ([2**64 - 1, 2**63], [2**63, 2**64 - 1], [2**64 - 1, 2**64 - 1]):
            fresh = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(
                stream.at(np.array(key, np.uint64)).integers(0, 2**63, size=5),
                fresh.integers(0, 2**63, size=5))

    def test_rekeying_restarts_a_used_generator(self):
        # half-used 32-bit buffers and a moved counter do not leak into the
        # next key's stream
        stream = KeyedPhilox()
        (first, key1), (second, key2) = self._pairs()[:2]
        g = stream.at(key1)
        g.integers(0, 2, size=3, dtype=np.uint32)
        g.standard_normal(1001)
        mixed = stream.at(key2)
        fresh = second.generator()
        np.testing.assert_array_equal(mixed.integers(0, 5, size=7, dtype=np.uint32),
                                      fresh.integers(0, 5, size=7, dtype=np.uint32))
        np.testing.assert_array_equal(mixed.standard_normal(5), fresh.standard_normal(5))
        np.testing.assert_array_equal(stream.at(key1).standard_normal(4),
                                      first.generator().standard_normal(4))
        stream.at(key2).integers(0, 2, size=1, dtype=np.uint32)
        high = [2**64 - 1, 2**63]
        np.testing.assert_array_equal(
            stream.at(np.array(high, np.uint64)).integers(0, 5, size=7, dtype=np.uint32),
            np.random.Generator(np.random.Philox(key=high)).integers(0, 5, size=7,
                                                                     dtype=np.uint32))
