"""Tests for the hash families used by the sketch-based trackers."""

import pytest

from repro.sketch.hashes import (
    MultiplyShiftHashFamily,
    ShiftMaskHashFamily,
    TabulationHashFamily,
)

FAMILIES = [ShiftMaskHashFamily, MultiplyShiftHashFamily, TabulationHashFamily]


def pair_collision_rate(family, keys):
    """Fraction of key pairs whose hashes agree on *every* function."""
    signatures = {}
    for key in keys:
        signature = tuple(family.hash_all(key))
        signatures[signature] = signatures.get(signature, 0) + 1
    pairs = len(keys) * (len(keys) - 1) // 2
    colliding = sum(c * (c - 1) // 2 for c in signatures.values())
    return colliding / pairs


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_within_range(family_cls):
    family = family_cls(num_hashes=4, num_buckets=512, seed=3)
    for key in range(0, 5000, 7):
        for index in range(4):
            value = family.hash(index, key)
            assert 0 <= value < 512


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_deterministic_for_same_seed(family_cls):
    a = family_cls(num_hashes=3, num_buckets=128, seed=11)
    b = family_cls(num_hashes=3, num_buckets=128, seed=11)
    for key in range(100):
        assert a.hash_all(key) == b.hash_all(key)


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_varies_with_seed(family_cls):
    a = family_cls(num_hashes=3, num_buckets=1024, seed=1)
    b = family_cls(num_hashes=3, num_buckets=1024, seed=2)
    keys = list(range(200))
    differing = sum(1 for key in keys if a.hash_all(key) != b.hash_all(key))
    assert differing > 150


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_hash_functions_are_distinct(family_cls):
    """Different hash functions of one family should not be identical."""
    family = family_cls(num_hashes=4, num_buckets=512, seed=5)
    keys = list(range(0, 1000, 3))
    for i in range(4):
        for j in range(i + 1, 4):
            same = sum(1 for key in keys if family.hash(i, key) == family.hash(j, key))
            assert same < len(keys) * 0.5


def test_hash_all_length():
    family = ShiftMaskHashFamily(num_hashes=5, num_buckets=64, seed=0)
    assert len(family.hash_all(123)) == 5


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ShiftMaskHashFamily(num_hashes=0, num_buckets=16)
    with pytest.raises(ValueError):
        ShiftMaskHashFamily(num_hashes=2, num_buckets=0)


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_collision_rate_is_low_for_row_addresses(family_cls):
    """Full-group collisions should be rare for a realistic row-address stream."""
    family = family_cls(num_hashes=4, num_buckets=512, seed=7)
    keys = list(range(0, 4096, 2))  # sequential even row IDs
    assert pair_collision_rate(family, keys) < 0.01


def test_distribution_is_roughly_uniform():
    """No single bucket should absorb a large share of sequential row IDs."""
    family = ShiftMaskHashFamily(num_hashes=1, num_buckets=256, seed=9)
    counts = [0] * 256
    total = 8192
    for key in range(total):
        counts[family.hash(0, key)] += 1
    assert max(counts) < total / 256 * 4
