"""Zipf sampling."""

import random
from collections import Counter

import pytest

from repro.workload.zipf import ZipfSampler



def mass(sampler, rank):
    """The probability of ``rank``: a step of the sampler's cumulative table."""
    return sampler._cumulative[rank] - (sampler._cumulative[rank - 1] if rank else 0.0)

class TestZipfSampler:
    def test_skew_zero_is_uniform(self):
        sampler = ZipfSampler(4, 0.0, random.Random(0))
        counts = Counter(sampler.sample() for __ in range(8000))
        for rank in range(4):
            assert counts[rank] == pytest.approx(2000, rel=0.15)

    def test_high_skew_concentrates_on_rank_zero(self):
        sampler = ZipfSampler(10, 2.0, random.Random(1))
        counts = Counter(sampler.sample() for __ in range(5000))
        assert counts[0] > 0.55 * 5000

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(7, 1.5)
        assert sum(mass(sampler, r) for r in range(7)) == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        sampler = ZipfSampler(5, 1.0)
        probs = [mass(sampler, r) for r in range(5)]
        assert probs == sorted(probs, reverse=True)

    def test_samples_in_range(self):
        sampler = ZipfSampler(3, 1.0, random.Random(2))
        assert all(0 <= sampler.sample() < 3 for __ in range(1000))

    def test_seeded_reproducibility(self):
        a = [ZipfSampler(10, 1.0, random.Random(5)).sample() for __ in range(1)]
        b = [ZipfSampler(10, 1.0, random.Random(5)).sample() for __ in range(1)]
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(5, -1.0)
