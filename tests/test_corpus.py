"""Tests for random draw generation and the mixed corpus."""

import math

import numpy as np
import pytest

from gaussiso import corpus
from gaussiso.corpus import (
    ENDPOINT_CLIP,
    MASS_WINDOW,
    MIN_SEPARATION,
    RandomSetSpec,
    mixed_corpus,
    random_interval_union,
)
from gaussiso.sets import (
    CenteredBall,
    IntervalUnion1D,
    SlabSet,
    mass_level,
    measure,
)


class TestRandomSetSpec:
    def test_defaults(self):
        spec = RandomSetSpec(k_range=(1, 3))
        assert spec.seed == 0

    @pytest.mark.parametrize(
        "k_range", [(0, 3), (2, 1), (1, 7), (-1, 2), (3, 9)]
    )
    def test_component_range_validation(self, k_range):
        with pytest.raises(ValueError, match="1 <= min <= max <= 6"):
            RandomSetSpec(k_range=k_range)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RandomSetSpec(k_range=(1, 2), seed=-1)


class TestRandomIntervalUnion:
    def test_deterministic_per_seed(self):
        spec = RandomSetSpec(k_range=(1, 4), seed=1234)
        assert random_interval_union(spec).intervals == random_interval_union(spec).intervals

    def test_distinct_seeds_give_distinct_sets(self):
        draws = {
            random_interval_union(RandomSetSpec(k_range=(1, 4), seed=s)).intervals
            for s in range(20)
        }
        assert len(draws) > 15

    def test_draws_satisfy_invariants(self):
        lo_mass, hi_mass = MASS_WINDOW
        masses = []
        for seed in range(300):
            e = random_interval_union(RandomSetSpec(k_range=(1, 6), seed=seed))
            assert isinstance(e, IntervalUnion1D)
            assert 1 <= len(e.intervals) <= 6
            m = measure(e)
            assert lo_mass < m < hi_mass
            masses.append(m)
            flat = [x for pair in e.intervals for x in pair if math.isfinite(x)]
            assert all(abs(x) <= ENDPOINT_CLIP for x in flat)
            assert all(b - a >= MIN_SEPARATION for a, b in zip(flat, flat[1:]))
        # the mass histogram spans the window broadly
        assert min(masses) < 0.15
        assert max(masses) > 0.85

    def test_rays_appear_on_both_sides(self):
        lefts = rights = 0
        for seed in range(200):
            e = random_interval_union(RandomSetSpec(k_range=(1, 3), seed=seed))
            lefts += math.isinf(e.intervals[0][0])
            rights += math.isinf(e.intervals[-1][1])
        # each side extends to infinity with probability 1/2
        assert 60 <= lefts <= 140
        assert 60 <= rights <= 140

    def test_retry_exhaustion_raises(self, monkeypatch):
        # an empty mass window rejects every draw
        monkeypatch.setattr(corpus, "MASS_WINDOW", (0.5, 0.5))
        with pytest.raises(RuntimeError, match="100 retries"):
            random_interval_union(RandomSetSpec(k_range=(3, 6), seed=0))


class TestMixedCorpus:
    def test_composition_counts(self):
        corpus = mixed_corpus(200, seed=3)
        assert len(corpus) == 200
        n_ball = sum(isinstance(e, CenteredBall) for e in corpus)
        n_slab = sum(isinstance(e, SlabSet) for e in corpus)
        n_1d = sum(isinstance(e, IntervalUnion1D) for e in corpus)
        assert n_ball == 20
        assert n_slab == 10
        assert n_1d == 170  # 140 random + 30 two-ray
        two_ray = [
            e
            for e in corpus
            if isinstance(e, IntervalUnion1D)
            and len(e.intervals) == 2
            and e.intervals[0][0] == -math.inf
            and e.intervals[1][1] == math.inf
            and e.intervals[0][1] == -e.intervals[1][0]
        ]
        assert len(two_ray) >= 30

    def test_deterministic(self):
        assert mixed_corpus(60, seed=11) == mixed_corpus(60, seed=11)

    def test_seed_changes_content(self):
        assert mixed_corpus(60, seed=11) != mixed_corpus(60, seed=12)

    def test_every_member_supports_quantities(self):
        for e in mixed_corpus(80, seed=5):
            s = mass_level(e)
            assert math.isfinite(s)
            assert 0.0 < measure(e) < 1.0

    def test_ball_dimensions_span_range(self):
        dims = {e.dim for e in mixed_corpus(1000, seed=2) if isinstance(e, CenteredBall)}
        assert dims == set(range(2, 11))

    def test_ball_masses_inside_window(self):
        for e in mixed_corpus(400, seed=2):
            if isinstance(e, CenteredBall):
                assert 0.015 < measure(e) < 0.985

    def test_slab_dimensions_cycle(self):
        dims = sorted({e.dim for e in mixed_corpus(400, seed=2) if isinstance(e, SlabSet)})
        assert dims == [2, 3, 4, 5]

    def test_two_ray_grid_reaches_deep_levels(self):
        corpus = mixed_corpus(200, seed=0)
        levels = [
            mass_level(e)
            for e in corpus
            if isinstance(e, IntervalUnion1D)
            and len(e.intervals) == 2
            and e.intervals[0][0] == -math.inf
            and e.intervals[1][1] == math.inf
            and e.intervals[0][1] == -e.intervals[1][0]
        ]
        assert min(levels) == pytest.approx(-4.0, abs=1e-12)
        assert max(levels) == pytest.approx(0.0, abs=1e-12)

    def test_small_corpus_all_random(self):
        corpus = mixed_corpus(5, seed=9)
        assert len(corpus) == 5
        assert all(isinstance(e, IntervalUnion1D) for e in corpus)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            mixed_corpus(0)
        with pytest.raises(ValueError, match="nonnegative"):
            mixed_corpus(10, seed=-2)
