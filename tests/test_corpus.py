"""Tests for random draw generation and the mixed corpus."""

import math

import numpy as np
import pytest

from gaussiso import _ziggurat, corpus
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

    @pytest.mark.parametrize(
        "k_range", [(1.0, 3), (1, 2.5), (True, 3), (1, np.bool_(True)), ("1", 3), (None, 3)]
    )
    def test_component_range_must_be_integers(self, k_range):
        with pytest.raises(ValueError, match="component range: each end must be an integer"):
            RandomSetSpec(k_range=k_range)

    def test_numpy_integer_component_range_accepted(self):
        spec = RandomSetSpec(k_range=(np.int64(1), np.uint8(3)), seed=5)
        assert spec.k_range == (1, 3)
        assert all(type(k) is int for k in spec.k_range)
        assert random_interval_union(spec) == random_interval_union(RandomSetSpec(k_range=(1, 3), seed=5))

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RandomSetSpec(k_range=(1, 2), seed=-1)

    @pytest.mark.parametrize("seed", [True, False, np.bool_(True), 1.0, 2.5, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RandomSetSpec(k_range=(1, 2), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = RandomSetSpec(k_range=(1, 2), seed=np.uint32(7))
        assert random_interval_union(spec) == random_interval_union(RandomSetSpec(k_range=(1, 2), seed=7))


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

    @pytest.mark.parametrize("seed", [True, 1.0, 42.5, "42"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            mixed_corpus(10, seed=seed)

    @pytest.mark.parametrize("n", [2.5, 10.0, True, "10"])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="corpus size must be an integer"):
            mixed_corpus(n)

    def test_numpy_integer_size_accepted(self):
        assert mixed_corpus(np.int64(5), seed=9) == mixed_corpus(5, seed=9)


def _numpy_route(spec: RandomSetSpec) -> IntervalUnion1D:
    """The reference draw: a fresh ``default_rng(SeedSequence([seed]))`` on arrays."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    for _ in range(100):
        k = int(rng.integers(spec.k_range[0], spec.k_range[1] + 1))
        pts = np.sort(rng.normal(loc=0.0, scale=2.0, size=2 * k))
        left_ray = bool(rng.random() < 0.5)
        right_ray = bool(rng.random() < 0.5)
        pts = np.clip(pts, -ENDPOINT_CLIP, ENDPOINT_CLIP)
        if np.any(np.diff(pts) < MIN_SEPARATION):
            continue
        intervals = [(float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(k)]
        if left_ray:
            intervals[0] = (-math.inf, intervals[0][1])
        if right_ray:
            intervals[-1] = (intervals[-1][0], math.inf)
        candidate = IntervalUnion1D(intervals=tuple(intervals))
        if MASS_WINDOW[0] < measure(candidate) < MASS_WINDOW[1]:
            return candidate
    raise AssertionError(f"reference draw exhausted its retries for seed {spec.seed}")


#: Corpus seeds of one, two and three entropy words.
SEEDING_SEEDS = [0, 1, 42, 2**32 + 5, 2**64 + 3]


def _pcg64_states(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """(state, inc) of every row of ``corpus._pcg64_limbs``, as in ``PCG64.state``."""
    columns = (limb.tolist() for limb in corpus._pcg64_limbs(entropy))
    return [(hi << 64 | lo, inc_hi << 64 | inc_lo) for hi, lo, inc_hi, inc_lo in zip(*columns)]


class TestSeeding:
    """The batched seeding equals numpy.random.SeedSequence and PCG64 bit for bit."""

    # 5 seeds x 20,000 indices = 10^5 indices
    N_INDICES = 20_000

    @pytest.mark.parametrize("seed", SEEDING_SEEDS)
    def test_child_seeds_and_states_match_numpy(self, seed):
        n = self.N_INDICES
        stream = seed % 7
        children = corpus._child_seeds(seed, stream, n)
        assert children.dtype == np.uint32 and children.shape == (n,)
        expected = [int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0]) for i in range(n)]
        assert children.tolist() == expected
        states = _pcg64_states([children])
        for child, (state, inc) in zip(expected, states):
            reference = np.random.PCG64(np.random.SeedSequence([child])).state["state"]
            assert (state, inc) == (reference["state"], reference["inc"])

    @pytest.mark.parametrize("seed", SEEDING_SEEDS)
    def test_indexed_states_match_numpy(self, seed):
        # entropy of three to five words, the last running past the pool
        states = _pcg64_states(corpus._entropy((seed, 17), 300))
        for i, (state, inc) in enumerate(states):
            reference = np.random.PCG64(np.random.SeedSequence([seed, 17, i])).state["state"]
            assert (state, inc) == (reference["state"], reference["inc"])

    def test_seed_words_are_little_endian(self):
        assert corpus._seed_words(0) == [0]
        assert corpus._seed_words(2**32 - 1) == [2**32 - 1]
        assert corpus._seed_words(2**32) == [0, 1]
        assert corpus._seed_words(2**32 + 5) == [5, 1]
        assert corpus._seed_words(2**64 + 3) == [3, 0, 1]

    def test_indices_beyond_one_word_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            corpus._child_seeds(0, 0, 2**32 + 1)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 3, 3**50])
    def test_random_interval_union_matches_numpy_route(self, seed):
        for k_range in [(1, 6), (1, 3), (4, 4)]:
            spec = RandomSetSpec(k_range=k_range, seed=seed)
            assert random_interval_union(spec) == _numpy_route(spec)

    def test_corpus_members_match_numpy_route(self):
        sets = mixed_corpus(400, seed=2**32 + 5)
        randoms = sets[:280]
        children = [int(np.random.SeedSequence([2**32 + 5, 0, i]).generate_state(1)[0]) for i in range(280)]
        assert list(randoms) == [_numpy_route(RandomSetSpec(k_range=(1, 6), seed=c)) for c in children]
        slabs = sets[380:]
        children = [int(np.random.SeedSequence([2**32 + 5, 2, j]).generate_state(1)[0]) for j in range(20)]
        assert [e.profile for e in slabs] == [
            _numpy_route(RandomSetSpec(k_range=(1, 3), seed=c)) for c in children
        ]


def _stream_at(state: int, inc: int) -> corpus._Streams:
    """Streams of one member, which starts at the PCG64 ``(state, inc)``."""
    limbs = [np.array([value >> shift & (2**64 - 1)], dtype=np.uint64) for value in (state, inc) for shift in (64, 0)]
    return corpus._Streams(*limbs)


def _state_drawing(first: int, second: int) -> tuple[int, int]:
    """A PCG64 ``(state, inc)`` whose next two 64-bit outputs are ``first`` and ``second``.

    Each following state takes a chosen high limb and the low limb whose
    XSL-RR output is the word; ``inc`` then links the two states, and the
    second high limb's low bit, which leaves its rotation alone, is flipped
    until ``inc`` is odd.
    """
    mult, mask = corpus._PCG64_MULT, 2**64 - 1

    def state_for(word: int, hi: int) -> int:
        rot = hi >> 58
        rotated = (word << rot | word >> (64 - rot)) & mask
        return hi << 64 | (rotated ^ hi)

    s1 = state_for(first, 0x0123456789ABCDEF)
    for hi in (0x0FEDCBA987654320, 0x0FEDCBA987654321):
        inc = (state_for(second, hi) - s1 * mult) % 2**128
        if inc & 1:
            return (s1 - inc) * pow(mult, -1, 2**128) % 2**128, inc
    raise AssertionError("no odd increment")


def _generator_at(state: int, inc: int) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _stream_state(streams: corpus._Streams, j: int) -> dict:
    """Member ``j`` of ``streams`` in the layout of ``PCG64.state``."""
    return {
        "state": (int(streams.hi[j]) << 64 | int(streams.lo[j]), int(streams.inc_hi[j]) << 64 | int(streams.inc_lo[j])),
        "has_uint32": int(streams.has_half[j]),
        "uinteger": int(streams.half[j]),
    }


def _generator_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return {
        "state": (state["state"]["state"], state["state"]["inc"]),
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


class TestStreams:
    """``corpus._Streams`` draws what NumPy's Generator draws, member by member."""

    @staticmethod
    def seeded(seed: int, n: int):
        streams = corpus._Streams(*corpus._pcg64_limbs(corpus._entropy((seed, 5), n)))
        generators = [np.random.default_rng(np.random.SeedSequence([seed, 5, i])) for i in range(n)]
        return streams, generators

    def test_normals_match_generator(self, monkeypatch):
        # 10^4 streams x 1000 draws = 10^7 normals, compared 100 draws at a time
        n, passes, per_pass = 10_000, 10, 100
        edges = {"_tail": 0, "_wedge": 0}
        for name in edges:
            method = getattr(corpus._Streams, name)

            def counted(self, rows, *args, _method=method, _name=name):
                edges[_name] += len(rows)
                return _method(self, rows, *args)

            monkeypatch.setattr(corpus._Streams, name, counted)
        streams, generators = self.seeded(8, n)
        for _ in range(passes):
            drawn = np.stack([streams.standard_normal(n) for _ in range(per_pass)], axis=1)
            expected = np.array([rng.standard_normal(per_pass) for rng in generators])
            assert np.array_equal(drawn, expected)
        # about 0.03% of draws reach the base layer's tail and 1.5% a wedge
        assert edges["_tail"] > 1000
        assert edges["_wedge"] > 50_000

    def test_mixed_draws_and_buffers_match_generator(self):
        n = 500
        streams, generators = self.seeded(3, n)
        for _ in range(40):
            assert streams.integers(1, 7).tolist() == [rng.integers(1, 7) for rng in generators]
            assert streams.integers(4, 5).tolist() == [rng.integers(4, 5) for rng in generators]
            drawn = streams.standard_normal(n)
            assert drawn.tolist() == [rng.standard_normal() for rng in generators]
            assert streams.random(slice(None)).tolist() == [rng.random() for rng in generators]
            assert streams.integers(1, 4).tolist() == [rng.integers(1, 4) for rng in generators]
        for j, rng in enumerate(generators):
            assert _stream_state(streams, j) == _generator_state(rng)

    def test_single_value_range_takes_no_word(self):
        streams, generators = self.seeded(1, 4)
        before = [_stream_state(streams, j) for j in range(4)]
        assert streams.integers(4, 5).tolist() == [4] * 4
        assert [_stream_state(streams, j) for j in range(4)] == before
        for j, rng in enumerate(generators):
            assert rng.integers(4, 5) == 4
            assert _generator_state(rng) == before[j]

    def test_buffered_half_serves_next_count(self):
        streams, generators = self.seeded(2, 6)
        first = streams.integers(1, 7)
        stepped = [_stream_state(streams, j) for j in range(6)]
        assert all(state["has_uint32"] == 1 for state in stepped)
        second = streams.integers(1, 7)
        for j, rng in enumerate(generators):
            assert (first[j], second[j]) == (rng.integers(1, 7), rng.integers(1, 7))
            after = _stream_state(streams, j)
            # the second count read the buffered upper half: no step
            assert after["state"] == stepped[j]["state"]
            assert after["has_uint32"] == 0
            assert after == _generator_state(rng)

    def test_lemire_rejection_redraws(self):
        # a state whose next word is 0: both of its halves give (0 * 6) mod
        # 2**32 = 0, under the rejection threshold 2**32 mod 6 = 4
        mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (12345 << 1) | 1
        following = (7 << 64) | 7  # high word equals low word: the output is 0
        state = (following - inc) * pow(mult, -1, 2**128) % 2**128
        assert _generator_at(state, inc).bit_generator.random_raw() == 0
        streams = _stream_at(state, inc)
        rng = _generator_at(state, inc)
        assert streams.integers(1, 7).tolist() == [rng.integers(1, 7)]
        after = _stream_state(streams, 0)
        assert after == _generator_state(rng)
        # both halves of the zero word were refused, then a second word was read
        assert after["state"][0] == (following * mult + inc) % 2**128

    def test_wedge_compares_with_libm_exp(self):
        # a wedge draw whose uniform height is the double just under libm's
        # exp(-x^2/2): NumPy's C sampler keeps x, and an exp rounded one ulp
        # low, as NumPy's vector exp is for this x on an AVX-512 CPU, would
        # reject it and draw again
        layer, x = 106, 1.3857917788337337
        magnitude = round(x / _ziggurat.WI[layer])
        assert magnitude * _ziggurat.WI[layer] == x and magnitude >= _ziggurat.KI[layer]
        height = np.nextafter(math.exp(-0.5 * x * x), 0.0)
        base, span = _ziggurat.FI[layer], _ziggurat.FI[layer - 1] - _ziggurat.FI[layer]
        uniform = round((height - base) / span * 2**53)
        assert span * (uniform * 2.0**-53) + base == height
        state, inc = _state_drawing(magnitude << 9 | layer, uniform << 11)
        assert _generator_at(state, inc).standard_normal() == x
        assert _stream_at(state, inc).standard_normal(1).tolist() == [x]


class TestOneDrawPath:
    def test_mixed_corpus_makes_no_generator_normal_call(self, monkeypatch):
        calls = []

        class Spy(np.random.Generator):
            def normal(self, *args, **kwargs):
                calls.append("normal")
                return super().normal(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                calls.append("standard_normal")
                return super().standard_normal(*args, **kwargs)

            def integers(self, *args, **kwargs):
                calls.append("integers")
                return super().integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        monkeypatch.setattr(np.random, "default_rng", lambda *args: Spy(np.random.PCG64(*args)))
        mixed_corpus(400, seed=2)
        # the ball stream is the one Generator the corpus still draws from
        assert calls == ["integers"]
