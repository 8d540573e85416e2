"""Property-based checks: structural invariants that should hold on arbitrary inputs.

These complement the example-based modules with randomized coverage of the
set algebra, serialization round trips, and the algebraic identities tying
the computed quantities together.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussiso import (
    CenteredBall,
    HalfSpace,
    IntervalUnion1D,
    SlabSet,
    barycenter,
    complement,
    measure,
    normalize,
    perimeter,
    quantities,
    set_from_dict,
    set_from_json,
    set_to_dict,
    set_to_json,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _intersection(a: IntervalUnion1D, b: IntervalUnion1D) -> IntervalUnion1D:
    """A n B as the complement of the union of the complements (De Morgan)."""
    return complement(normalize(complement(a).intervals + complement(b).intervals))

# Raw endpoint pairs with lo <= hi, moderate magnitudes so measures stay
# far from float underflow.
_coord = st.floats(
    min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False
)
_raw_pair = st.tuples(_coord, _coord).map(lambda p: tuple(sorted(p)))
_raw_pairs = st.lists(_raw_pair, min_size=0, max_size=6)


def _well_separated(union: IntervalUnion1D, gap: float = 1e-6) -> bool:
    """True when every component and every inter-component gap exceeds `gap`."""
    prev_hi = None
    for lo, hi in union.intervals:
        if hi - lo <= gap:
            return False
        if prev_hi is not None and lo - prev_hi <= gap:
            return False
        prev_hi = hi
    return True


class TestNormalization:
    @given(_raw_pairs)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        once = normalize(raw)
        twice = normalize(once.intervals)
        assert twice.intervals == once.intervals

    @given(_raw_pairs)
    @settings(max_examples=200, deadline=None)
    def test_output_sorted_disjoint(self, raw):
        union = normalize(raw)
        prev_hi = -math.inf
        for lo, hi in union.intervals:
            assert lo < hi
            assert lo > prev_hi
            prev_hi = hi

    @given(_raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_order_of_input_is_irrelevant(self, raw):
        forward = normalize(raw)
        backward = normalize(list(reversed(raw)))
        assert forward.intervals == backward.intervals


class TestIntervalAlgebra:
    @given(_raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_complement_measures_sum_to_one(self, raw):
        union = normalize(raw)
        total = measure(union) + measure(complement(union))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(_raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_double_complement_restores_intervals(self, raw):
        union = normalize(raw)
        back = complement(complement(union))
        assert back.intervals == union.intervals

    @given(_raw_pairs, _raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_intersection_bounded_by_factors(self, raw_a, raw_b):
        a, b = normalize(raw_a), normalize(raw_b)
        both = measure(_intersection(a, b))
        assert both <= measure(a) + 1e-12
        assert both <= measure(b) + 1e-12

    @given(_raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_intersection_with_self_is_identity(self, raw):
        union = normalize(raw)
        assert measure(_intersection(union, union)) == pytest.approx(
            measure(union), abs=1e-13
        )

    @given(_raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_intersection_with_complement_is_null(self, raw):
        union = normalize(raw)
        assert measure(_intersection(union, complement(union))) == pytest.approx(
            0.0, abs=1e-12
        )


class TestSerializationRoundTrip:
    @given(_raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_interval_union_json_round_trip(self, raw):
        union = normalize(raw)
        back = set_from_json(set_to_json(union))
        assert isinstance(back, IntervalUnion1D)
        assert back.intervals == union.intervals

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
        st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=100, deadline=None)
    def test_halfspace_round_trip(self, dim, s, axis):
        omega = tuple(1.0 if j == axis % dim else 0.0 for j in range(dim))
        h = HalfSpace(omega=omega, s=s)
        back = set_from_dict(set_to_dict(h))
        assert isinstance(back, HalfSpace)
        assert back.omega == h.omega
        assert back.s == h.s

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.05, max_value=9.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_ball_round_trip(self, dim, radius):
        ball = CenteredBall(dim=dim, radius=radius)
        back = set_from_dict(set_to_dict(ball))
        assert isinstance(back, CenteredBall)
        assert back.dim == ball.dim and back.radius == ball.radius

    @given(st.integers(min_value=1, max_value=8), _raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_slab_round_trip(self, dim, raw):
        slab = SlabSet(dim=dim, profile=normalize(raw))
        back = set_from_dict(set_to_dict(slab))
        assert isinstance(back, SlabSet)
        assert back.dim == slab.dim
        assert back.profile.intervals == slab.profile.intervals


class TestQuantityIdentities:
    @given(_raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_excess_identity_on_random_unions(self, raw):
        union = normalize(raw)
        if not _well_separated(union):
            return  # skip near-degenerate geometry; covered by merge tests
        m = measure(union)
        if not 1e-8 < m < 1.0 - 1e-8:
            return
        bundle = quantities(union)
        direct = bundle.excess
        via = 2.0 * bundle.deficit + 2.0 * SQRT_2PI * bundle.strong_asymmetry
        assert direct == pytest.approx(via, rel=1e-10, abs=1e-12)

    @given(_raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_deficit_and_asymmetries_nonnegative(self, raw):
        union = normalize(raw)
        if not _well_separated(union):
            return
        m = measure(union)
        if not 1e-8 < m < 1.0 - 1e-8:
            return
        bundle = quantities(union)
        assert bundle.deficit >= -1e-10
        assert bundle.strong_asymmetry >= -1e-10
        assert bundle.directed_fraenkel >= 0.0
        assert bundle.excess >= -1e-9

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_halfline_matches_halfspace_quantities(self, s):
        ray = IntervalUnion1D(intervals=((-math.inf, s),))
        plane = HalfSpace(omega=(1.0,), s=s)
        assert measure(ray) == pytest.approx(measure(plane), rel=1e-14)
        assert perimeter(ray) == pytest.approx(perimeter(plane), rel=1e-14)
        assert np.linalg.norm(barycenter(ray)) == pytest.approx(
            np.linalg.norm(barycenter(plane)), rel=1e-13, abs=1e-300
        )
