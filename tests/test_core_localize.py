"""Tests for delay-map localization (the fusion inner loop)."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.head import HeadGeometry
from repro.geometry.paths import binaural_delays, euclidean_delay
from repro.geometry.head import Ear
from repro.geometry.vec import polar_to_cartesian
from repro.obs import metrics as obs_metrics
from repro.constants import SPEED_OF_SOUND
from repro.core.localize import (
    DelayMap,
    _map_cache_key,
    cached_delay_map,
    clear_delay_map_cache,
    delay_map_cache_size,
)


@pytest.fixture(scope="module")
def delay_map(average_head):
    return DelayMap(average_head)


class TestInversion:
    @pytest.mark.parametrize(
        "radius, theta",
        [(0.45, 30.0), (0.45, 90.0), (0.3, 150.0), (0.7, 10.0), (0.5, 170.0)],
    )
    def test_recovers_true_location(self, average_head, delay_map, radius, theta):
        t_left, t_right = binaural_delays(
            average_head, polar_to_cartesian(radius, theta)
        )
        candidate = delay_map.locate(t_left, t_right, imu_angle_deg=theta + 4.0)
        assert candidate is not None
        assert candidate.theta_deg == pytest.approx(theta, abs=0.5)
        assert candidate.radius_m == pytest.approx(radius, abs=0.01)

    def test_two_candidates_front_back(self, average_head, delay_map):
        t_left, t_right = binaural_delays(average_head, polar_to_cartesian(0.45, 40.0))
        candidates = delay_map.invert(t_left, t_right)
        assert len(candidates) == 2
        thetas = sorted(c.theta_deg for c in candidates)
        assert thetas[0] == pytest.approx(40.0, abs=1.0)
        # The ambiguous twin is roughly the front-back mirror.
        assert 120.0 < thetas[1] < 180.0

    def test_imu_disambiguates_to_back(self, average_head, delay_map):
        t_left, t_right = binaural_delays(average_head, polar_to_cartesian(0.45, 40.0))
        candidates = delay_map.invert(t_left, t_right)
        back = max(c.theta_deg for c in candidates)
        chosen = delay_map.locate(t_left, t_right, imu_angle_deg=back + 3.0)
        assert chosen.theta_deg == pytest.approx(back, abs=0.5)

    def test_impossible_delays_return_empty(self, delay_map):
        assert delay_map.invert(1e-5, 1e-5) == []
        assert delay_map.locate(1e-5, 1e-5, 0.0) is None

    def test_nan_delays_return_empty(self, delay_map):
        assert delay_map.invert(float("nan"), 1e-3) == []

    def test_candidate_position_property(self, average_head, delay_map):
        t_left, t_right = binaural_delays(average_head, polar_to_cartesian(0.5, 60.0))
        candidate = delay_map.locate(t_left, t_right, 60.0)
        np.testing.assert_allclose(
            candidate.position,
            polar_to_cartesian(candidate.radius_m, candidate.theta_deg),
        )

    @given(radius=st.floats(0.3, 1.0), theta=st.floats(5.0, 175.0))
    @settings(max_examples=25, deadline=None)
    def test_inversion_property(self, radius, theta):
        head = HeadGeometry.average()
        dm = DelayMap(head)
        t_left, t_right = binaural_delays(head, polar_to_cartesian(radius, theta))
        candidate = dm.locate(t_left, t_right, theta)
        assert candidate is not None
        assert abs(candidate.theta_deg - theta) < 1.5
        assert abs(candidate.radius_m - radius) < 0.02


class TestEuclideanModel:
    def test_euclidean_map_differs_from_diffraction(self, average_head):
        euclid = DelayMap(average_head, model="euclidean")
        source = polar_to_cartesian(0.45, 60.0)
        t_left, t_right = binaural_delays(average_head, source)  # physical
        candidate = euclid.locate(t_left, t_right, 60.0)
        # The straight-line model misinterprets the wrapped delay.
        assert candidate is None or abs(candidate.theta_deg - 60.0) > 2.0

    def test_euclidean_inverts_euclidean(self, average_head):
        euclid = DelayMap(average_head, model="euclidean")
        source = polar_to_cartesian(0.45, 60.0)
        t_left = euclidean_delay(average_head, source, Ear.LEFT)
        t_right = euclidean_delay(average_head, source, Ear.RIGHT)
        candidate = euclid.locate(t_left, t_right, 60.0)
        assert candidate is not None
        assert candidate.theta_deg == pytest.approx(60.0, abs=1.0)


class TestValidation:
    def test_invalid_grid_raises(self, average_head):
        with pytest.raises(GeometryError):
            DelayMap(average_head, radii=(0.5, 0.2, 10))
        with pytest.raises(GeometryError):
            DelayMap(average_head, thetas=(0.0, 10.0, 4))

    def test_invalid_model_raises(self, average_head):
        with pytest.raises(GeometryError):
            DelayMap(average_head, model="psychic")

    def test_radial_grid_clears_head(self, average_head):
        dm = DelayMap(average_head, radii=(0.01, 1.0, 10))
        assert dm.radii[0] > max(average_head.parameters)


class TestRadialGridAdjustmentWarning:
    def test_adjustment_warns_and_counts(self, average_head, caplog):
        """An in-head r_min is no longer silent: warning + counter fire."""
        counter = obs_metrics.counter("localize.radial_grid_adjusted")
        before = counter.value
        with caplog.at_level(logging.WARNING, logger="repro.core.localize"):
            dm = DelayMap(average_head, radii=(0.05, 1.0, 10))
        assert counter.value - before == 1
        assert dm.radii[0] == pytest.approx(max(average_head.parameters) + 0.01)
        messages = [
            r.message for r in caplog.records if "radial_grid_adjusted" in r.message
        ]
        assert len(messages) == 1
        assert "requested_r_min_m=0.05" in messages[0]
        assert "adjusted_r_min_m=" in messages[0]

    def test_valid_grid_stays_silent(self, average_head, caplog):
        counter = obs_metrics.counter("localize.radial_grid_adjusted")
        before = counter.value
        with caplog.at_level(logging.WARNING, logger="repro.core.localize"):
            dm = DelayMap(average_head, radii=(0.2, 1.0, 10))
        assert counter.value == before
        assert not any(
            "radial_grid_adjusted" in r.message for r in caplog.records
        )
        assert dm.radii[0] == pytest.approx(0.2)


class TestCachedDelayMap:
    PARAMS = (0.0901, 0.1153, 0.0987)

    def test_repeat_parameters_hit(self):
        clear_delay_map_cache()
        hits = obs_metrics.counter("localize.delay_map_cache_hits")
        misses = obs_metrics.counter("localize.delay_map_cache_misses")
        h0, m0 = hits.value, misses.value
        first = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        again = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        assert again is first
        assert misses.value - m0 == 1
        assert hits.value - h0 == 1
        assert delay_map_cache_size() == 1

    def test_nudged_parameters_share_key_and_entry(self):
        """Heads within the quantization tolerance (ulp-level arithmetic
        noise) address one key and one cached instance."""
        clear_delay_map_cache()
        a, b, c = self.PARAMS
        nudged = (a + 1e-10, b - 1e-10, c + 1e-10)
        grid = ((0.2, 1.0, 10), (-180.0, 180.0, 31))
        assert _map_cache_key(
            nudged, 240, *grid, SPEED_OF_SOUND, "diffraction", True
        ) == _map_cache_key(
            self.PARAMS, 240, *grid, SPEED_OF_SOUND, "diffraction", True
        )
        first = cached_delay_map(self.PARAMS, 240, *grid)
        assert cached_delay_map(nudged, 240, *grid) is first
        assert delay_map_cache_size() == 1

    def test_distinct_parameters_do_not_collapse(self):
        clear_delay_map_cache()
        a, b, c = self.PARAMS
        # 1e-5 m apart: far above the quantize_key_component tolerance
        # (1e-9), well below anything the optimizer treats as equal.
        first = cached_delay_map((a, b, c), radii=(0.2, 1.0, 10))
        other = cached_delay_map((a + 1e-5, b, c), radii=(0.2, 1.0, 10))
        assert other is not first
        assert delay_map_cache_size() == 2

    def test_grid_and_mode_are_part_of_the_key(self):
        clear_delay_map_cache()
        base = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        assert cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 12)) is not base
        assert (
            cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10), refine=False)
            is not base
        )
        assert (
            cached_delay_map(
                self.PARAMS, radii=(0.2, 1.0, 10), model="euclidean"
            )
            is not base
        )
        assert delay_map_cache_size() == 4

    def test_matches_direct_construction(self):
        clear_delay_map_cache()
        cached = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        a, b, c = self.PARAMS
        direct = DelayMap(HeadGeometry(a=a, b=b, c=c), radii=(0.2, 1.0, 10))
        np.testing.assert_array_equal(cached.t_left, direct.t_left)
        np.testing.assert_array_equal(cached.t_right, direct.t_right)

    def test_clear_empties_the_store(self):
        cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        assert delay_map_cache_size() >= 1
        clear_delay_map_cache()
        assert delay_map_cache_size() == 0


class TestBatchInversion:
    """The vectorized kernel must reproduce the scalar path bit for bit."""

    @pytest.fixture(scope="class")
    def refined_map(self, average_head):
        return DelayMap(average_head)

    @pytest.fixture(scope="class")
    def coarse_map(self, average_head):
        grid = {"radii": (0.16, 1.2, 24), "thetas": (-40.0, 220.0, 88)}
        return DelayMap(average_head, refine=False, **grid)

    @staticmethod
    def _delay_arrays(head, pairs):
        t1, t2 = [], []
        for radius, theta in pairs:
            a, b = binaural_delays(head, polar_to_cartesian(radius, theta))
            t1.append(a)
            t2.append(b)
        # Pathological rows every batch must handle: a non-finite probe, an
        # impossible delay pair, and an in-batch duplicate of row 0.
        t1 += [np.nan, 1e-5, t1[0]]
        t2 += [1e-3, 1e-5, t2[0]]
        return np.asarray(t1), np.asarray(t2)

    # Mix ordinary geometry with the grazing zone around +/-90 degrees,
    # where the tangential-vertex path and _refine_grazing fire.
    pair_lists = st.lists(
        st.tuples(
            st.floats(0.25, 1.1),
            st.one_of(
                st.floats(-160.0, 160.0),
                st.floats(80.0, 100.0),
                st.floats(-100.0, -80.0),
            ),
        ),
        min_size=1,
        max_size=6,
    )

    @given(pairs=pair_lists)
    @settings(max_examples=20, deadline=None)
    def test_invert_batch_matches_scalar_refined(
        self, average_head, refined_map, pairs
    ):
        t1, t2 = self._delay_arrays(average_head, pairs)
        batch = refined_map.invert_batch(t1, t2)
        scalar = [refined_map.invert(a, b) for a, b in zip(t1, t2)]
        assert batch == scalar

    @given(pairs=pair_lists)
    @settings(max_examples=20, deadline=None)
    def test_invert_batch_matches_scalar_coarse(
        self, average_head, coarse_map, pairs
    ):
        t1, t2 = self._delay_arrays(average_head, pairs)
        batch = coarse_map.invert_batch(t1, t2)
        scalar = [coarse_map.invert(a, b) for a, b in zip(t1, t2)]
        assert batch == scalar

    def test_locate_batch_matches_scalar_locate(self, average_head, refined_map):
        pairs = [(0.45, 30.0), (0.45, 90.0), (0.3, 150.0), (0.7, 10.0)]
        t1, t2 = self._delay_arrays(average_head, pairs)
        alphas = np.array([34.0, 88.0, 147.0, 12.0, 0.0, 0.0, 34.0])
        thetas, radii, solved = refined_map.locate_batch(t1, t2, alphas)
        for i in range(t1.shape[0]):
            candidate = refined_map.locate(
                float(t1[i]), float(t2[i]), float(alphas[i])
            )
            if candidate is None:
                assert not solved[i]
                assert np.isnan(thetas[i]) and np.isnan(radii[i])
            else:
                assert solved[i]
                assert thetas[i] == candidate.theta_deg
                assert radii[i] == candidate.radius_m

    def test_duplicate_rows_equal_each_other_and_scalar(self, average_head):
        """Duplicate rows in one batch resolve alike, and like the scalar."""
        dm = DelayMap(average_head)
        t1, t2 = binaural_delays(average_head, polar_to_cartesian(0.5, 60.0))
        first = dm.invert(t1, t2)
        batch = dm.invert_batch(np.array([t1, t1]), np.array([t2, t2]))
        assert batch == [first, first]
        assert dm.invert(t1, t2) == first


class TestDegenerateColumns:
    def test_degenerate_bracket_yields_nan_not_zero(self, average_head):
        """A non-monotonic t_left column (t_hi <= t_lo at the bracket) must
        produce NaN for that angle — not a silently wrong radius at frac=0 —
        and increment the degenerate-column counter."""
        dm = DelayMap(average_head, radii=(0.2, 1.0, 10), thetas=(-180.0, 180.0, 31))
        col = 7
        # Manufacture a dip: row 5 falls back to the row-3 value, so a t1
        # between rows 3 and 4 brackets a decreasing (t_lo > t_hi) pair.
        dm.t_left[5, col] = dm.t_left[3, col]
        t1 = 0.5 * (float(dm.t_left[3, col]) + float(dm.t_left[4, col]))
        counter = obs_metrics.counter("localize.degenerate_columns")

        c0 = counter.value
        radius = dm._radius_for_left_delay(t1)
        assert np.isnan(radius[col])
        assert counter.value - c0 == 1

        c1 = counter.value
        radius_b = dm._radius_for_left_delay_batch(np.array([t1]))
        assert np.isnan(radius_b[0, col])
        assert counter.value - c1 == 1
