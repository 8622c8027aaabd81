"""Tests for the vectorized batch path solver (must match the scalar one)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fusion import DiffractionAwareSensorFusion
from repro.errors import GeometryError
from repro.geometry import batch
from repro.geometry.batch import binaural_delays_batch, path_lengths_batch
from repro.geometry.head import _MAX_AXIS_M, _MIN_AXIS_M, Ear, HeadGeometry
from repro.geometry.paths import binaural_delays, propagation_path
from repro.geometry.vec import polar_to_cartesian
from repro.obs import metrics as obs_metrics

_AXIS = st.floats(_MIN_AXIS_M, _MAX_AXIS_M)
_HEADS = st.builds(
    lambda a, b, c, n: HeadGeometry(a, b, c, n_boundary=n),
    _AXIS, _AXIS, _AXIS, st.sampled_from((16, 240, 720)),
)
_CONFIG = DiffractionAwareSensorFusion()
#: The fusion inner-loop and final DelayMap grids.
_GRIDS = (
    (_CONFIG.map_radii, _CONFIG.map_thetas),
    (_CONFIG.final_map_radii, _CONFIG.final_map_thetas),
)


def _grid_sources(radii, thetas) -> np.ndarray:
    grid_r, grid_t = np.meshgrid(
        np.linspace(*radii), np.linspace(*thetas), indexing="ij"
    )
    return polar_to_cartesian(grid_r.ravel(), grid_t.ravel())


def _dense_chunked(head, sources):
    """The dense oracle, a few thousand rows at a time to bound memory."""
    chunks = np.array_split(sources, max(1, len(sources) // 2048))
    parts = zip(*(batch._dense_horizon(head, chunk) for chunk in chunks))
    return tuple(np.concatenate(part) for part in parts)


def _assert_matches_dense(head, sources):
    for got, want in zip(
        batch._horizon_indices(head, sources), _dense_chunked(head, sources)
    ):
        np.testing.assert_array_equal(got, want)
    fast = binaural_delays_batch(head, sources)
    with mock.patch.object(batch, "_horizon_indices", _dense_chunked):
        dense = binaural_delays_batch(head, sources)
    for got, want in zip(fast, dense):
        assert np.array_equal(got, want, equal_nan=True)


class TestAgreementWithScalar:
    def test_matches_scalar_on_grid(self, average_head):
        rng = np.random.default_rng(3)
        sources = polar_to_cartesian(
            rng.uniform(0.2, 1.2, 40), rng.uniform(-180, 180, 40)
        )
        t_left, t_right = binaural_delays_batch(average_head, sources)
        for i, source in enumerate(sources):
            expect_l, expect_r = binaural_delays(average_head, source)
            assert t_left[i] == pytest.approx(expect_l, abs=1e-12)
            assert t_right[i] == pytest.approx(expect_r, abs=1e-12)

    @given(radius=st.floats(0.2, 1.5), angle=st.floats(-180, 180))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_property(self, radius, angle):
        head = HeadGeometry.average()
        source = polar_to_cartesian(radius, angle)
        lengths = path_lengths_batch(head, source[None, :], Ear.LEFT)
        expected = propagation_path(head, source, Ear.LEFT).length
        assert lengths[0] == pytest.approx(expected, abs=1e-12)


class TestClosedFormHorizon:
    """The closed-form tangent search against the dense scan it replaces."""

    @given(head=_HEADS, grid=st.sampled_from(_GRIDS))
    def test_fusion_grids_match_dense(self, head, grid):
        _assert_matches_dense(head, _grid_sources(*grid))

    @given(head=_HEADS, offset=st.floats(0.0, 1.0))
    def test_near_boundary_shells_match_dense(self, head, offset):
        psi = np.arange(499) * (360.0 / 499) + offset
        gaps = 10.0 ** np.arange(-6.0, -0.5, 0.5)
        sources = head.boundary_point(psi)[None, :, :] * (1.0 + gaps)[:, None, None]
        _assert_matches_dense(head, sources.reshape(-1, 2))

    @given(head=_HEADS)
    def test_axes_and_floor_ring_match_dense(self, head):
        """Ear line, nose axis (both through the origin), and the ring at
        the exact-zone solver's floor radius (largest axis + 5 mm)."""
        t = np.linspace(-2.0, 2.0, 801)
        zeros = np.zeros_like(t)
        ring = polar_to_cartesian(
            np.full(720, max(head.parameters) + 0.005), np.arange(720) * 0.5
        )
        sources = np.concatenate(
            [np.stack([t, zeros], axis=1), np.stack([zeros, t], axis=1), ring]
        )
        _assert_matches_dense(head, sources)

    def test_fusion_grids_need_no_fallback(self):
        counter = obs_metrics.counter("geometry.horizon_fallback_rows")
        before = counter.value
        for n_boundary, grid in zip((_CONFIG.fusion_boundary_samples, 720), _GRIDS):
            head = HeadGeometry.average(n_boundary=n_boundary)
            batch._horizon_indices(head, _grid_sources(*grid))
        assert counter.value == before

    def test_pinned_grazing_source_takes_dense_fallback(self):
        """Found by scanning the average head's 240-vertex boundary, 0.01 %
        outside it, in 0.1 deg steps (here psi = 0.7 deg): the source's
        visible arc falls between two vertices, so neither window sees a
        transition and the row takes the dense scan."""
        head = HeadGeometry.average(n_boundary=240)
        sources = np.array([[0.0013439462678644283, 0.10999802544180927]])
        counter = obs_metrics.counter("geometry.horizon_fallback_rows")
        before = counter.value
        batch._horizon_indices(head, sources)
        assert counter.value == before + 1
        _assert_matches_dense(head, sources)


class TestBatchSemantics:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inside_points_are_nan(self, average_head):
        sources = np.array([[0.0, 0.0], [0.5, 0.5]])
        lengths = path_lengths_batch(average_head, sources, Ear.LEFT)
        assert np.isnan(lengths[0])
        assert np.isfinite(lengths[1])

    def test_wrong_shape_raises(self, average_head):
        with pytest.raises(GeometryError):
            path_lengths_batch(average_head, np.zeros((3,)), Ear.LEFT)
        with pytest.raises(GeometryError):
            binaural_delays_batch(average_head, np.zeros((2, 3)))

    def test_empty_batch(self, average_head):
        lengths = path_lengths_batch(average_head, np.zeros((0, 2)), Ear.LEFT)
        assert lengths.shape == (0,)

    def test_large_batch_consistent_between_ears(self, average_head):
        """On the nose axis, both ears are equidistant (symmetry check)."""
        sources = np.stack([np.zeros(20), np.linspace(0.3, 2.0, 20)], axis=1)
        t_left, t_right = binaural_delays_batch(average_head, sources)
        np.testing.assert_allclose(t_left, t_right, atol=1e-7)
