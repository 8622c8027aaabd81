"""Performance benchmarks for the application-side kernels.

These time, with proper repetition, the kernels an app runs against a
finished table: known- and unknown-source AoA estimation, binaural
rendering and an interpolating table lookup.  The personalization path
itself (batch delay solves, DelayMap builds and inversion, channel-bank
deconvolution, whole jobs) is timed per layer on fresh subjects by
``python3 perfbench/run.py --workload fresh --seed 1 --seconds 30 --trace 1``.
"""

import numpy as np
import pytest

from repro.core.aoa import KnownSourceAoAEstimator, UnknownSourceAoAEstimator
from repro.hrtf.reference import ground_truth_table
from repro.signals.waveforms import probe_chirp, white_noise
from repro.simulation.person import VirtualSubject
from repro.simulation.propagation import record_far_field

FS = 48_000


@pytest.fixture(scope="module")
def subject():
    return VirtualSubject.random(7)


@pytest.fixture(scope="module")
def table(subject):
    return ground_truth_table(subject, np.arange(0.0, 181.0, 5.0), FS)


def test_perf_known_aoa(benchmark, subject, table):
    """One known-source AoA estimate (37 template comparisons)."""
    chirp = probe_chirp(FS, duration_s=0.05)
    left, right = record_far_field(
        subject, 60.0, chirp, FS, rng=np.random.default_rng(2), noise_std=0.003
    )
    estimator = KnownSourceAoAEstimator(table)
    estimate = benchmark(estimator.estimate, left, right, chirp, FS)
    assert abs(estimate - 60.0) < 20.0


def test_perf_unknown_aoa(benchmark, subject, table):
    """One unknown-source AoA estimate on 0.5 s of audio."""
    signal = white_noise(0.5, FS, rng=np.random.default_rng(3))
    left, right = record_far_field(
        subject, 60.0, signal, FS, rng=np.random.default_rng(4), noise_std=0.003
    )
    estimator = UnknownSourceAoAEstimator(table)
    estimate = benchmark(estimator.estimate, left, right, FS)
    assert abs(estimate - 60.0) < 25.0


def test_perf_binaural_render(benchmark, table):
    """Rendering one second of audio through the table."""
    signal = white_noise(1.0, FS, rng=np.random.default_rng(5))
    left, right = benchmark(table.binauralize, signal, 60.0)
    assert left.shape == right.shape


def test_perf_table_lookup_interpolated(benchmark, table):
    """One off-grid (interpolating) table lookup."""
    entry = benchmark(table.lookup, 47.3, "far")
    assert entry.n_samples == table.far[0].n_samples
