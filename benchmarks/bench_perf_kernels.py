"""Performance benchmarks for the library's hot kernels.

The figure benchmarks above time whole experiments once; these time the
individual computational kernels with proper repetition, so regressions in
the numerics (the batch path solver, channel estimation, delay-map builds,
AoA scoring, rendering) are visible.  On the paper's own terms the whole
personalization must stay interactive — "users can get their personalized
HRTF ... in a couple of minutes" — which these budgets add up to.
"""

import numpy as np
import pytest

from repro.geometry.batch import binaural_delays_batch
from repro.geometry.head import HeadGeometry
from repro.geometry.vec import polar_to_cartesian
from repro.hrtf.reference import ground_truth_table
from repro.simulation.person import VirtualSubject
from repro.simulation.propagation import record_far_field, record_near_field
from repro.signals.channel import estimate_channel
from repro.signals.waveforms import probe_chirp, white_noise
from repro.simulation.session import MeasurementSession
from repro.signals.channel import ProbeChannelBank
from repro.core.aoa import KnownSourceAoAEstimator, UnknownSourceAoAEstimator
from repro.core.fusion import DiffractionAwareSensorFusion
from repro.core.localize import DelayMap, cached_delay_map, clear_delay_map_cache
from repro.core.pipeline import Uniq, UniqConfig

FS = 48_000


@pytest.fixture(scope="module")
def head():
    return HeadGeometry.average()


@pytest.fixture(scope="module")
def subject():
    return VirtualSubject.random(7)


@pytest.fixture(scope="module")
def table(subject):
    return ground_truth_table(subject, np.arange(0.0, 181.0, 5.0), FS)


def test_perf_batch_delays(benchmark, head):
    """~2000-source batch delay solve: the fusion optimizer's inner loop."""
    rng = np.random.default_rng(0)
    sources = polar_to_cartesian(
        rng.uniform(0.2, 1.2, 2000), rng.uniform(-180, 180, 2000)
    )
    result = benchmark(binaural_delays_batch, head, sources)
    assert np.isfinite(result[0]).all()


def test_perf_delay_map_build(benchmark, head):
    """One DelayMap construction (per optimizer iteration)."""
    small_head = HeadGeometry(
        a=head.a, b=head.b, c=head.c, n_boundary=240
    )
    result = benchmark(
        DelayMap, small_head, (0.16, 1.2, 24), (-40.0, 220.0, 88)
    )
    assert result.t_left.shape == (24, 88)


def test_perf_final_delay_map_build(benchmark, head):
    """The final full-resolution DelayMap: the largest build per job."""
    fusion = DiffractionAwareSensorFusion()
    result = benchmark(
        DelayMap, head, fusion.final_map_radii, fusion.final_map_thetas
    )
    assert result.t_left.shape == (48, 261)


def test_perf_delay_map_invert(benchmark, head):
    """One delay-pair inversion (per probe per optimizer iteration)."""
    delay_map = DelayMap(head)
    from repro.geometry.paths import binaural_delays

    t_left, t_right = binaural_delays(head, polar_to_cartesian(0.45, 60.0))
    candidate = benchmark(delay_map.locate, t_left, t_right, 60.0)
    assert candidate is not None


def test_perf_delay_map_cached(benchmark, head):
    """A cached_delay_map hit: what the optimizer pays on a revisited vertex."""
    clear_delay_map_cache()
    params = head.parameters
    cached_delay_map(params, 240, (0.16, 1.2, 24), (-40.0, 220.0, 88))

    def hit():
        return cached_delay_map(params, 240, (0.16, 1.2, 24), (-40.0, 220.0, 88))

    result = benchmark(hit)
    assert result.t_left.shape == (24, 88)


def test_perf_channel_bank_hit(benchmark, subject):
    """Serving an already-deconvolved channel out of the session bank."""
    chirp = probe_chirp(FS)
    left, _ = record_near_field(
        subject, polar_to_cartesian(0.45, 50.0), chirp, FS,
        rng=np.random.default_rng(1),
    )
    bank = ProbeChannelBank(chirp)
    bank.channel((0, "left"), left, 576)
    channel = benchmark(bank.channel, (0, "left"), left, 576)
    assert channel.shape == (576,)


def test_perf_personalize_end_to_end(benchmark, subject):
    """The whole pipeline on a short capture, min-of-N over warm repeats.

    The first (cold) round pays the DelayMap builds; later rounds measure
    the cached steady state the acceptance budget tracks.
    """
    session = MeasurementSession(subject, seed=3, probe_interval_s=0.8).run()
    uniq = Uniq(UniqConfig(angle_grid_deg=tuple(np.arange(0.0, 181.0, 20.0))))
    clear_delay_map_cache()
    result = benchmark.pedantic(
        uniq.personalize, args=(session,), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    assert np.isfinite(result.fusion.radii_m).all()


def test_perf_channel_estimation(benchmark, subject):
    """Deconvolving one probe recording (twice per probe)."""
    chirp = probe_chirp(FS)
    left, _ = record_near_field(
        subject, polar_to_cartesian(0.45, 50.0), chirp, FS,
        rng=np.random.default_rng(1),
    )
    channel = benchmark(estimate_channel, left, chirp, 576)
    assert channel.shape == (576,)


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
