"""Acoustic phone localization given candidate head parameters.

Paper Section 4.1, "Estimating Polar Angle theta_i(E) in Step 2": assume head
parameters ``E = (a, b, c)`` and let ``t1, t2`` be the measured first-tap
delays at the left/right ears.  The phone must lie on the intersection of two
iso-delay trajectories — the locus of points whose diffraction delay to the
left ear is ``t1``, and likewise for the right ear — which generically
intersect in **two** points (front/back ambiguity, the paper's Figure 10b).
The IMU angle picks the right one.

:class:`DelayMap` implements this inversion on a polar grid:

1. tabulate ``t_L(r, theta)`` and ``t_R(r, theta)`` over a grid using the
   vectorized batch path solver (delay is strictly increasing in ``r`` along
   each angle ray, so each column is invertible);
2. for a measurement ``(t1, t2)``, solve ``t_L(r, theta) = t1`` for ``r``
   per angle column, evaluate ``g(theta) = t_R(r(theta), theta) - t2``, and
   return the sign-change roots of ``g`` — the candidate phone locations.

The map is rebuilt once per candidate ``E`` inside the fusion optimizer, so
all the heavy lifting is in vectorized numpy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.constants import SPEED_OF_SOUND
from repro.core import mapstore
from repro.errors import GeometryError
from repro.geometry.batch import binaural_delays_batch
from repro.geometry.head import DEFAULT_BOUNDARY_SAMPLES, Ear, HeadGeometry
from repro.geometry.vec import polar_to_cartesian
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv

#: Default radial grid span (m): from just outside any plausible head to
#: beyond any plausible arm reach.
DEFAULT_RADII = (0.16, 1.4, 40)

#: Default angular grid (deg): full circle so both ambiguous intersections
#: are always found, at ~3 degree resolution before sub-grid refinement.
DEFAULT_THETAS = (-180.0, 180.0, 121)

#: Per-instance invert() memo size bound; the cache is cleared (not LRU
#: evicted) past this, which is far above any per-session probe count.
_INVERT_CACHE_MAX = 4096

_log = get_logger("core.localize")


@dataclass(frozen=True)
class LocalizationCandidate:
    """One solution of the two-trajectory intersection."""

    radius_m: float
    theta_deg: float

    @property
    def position(self) -> np.ndarray:
        return polar_to_cartesian(self.radius_m, self.theta_deg)


class DelayMap:
    """Tabulated binaural delay field for one head parameter vector.

    Parameters
    ----------
    head:
        Candidate head geometry ``E``.
    radii:
        ``(min, max, count)`` radial grid specification in meters.
    thetas:
        ``(min, max, count)`` angular grid specification in degrees.
    refine:
        Whether grazing-zone roots (near the ear axis) are re-solved
        against the exact delay model.  Accurate but ~850 extra path
        evaluations per affected probe; the fusion optimizer turns it off
        in its inner loop, where the coarse candidates rank heads just as
        well, and back on for the final localization pass.
    """


    def __init__(
        self,
        head: HeadGeometry,
        radii: tuple[float, float, int] = DEFAULT_RADII,
        thetas: tuple[float, float, int] = DEFAULT_THETAS,
        speed_of_sound: float = SPEED_OF_SOUND,
        model: str = "diffraction",
        refine: bool = True,
        tables: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        r_min, r_max, n_r = radii
        t_min, t_max, n_t = thetas
        if r_min <= 0 or r_max <= r_min or n_r < 4:
            raise GeometryError(f"invalid radial grid {radii}")
        if t_max <= t_min or n_t < 8:
            raise GeometryError(f"invalid angular grid {thetas}")
        if model not in ("diffraction", "euclidean"):
            raise GeometryError(
                f"model must be 'diffraction' or 'euclidean', got {model!r}"
            )
        max_axis = max(head.parameters)
        if r_min <= max_axis:
            # The caller's radial grid starts inside the head; the map can
            # only honor radii outside the boundary, so self.radii will not
            # match the requested spec — say so instead of adjusting silently.
            adjusted = max_axis + 0.01
            obs_metrics.counter("localize.radial_grid_adjusted").inc()
            _log.warning(
                kv(
                    "localize.radial_grid_adjusted",
                    requested_r_min_m=r_min,
                    adjusted_r_min_m=adjusted,
                    head_max_axis_m=max_axis,
                )
            )
            r_min = adjusted

        self.head = head
        self.model = model
        self.refine = refine
        self.speed_of_sound = speed_of_sound
        self.radii = np.linspace(r_min, r_max, n_r)
        self.thetas_deg = np.linspace(t_min, t_max, n_t)

        if tables is not None:
            # Precomputed tables (the mapstore's mmap-loaded artifacts):
            # skip the batch diffraction solve entirely.  The arrays must
            # match the grid this spec would have produced — shape is the
            # only checkable invariant, content is the store's contract.
            t_left, t_right = tables
            if t_left.shape != (n_r, n_t) or t_right.shape != (n_r, n_t):
                raise GeometryError(
                    f"precomputed tables {t_left.shape}/{t_right.shape} do not "
                    f"match the {(n_r, n_t)} grid"
                )
            self.t_left = t_left  # (r, theta)
            self.t_right = t_right
            obs_metrics.counter("localize.delay_map_loads").inc()
        else:
            grid_r, grid_t = np.meshgrid(self.radii, self.thetas_deg, indexing="ij")
            sources = polar_to_cartesian(grid_r.ravel(), grid_t.ravel())
            t_left, t_right = self._delays_for(sources)
            self.t_left = t_left.reshape(n_r, n_t)  # (r, theta)
            self.t_right = t_right.reshape(n_r, n_t)
            obs_metrics.counter("localize.delay_map_builds").inc()
        #: Memoized invert() results keyed by the exact (t1, t2) pair — the
        #: tables are immutable after construction, so a repeated delay pair
        #: (cached maps re-served across optimizer runs) is a pure replay.
        self._invert_cache: dict[
            tuple[float, float], tuple[LocalizationCandidate, ...]
        ] = {}

    def _delays_for(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact (un-tabulated) per-source binaural delays under the model."""
        if self.model == "diffraction":
            return binaural_delays_batch(self.head, sources, self.speed_of_sound)
        # The through-the-head straight-line baseline (ablation only).
        t_left = (
            np.linalg.norm(sources - self.head.ear_position(Ear.LEFT), axis=1)
            / self.speed_of_sound
        )
        t_right = (
            np.linalg.norm(sources - self.head.ear_position(Ear.RIGHT), axis=1)
            / self.speed_of_sound
        )
        return t_left, t_right

    def _radius_for_left_delay(self, t1: float) -> np.ndarray:
        """Per-angle radius solving ``t_L(r, theta) = t1`` (nan if out of range).

        A column where the bracketing nodes are not strictly increasing
        (``t_hi <= t_lo``: a flat or non-monotonic table column) has no
        well-defined inverse; it yields NaN — never a candidate snapped to a
        grid radius — and is counted under ``localize.degenerate_columns``
        so the fusion sentinels see inversions degraded by a bad table.
        """
        table = self.t_left  # increasing along axis 0
        below = table < t1
        idx = below.sum(axis=0)  # first row with t_L >= t1
        n_r = self.radii.shape[0]
        valid = (idx > 0) & (idx < n_r)
        idx_c = np.clip(idx, 1, n_r - 1)
        t_lo = np.take_along_axis(table, (idx_c - 1)[None, :], axis=0)[0]
        t_hi = np.take_along_axis(table, idx_c[None, :], axis=0)[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(t_hi > t_lo, (t1 - t_lo) / (t_hi - t_lo), np.nan)
        degenerate = valid & ~(t_hi > t_lo)
        if degenerate.any():
            obs_metrics.counter("localize.degenerate_columns").inc(
                int(degenerate.sum())
            )
        radius = self.radii[idx_c - 1] + frac * (self.radii[idx_c] - self.radii[idx_c - 1])
        return np.where(valid, radius, np.nan)

    def _right_delay_at(self, radius: np.ndarray) -> np.ndarray:
        """``t_R`` interpolated at per-angle radii (nan-propagating)."""
        idx = np.searchsorted(self.radii, radius)
        n_r = self.radii.shape[0]
        idx_c = np.clip(idx, 1, n_r - 1)
        r_lo = self.radii[idx_c - 1]
        r_hi = self.radii[idx_c]
        frac = (radius - r_lo) / (r_hi - r_lo)
        t_lo = np.take_along_axis(self.t_right, (idx_c - 1)[None, :], axis=0)[0]
        t_hi = np.take_along_axis(self.t_right, idx_c[None, :], axis=0)[0]
        return t_lo + frac * (t_hi - t_lo)

    def invert(self, t_left: float, t_right: float) -> list[LocalizationCandidate]:
        """All phone locations consistent with the measured delay pair.

        Returns up to a handful of candidates (generically two: one in
        front, one behind — the paper's A and B in Figure 10b).  Empty when
        the delays are inconsistent with any grid location, which the fusion
        stage penalizes.
        """
        if not np.isfinite(t_left) or not np.isfinite(t_right):
            return []
        key = (float(t_left), float(t_right))
        cached = self._invert_cache.get(key)
        if cached is not None:
            obs_metrics.counter("localize.invert_cache_hits").inc()
            return list(cached)
        radius = self._radius_for_left_delay(t_left)
        g = self._right_delay_at(radius) - t_right
        candidates: list[LocalizationCandidate] = []
        finite = np.isfinite(g)
        for i in range(g.shape[0] - 1):
            if not (finite[i] and finite[i + 1]):
                continue
            if g[i] == 0.0 or (g[i] < 0) != (g[i + 1] < 0):
                span = g[i + 1] - g[i]
                frac = 0.0 if span == 0 else float(-g[i] / span)
                theta = float(
                    self.thetas_deg[i]
                    + frac * (self.thetas_deg[i + 1] - self.thetas_deg[i])
                )
                r_here = float(radius[i] + frac * (radius[i + 1] - radius[i]))
                if np.isfinite(r_here):
                    candidates.append(LocalizationCandidate(r_here, theta))
        out = self._refine_grazing(t_left, t_right, g, radius, finite, candidates)
        if len(self._invert_cache) >= _INVERT_CACHE_MAX:
            self._invert_cache.clear()
        self._invert_cache[key] = tuple(out)
        return out

    def _refine_grazing(
        self,
        t_left: float,
        t_right: float,
        g: np.ndarray,
        radius: np.ndarray,
        finite: np.ndarray,
        coarse: list[LocalizationCandidate],
    ) -> list[LocalizationCandidate]:
        """Re-solve grazing-zone roots against the *exact* delay model.

        Near the ear axis (theta ~ 90 deg) the two iso-delay trajectories
        meet almost tangentially, so ``g(theta)`` hugs zero over several
        grid steps.  The linear scan then fails in two ways:

        * **tangential touch** — ``g`` grazes zero between nodes with no
          sign change at all, so the root is missed entirely;
        * **close root pairs** — ``g`` dips through zero and back within
          a couple of grid steps; the crossings exist but the strong
          curvature makes linear interpolation mislocate them by up to
          half a step.

        Both cases are cheap to detect on the tabulated ``g`` and rare in
        practice, so each detected zone is re-solved *without* tables:
        per fine angle, bisect the radius where the exact left-ear delay
        equals ``t_left`` (delay is strictly increasing in radius), then
        read the sign-change roots of the exact right-ear mismatch.  Well
        separated roots — the generic front/back pair — pass through
        untouched.
        """
        step = float(self.thetas_deg[1] - self.thetas_deg[0])
        ordered = sorted(coarse, key=lambda c: c.theta_deg)
        if not self.refine:
            # Cheap mode (fusion inner loop): keep the coarse crossings and
            # add the grazing vertices as-is — accurate to ~a grid step,
            # which is all the optimizer's cost ranking needs.
            return ordered + [
                LocalizationCandidate(r_here, theta)
                for theta, r_here in self._tangential_vertices(
                    g, radius, finite, ordered
                )
            ]
        #: Each zone is (theta_lo, theta_hi, r_center, fallback candidates).
        zones: list[tuple[float, float, float, list[LocalizationCandidate]]] = []
        out: list[LocalizationCandidate] = []

        i = 0
        while i < len(ordered):
            j = i
            while (
                j + 1 < len(ordered)
                and ordered[j + 1].theta_deg - ordered[j].theta_deg <= 1.2 * step
            ):
                j += 1
            if j > i:
                cluster = ordered[i : j + 1]
                zones.append((
                    cluster[0].theta_deg - 1.5 * step,
                    cluster[-1].theta_deg + 1.5 * step,
                    cluster[0].radius_m,
                    cluster,
                ))
            else:
                out.append(ordered[i])
            i = j + 1

        for theta, r_here in self._tangential_vertices(g, radius, finite, ordered):
            zones.append((
                theta - 1.5 * step,
                theta + 1.5 * step,
                r_here,
                [LocalizationCandidate(r_here, theta)],
            ))

        for theta_lo, theta_hi, r_center, fallback in zones:
            theta_lo = max(theta_lo, float(self.thetas_deg[0]))
            theta_hi = min(theta_hi, float(self.thetas_deg[-1]))
            refined = self._solve_zone(t_left, t_right, theta_lo, theta_hi, r_center)
            # None means the zone could not be re-solved (keep the coarse
            # fallback); an empty list means the exact model confidently
            # found no root there (a false flag — drop it).
            for candidate in fallback if refined is None else refined:
                if not any(
                    abs(candidate.theta_deg - kept.theta_deg) <= 0.5 * step
                    for kept in out
                ):
                    out.append(candidate)
        return out

    def _tangential_vertices(
        self,
        g: np.ndarray,
        radius: np.ndarray,
        finite: np.ndarray,
        found: list[LocalizationCandidate],
    ) -> list[tuple[float, float]]:
        """``(theta, radius)`` of extrema of ``g`` that may graze zero.

        Fit a parabola through each no-sign-change local extremum's three
        nodes and flag its vertex when the fitted peak comes within a
        generous margin of zero.  The margin is deliberately loose: near a
        tangency the true peak of ``g`` is a narrow cusp that a parabola
        through 3-degree-spaced nodes badly underestimates (observed: a
        real zero fitted as -5e-6 s), so the tolerance combines a
        curvature term with an absolute floor for the delay tables' own
        bilinear noise.  False flags are harmless — the exact re-solve in
        :meth:`_solve_zone` discards zones with no actual root.
        """
        step = float(self.thetas_deg[1] - self.thetas_deg[0])
        # Vectorized over interior nodes: this runs on every invert() call
        # inside the fusion optimizer, so no per-node python loop.
        g_prev, g_mid, g_next = g[:-2], g[1:-1], g[2:]
        neg_prev, neg_mid, neg_next = g_prev < 0, g_mid < 0, g_next < 0
        with np.errstate(invalid="ignore", divide="ignore"):
            a = 0.5 * (g_next + g_prev - 2.0 * g_mid)
            b = 0.5 * (g_next - g_prev)
            x_star = np.where(a != 0.0, -b / (2.0 * a), np.nan)
            g_vertex = g_mid - np.where(a != 0.0, b * b / (4.0 * a), np.nan)
            tolerance = 2.0 * np.abs(a) + 1e-6
            mask = (
                finite[:-2] & finite[1:-1] & finite[2:]
                # Sign changes at the neighbouring nodes were already found.
                & (neg_prev == neg_mid) & (neg_mid == neg_next)
                & (a != 0.0)
                & (np.abs(x_star) <= 1.0)
                & (
                    ((a < 0) & neg_mid & (g_vertex >= -tolerance))
                    | ((a > 0) & ~neg_mid & (g_vertex <= tolerance))
                )
            )
        vertices: list[tuple[float, float]] = []
        for i in np.flatnonzero(mask):
            x = float(x_star[i])
            theta = float(self.thetas_deg[i + 1] + x * step)
            neighbour = i + 2 if x >= 0 else i
            r_here = float(
                radius[i + 1] + abs(x) * (radius[neighbour] - radius[i + 1])
            )
            if not np.isfinite(r_here):
                continue
            if any(abs(c.theta_deg - theta) <= step for c in found):
                continue
            if any(abs(theta_v - theta) <= step for theta_v, _ in vertices):
                continue
            vertices.append((theta, r_here))
        return vertices

    def _solve_zone(
        self,
        t_left: float,
        t_right: float,
        theta_lo: float,
        theta_hi: float,
        r_center: float,
    ) -> list[LocalizationCandidate] | None:
        """Exact (table-free) roots of the delay mismatch over one zone.

        Per fine angle, bisect the radius where the exact left-ear delay
        equals ``t_left``, evaluate the exact right-ear mismatch ``g``, and
        return its linearly interpolated sign-change roots.  When ``g``
        only touches zero (a true tangency) the grazing extremum's parabola
        vertex is the root.  An empty list is an authoritative "no root in
        this zone"; ``None`` means the zone could not be solved (bisection
        never bracketed ``t_left``).  Costs ~850 vectorized path
        evaluations, only on the rare ear-axis probes.
        """
        thetas = np.linspace(theta_lo, theta_hi, 33)
        floor = max(r_center - 0.04, max(self.head.parameters) + 0.005, self.radii[0])
        lo = np.full(thetas.shape, floor)
        hi = np.full(thetas.shape, r_center + 0.04)
        t_l = t_r = None
        for _ in range(26):
            mid = 0.5 * (lo + hi)
            t_l, t_r = self._delays_for(polar_to_cartesian(mid, thetas))
            go_up = t_l < t_left
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        mid = 0.5 * (lo + hi)
        # Columns whose bisection never bracketed t_left sit pinned at a
        # bound with a delay mismatch far above the solver's resolution.
        valid = np.abs(t_l - t_left) < 1e-7
        if valid.sum() < 3:
            return None
        g = np.where(valid, t_r - t_right, np.nan)

        roots: list[LocalizationCandidate] = []
        for i in range(thetas.shape[0] - 1):
            if not (valid[i] and valid[i + 1]):
                continue
            if g[i] == 0.0 or (g[i] < 0) != (g[i + 1] < 0):
                span = g[i + 1] - g[i]
                frac = 0.0 if span == 0 else float(-g[i] / span)
                roots.append(LocalizationCandidate(
                    float(mid[i] + frac * (mid[i + 1] - mid[i])),
                    float(thetas[i] + frac * (thetas[i + 1] - thetas[i])),
                ))
        if roots:
            return roots

        # No crossing: a true tangency, if the extremum reaches zero.
        if np.nanmax(g) < 0.0:
            pivot = int(np.nanargmax(g))
        elif np.nanmin(g) > 0.0:
            pivot = int(np.nanargmin(g))
        else:
            return []
        pivot = min(max(pivot, 1), thetas.shape[0] - 2)
        window = g[pivot - 1 : pivot + 2]
        if not np.all(np.isfinite(window)):
            return []
        a = 0.5 * (window[2] + window[0] - 2.0 * window[1])
        b = 0.5 * (window[2] - window[0])
        if a == 0.0:
            return []
        x_star = float(np.clip(-b / (2.0 * a), -1.0, 1.0))
        g_vertex = window[1] - b * b / (4.0 * a)
        # A cusp-shaped peak straddling a node fits a vertex as low as
        # ~0.75|a| even when the true peak is exactly zero, hence the
        # full-|a| margin.
        if abs(g_vertex) > abs(a) + 1e-8:
            return []
        fine_step = float(thetas[1] - thetas[0])
        theta_star = float(thetas[pivot] + x_star * fine_step)
        neighbour = pivot + 1 if x_star >= 0 else pivot - 1
        r_star = float(mid[pivot] + abs(x_star) * (mid[neighbour] - mid[pivot]))
        return [LocalizationCandidate(r_star, theta_star)]

    def locate(
        self, t_left: float, t_right: float, imu_angle_deg: float
    ) -> LocalizationCandidate | None:
        """The candidate closest to the IMU angle (paper's disambiguation).

        Returns ``None`` when the delays admit no solution under this head
        parameter vector.
        """
        candidates = self.invert(t_left, t_right)
        if not candidates:
            return None
        return min(candidates, key=lambda c: abs(c.theta_deg - imu_angle_deg))

    # ------------------------------------------------------------------
    # Batched inversion: one vectorized pass over a whole probe array.
    # Every arithmetic expression below mirrors its scalar counterpart
    # elementwise in float64, so the candidates are bit-identical to
    # per-probe invert()/locate() — the golden digests enforce this.
    # ------------------------------------------------------------------

    def _radius_for_left_delay_batch(self, t1: np.ndarray) -> np.ndarray:
        """Rows of :meth:`_radius_for_left_delay` for many ``t1`` at once."""
        table = self.t_left  # increasing along axis 0
        n_r = self.radii.shape[0]
        below = table[None, :, :] < t1[:, None, None]  # (m, n_r, n_t)
        idx = below.sum(axis=1)  # (m, n_t)
        valid = (idx > 0) & (idx < n_r)
        idx_c = np.clip(idx, 1, n_r - 1)
        cols = np.arange(table.shape[1])[None, :]
        t_lo = table[idx_c - 1, cols]
        t_hi = table[idx_c, cols]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(t_hi > t_lo, (t1[:, None] - t_lo) / (t_hi - t_lo), np.nan)
        degenerate = valid & ~(t_hi > t_lo)
        if degenerate.any():
            obs_metrics.counter("localize.degenerate_columns").inc(
                int(degenerate.sum())
            )
        radius = self.radii[idx_c - 1] + frac * (self.radii[idx_c] - self.radii[idx_c - 1])
        return np.where(valid, radius, np.nan)

    def _right_delay_at_batch(self, radius: np.ndarray) -> np.ndarray:
        """Rows of :meth:`_right_delay_at` for a ``(m, n_theta)`` radius array."""
        idx = np.searchsorted(self.radii, radius)
        n_r = self.radii.shape[0]
        idx_c = np.clip(idx, 1, n_r - 1)
        r_lo = self.radii[idx_c - 1]
        r_hi = self.radii[idx_c]
        frac = (radius - r_lo) / (r_hi - r_lo)
        cols = np.arange(self.t_right.shape[1])[None, :]
        t_lo = self.t_right[idx_c - 1, cols]
        t_hi = self.t_right[idx_c, cols]
        return t_lo + frac * (t_hi - t_lo)

    def _tangential_vertices_batch(
        self,
        g: np.ndarray,
        radius: np.ndarray,
        finite: np.ndarray,
        found: list[list[LocalizationCandidate]],
    ) -> list[list[tuple[float, float]]]:
        """Per-row :meth:`_tangential_vertices` with one vectorized node scan.

        The parabola fit and the graze mask are evaluated for all rows at
        once; only the (rare) flagged nodes fall back to the scalar
        per-vertex bookkeeping, in the same node order as the scalar scan.
        """
        step = float(self.thetas_deg[1] - self.thetas_deg[0])
        g_prev, g_mid, g_next = g[:, :-2], g[:, 1:-1], g[:, 2:]
        neg_prev, neg_mid, neg_next = g_prev < 0, g_mid < 0, g_next < 0
        with np.errstate(invalid="ignore", divide="ignore"):
            a = 0.5 * (g_next + g_prev - 2.0 * g_mid)
            b = 0.5 * (g_next - g_prev)
            x_star = np.where(a != 0.0, -b / (2.0 * a), np.nan)
            g_vertex = g_mid - np.where(a != 0.0, b * b / (4.0 * a), np.nan)
            tolerance = 2.0 * np.abs(a) + 1e-6
            mask = (
                finite[:, :-2] & finite[:, 1:-1] & finite[:, 2:]
                & (neg_prev == neg_mid) & (neg_mid == neg_next)
                & (a != 0.0)
                & (np.abs(x_star) <= 1.0)
                & (
                    ((a < 0) & neg_mid & (g_vertex >= -tolerance))
                    | ((a > 0) & ~neg_mid & (g_vertex <= tolerance))
                )
            )
        vertices: list[list[tuple[float, float]]] = [[] for _ in range(g.shape[0])]
        rows, nodes = np.nonzero(mask)  # row-major: scalar flatnonzero order
        for k, i in zip(rows, nodes):
            x = float(x_star[k, i])
            theta = float(self.thetas_deg[i + 1] + x * step)
            neighbour = i + 2 if x >= 0 else i
            r_here = float(
                radius[k, i + 1] + abs(x) * (radius[k, neighbour] - radius[k, i + 1])
            )
            if not np.isfinite(r_here):
                continue
            if any(abs(c.theta_deg - theta) <= step for c in found[k]):
                continue
            if any(abs(theta_v - theta) <= step for theta_v, _ in vertices[k]):
                continue
            vertices[k].append((theta, r_here))
        return vertices

    def invert_batch(
        self, t_left: np.ndarray, t_right: np.ndarray
    ) -> list[list[LocalizationCandidate]]:
        """Per-probe :meth:`invert` results for whole delay arrays at once.

        One vectorized radius solve / interpolation / crossing scan covers
        every uncached probe; the per-probe memo cache is consulted and
        populated exactly as the scalar path would, so mixing batch and
        scalar calls on one map stays consistent.
        """
        t1 = np.asarray(t_left, dtype=float)
        t2 = np.asarray(t_right, dtype=float)
        m = t1.shape[0]
        out: list[list[LocalizationCandidate] | None] = [None] * m
        todo: list[int] = []  # probe index of each computed row
        pending: dict[tuple[float, float], int] = {}  # key -> row
        row_of: dict[int, int] = {}  # probe index -> row
        for k in range(m):
            if not (np.isfinite(t1[k]) and np.isfinite(t2[k])):
                out[k] = []
                continue
            key = (float(t1[k]), float(t2[k]))
            cached = self._invert_cache.get(key)
            if cached is not None:
                obs_metrics.counter("localize.invert_cache_hits").inc()
                out[k] = list(cached)
                continue
            row = pending.get(key)
            if row is None:
                row = len(todo)
                todo.append(k)
                pending[key] = row
            else:
                # In-batch duplicate: computed once, served as a cache hit —
                # matching the scalar loop's counter arithmetic.
                obs_metrics.counter("localize.invert_cache_hits").inc()
            row_of[k] = row
        if todo:
            sub1 = t1[todo]
            sub2 = t2[todo]
            radius = self._radius_for_left_delay_batch(sub1)
            g = self._right_delay_at_batch(radius) - sub2[:, None]
            finite = np.isfinite(g)
            gl, gr = g[:, :-1], g[:, 1:]
            cross = finite[:, :-1] & finite[:, 1:] & (
                (gl == 0.0) | ((gl < 0) != (gr < 0))
            )
            coarse: list[list[LocalizationCandidate]] = [[] for _ in todo]
            rows, nodes = np.nonzero(cross)  # row-major: scalar scan order
            if rows.size:
                gl_s = g[rows, nodes]
                span = g[rows, nodes + 1] - gl_s
                with np.errstate(invalid="ignore", divide="ignore"):
                    frac = np.where(span == 0.0, 0.0, -gl_s / span)
                theta = self.thetas_deg[nodes] + frac * (
                    self.thetas_deg[nodes + 1] - self.thetas_deg[nodes]
                )
                r_here = radius[rows, nodes] + frac * (
                    radius[rows, nodes + 1] - radius[rows, nodes]
                )
                for n in range(rows.size):
                    if np.isfinite(r_here[n]):
                        coarse[rows[n]].append(
                            LocalizationCandidate(float(r_here[n]), float(theta[n]))
                        )
            if self.refine:
                resolved = [
                    self._refine_grazing(
                        float(sub1[row]), float(sub2[row]),
                        g[row], radius[row], finite[row], coarse[row],
                    )
                    for row in range(len(todo))
                ]
            else:
                ordered = [
                    sorted(cands, key=lambda c: c.theta_deg) for cands in coarse
                ]
                grazes = self._tangential_vertices_batch(g, radius, finite, ordered)
                resolved = [
                    ordered[row]
                    + [
                        LocalizationCandidate(r_v, theta_v)
                        for theta_v, r_v in grazes[row]
                    ]
                    for row in range(len(todo))
                ]
            for key, row in pending.items():
                if len(self._invert_cache) >= _INVERT_CACHE_MAX:
                    self._invert_cache.clear()
                self._invert_cache[key] = tuple(resolved[row])
            for k, row in row_of.items():
                out[k] = list(resolved[row])
        return out  # type: ignore[return-value]

    def locate_batch(
        self,
        t_left: np.ndarray,
        t_right: np.ndarray,
        imu_angles_deg: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate` over a probe array.

        Returns ``(theta_deg, radius_m, solved)`` arrays; unsolved probes
        (non-finite delays or no consistent grid location) carry NaN angles
        and radii with ``solved`` False — the layout fusion consumes.
        """
        candidate_lists = self.invert_batch(t_left, t_right)
        n = len(candidate_lists)
        thetas = np.full(n, np.nan)
        radii = np.full(n, np.nan)
        solved = np.zeros(n, dtype=bool)
        for i, candidates in enumerate(candidate_lists):
            if not candidates:
                continue
            alpha = imu_angles_deg[i]
            best = min(candidates, key=lambda c: abs(c.theta_deg - alpha))
            thetas[i] = best.theta_deg
            radii[i] = best.radius_m
            solved[i] = True
        return thetas, radii, solved


#: LRU store of built maps.  ~34 KB per coarse fusion map, so the default
#: capacity comfortably holds every unique vertex of one optimizer run plus
#: the full-resolution final maps of several recent sessions.
_MAP_CACHE: OrderedDict[tuple, DelayMap] = OrderedDict()
_MAP_CACHE_MAX = 256
_MAP_CACHE_LOCK = threading.Lock()


#: Decimal places for quantizing continuous cache-key components: 1e-9 m
#: (a nanometer) absorbs ulp-level arithmetic noise from callers that pass
#: geometry through algebra (salvage retries, online refinement) while
#: staying five orders of magnitude below the optimizer's xatol (2e-4 m),
#: so numerically distinct candidate heads never collapse onto one entry.
MAP_KEY_DECIMALS = 9


def quantize_key_component(value: float) -> float:
    """Deterministic quantization for continuous delay-map key components.

    The single definition shared by the in-memory LRU key and the on-disk
    :mod:`repro.core.mapstore` artifact key — two values within the
    quantization tolerance always address the same entry in both.
    """
    return round(float(value), MAP_KEY_DECIMALS)


def _map_cache_key(
    parameters: tuple[float, float, float],
    n_boundary: int,
    radii: tuple[float, float, int],
    thetas: tuple[float, float, int],
    speed_of_sound: float,
    model: str,
    refine: bool,
) -> tuple:
    a, b, c = (quantize_key_component(v) for v in parameters)
    return (
        a,
        b,
        c,
        int(n_boundary),
        tuple(radii),
        tuple(thetas),
        quantize_key_component(speed_of_sound),
        model,
        bool(refine),
    )


def cached_delay_map(
    parameters: tuple[float, float, float],
    n_boundary: int = DEFAULT_BOUNDARY_SAMPLES,
    radii: tuple[float, float, int] = DEFAULT_RADII,
    thetas: tuple[float, float, int] = DEFAULT_THETAS,
    speed_of_sound: float = SPEED_OF_SOUND,
    model: str = "diffraction",
    refine: bool = True,
) -> DelayMap:
    """A :class:`DelayMap` for ``E = (a, b, c)``, memoized process-wide.

    The fusion optimizer, repeated personalizations of one session, and the
    evaluation cohort all rebuild maps for head parameter vectors they have
    already seen; a hit skips both the :class:`HeadGeometry` boundary build
    and the full batch diffraction solve.  Maps are immutable after
    construction (``invert`` results are memoized per instance), so sharing
    one instance across callers cannot change any numeric output.

    Hits/misses are counted under ``localize.delay_map_cache_hits`` /
    ``_misses``; :func:`clear_delay_map_cache` empties the store (tests,
    memory-pressure escape hatch).

    When a :mod:`repro.core.mapstore` artifact store is active
    (``REPRO_MAP_STORE``), an in-memory miss first tries the on-disk
    tables for this key (mmap-loaded, no solve); a store miss builds the
    map and persists its tables so the next cold process starts warm.
    """
    key = _map_cache_key(
        parameters, n_boundary, radii, thetas, speed_of_sound, model, refine
    )
    with _MAP_CACHE_LOCK:
        cached = _MAP_CACHE.get(key)
        if cached is not None:
            _MAP_CACHE.move_to_end(key)
            obs_metrics.counter("localize.delay_map_cache_hits").inc()
            return cached
    # Build outside the lock: a concurrent duplicate build wastes one solve
    # but never blocks other threads behind a construction (a few ms for the
    # optimizer's 240-vertex maps, ~20 ms for the final 720-vertex one).
    obs_metrics.counter("localize.delay_map_cache_misses").inc()
    a, b, c = (float(v) for v in parameters)
    head = HeadGeometry(a=a, b=b, c=c, n_boundary=int(n_boundary))
    store = mapstore.active_store()
    built = None
    if store is not None:
        tables = store.load(key)
        if tables is not None:
            try:
                built = DelayMap(
                    head, radii, thetas, speed_of_sound,
                    model=model, refine=refine, tables=tables,
                )
            except GeometryError:
                # Validated-on-load artifacts should never get here; treat
                # any mismatch as corruption and fall through to a rebuild.
                store.discard(key)
                built = None
    if built is None:
        built = DelayMap(
            head, radii, thetas, speed_of_sound, model=model, refine=refine
        )
        if store is not None:
            store.save(key, built.t_left, built.t_right)
    with _MAP_CACHE_LOCK:
        existing = _MAP_CACHE.get(key)
        if existing is not None:
            return existing
        _MAP_CACHE[key] = built
        while len(_MAP_CACHE) > _MAP_CACHE_MAX:
            _MAP_CACHE.popitem(last=False)
    return built


def delay_map_cache_size() -> int:
    """Number of maps currently held by :func:`cached_delay_map`."""
    with _MAP_CACHE_LOCK:
        return len(_MAP_CACHE)


def clear_delay_map_cache() -> None:
    """Drop every memoized map (the hit/miss counters are left untouched)."""
    with _MAP_CACHE_LOCK:
        _MAP_CACHE.clear()
