"""Vectorized diffraction-path lengths for many sources at once.

UNIQ's sensor-fusion stage re-localizes every probe for every candidate head
parameter vector the optimizer tries, which needs *tens of thousands* of
source-to-ear path evaluations per personalization.  This module reimplements
the wrap-around shortest-path logic of :mod:`repro.geometry.paths` as pure
array operations over a whole batch of source points.

A source's wrap paths only need the two tangent vertices that bound its
visible arc and whether each ear vertex is visible.  The tangent points of
each half-ellipse have a closed form, so each source's visibility sign test
runs on a few vertices around the two predicted tangents and the two ears —
not on the whole boundary.  The dense per-vertex scan survives as the
fallback for rows the closed form cannot place, and as the test oracle.

Results agree with the scalar solver to boundary-sampling resolution (the
test suite asserts equality to < 0.1 mm).
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_SOUND
from repro.errors import GeometryError
from repro.geometry.head import Ear, HeadGeometry
from repro.obs import metrics as obs_metrics

#: Vertex offsets examined around ``floor`` of each predicted tangent index.
#: The closed form lands within a vertex of the scan's horizon (entry at
#: offset 1, exit at 0); the margin only matters for grazing sources, where
#: a miss falls back to the dense scan.
_WINDOW_OFFSETS = np.arange(-2, 4)


def _dense_horizon(
    head: HeadGeometry, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference horizon from the full ``(m, n)`` vertex-visibility matrix.

    Returns ``(ear_visible, first_visible, last_visible)``: the ``(m, 2)``
    visibility of the (left, right) ear vertices and, per source, the first
    and last vertex of its contiguous visible arc (0 when nothing is
    visible).  Fallback and test oracle for :func:`_horizon_indices`.
    """
    boundary = head.boundary
    diff = sources[:, None, :] - boundary.points[None, :, :]
    visible = np.einsum("nk,mnk->mn", boundary.normals, diff) > 0.0
    enters = visible & ~np.roll(visible, 1, axis=1)
    exits = visible & ~np.roll(visible, -1, axis=1)
    # Exactly one entry/exit per row for external points of a convex body.
    ears = [boundary.left_ear_index, boundary.right_ear_index]
    return visible[:, ears], np.argmax(enters, axis=1), np.argmax(exits, axis=1)


def _tangent_points(
    head: HeadGeometry, px: np.ndarray, py: np.ndarray, depth: float
) -> tuple[np.ndarray, ...]:
    """Both tangent points from each source to the full ``(a, depth)`` ellipse.

    A vertex ``(a sin t, d cos t)`` faces the source exactly when
    ``u sin t + v cos t > 1`` with ``(u, v) = (px/a, py/d)``, i.e. on the arc
    ``atan2(u, v) +- arccos(1/rho)``, ``rho = |(u, v)|``.  Its endpoints are
    returned as unnormalized points (a positive common factor ``1/rho**2``
    dropped): ``(x_entry, y_entry, x_exit, y_exit)`` in order of increasing
    vertex index, plus the ``rho > 1`` mask of sources outside the ellipse.
    """
    u = px / head.a
    v = py / depth
    rho_sq = u * u + v * v
    s = np.sqrt(np.maximum(rho_sq - 1.0, 0.0))
    return (
        head.a * (u - v * s),
        depth * (v + u * s),
        head.a * (u + v * s),
        depth * (v - u * s),
        rho_sq > 1.0,
    )


def _horizon_indices(
    head: HeadGeometry, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-source visibility horizons over the sampled boundary.

    Returns ``(ear_visible, first_visible, last_visible)`` exactly as
    :func:`_dense_horizon` does.  Each horizon of the convex composite is a
    tangent point of the half it lies on, so the front (``y >= 0``)
    ellipse's tangent is taken when it lands on the front half and the back
    ellipse's otherwise.  The dense scan's own sign test then runs on a
    window around each predicted index, so the returned indices are the
    scan's; rows without exactly one entry and one exit in their windows
    take the dense scan.
    """
    boundary = head.boundary
    n = boundary.n
    x, y = boundary.points[:, 0], boundary.points[:, 1]
    nx, ny = boundary.normals[:, 0], boundary.normals[:, 1]
    px, py = sources[:, 0], sources[:, 1]

    fxe, fye, fxx, fyx, f_out = _tangent_points(head, px, py, head.b)
    bxe, bye, bxx, byx, b_out = _tangent_points(head, px, py, head.c)
    front_entry = f_out & (fye >= 0.0)
    front_exit = f_out & (fyx >= 0.0)
    placed = (front_entry | b_out) & (front_exit | b_out)
    psi_entry = np.arctan2(
        np.where(front_entry, fxe, bxe), np.where(front_entry, fye, bye)
    )
    psi_exit = np.arctan2(
        np.where(front_exit, fxx, bxx), np.where(front_exit, fyx, byx)
    )
    scale = n / (2.0 * np.pi)

    def faces(index: np.ndarray) -> np.ndarray:
        # Same products and sums as the dense scan's einsum, vertex by vertex.
        return (
            np.take(nx, index) * (px[:, None] - np.take(x, index))
            + np.take(ny, index) * (py[:, None] - np.take(y, index))
        ) > 0.0

    def window(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        base = np.floor(psi * scale).astype(np.intp)
        index = (base[:, None] + _WINDOW_OFFSETS[None, :]) % n
        return index, faces(index)

    entry_index, entry_visible = window(psi_entry)
    entries = entry_visible[:, 1:] & ~entry_visible[:, :-1]
    exit_index, exit_visible = window(psi_exit)
    exits = exit_visible[:, :-1] & ~exit_visible[:, 1:]
    rows = np.arange(sources.shape[0])
    first_visible = entry_index[rows, np.argmax(entries, axis=1) + 1]
    last_visible = exit_index[rows, np.argmax(exits, axis=1)]
    ear_visible = faces(
        np.array([[boundary.left_ear_index, boundary.right_ear_index]])
    )

    fallback = ~(placed & (entries.sum(axis=1) == 1) & (exits.sum(axis=1) == 1))
    if fallback.any():
        obs_metrics.counter("geometry.horizon_fallback_rows").inc(
            int(fallback.sum())
        )
        dense = _dense_horizon(head, sources[fallback])
        ear_visible[fallback], first_visible[fallback], last_visible[fallback] = dense
    return ear_visible, first_visible, last_visible


def _ear_lengths(
    head: HeadGeometry,
    sources: np.ndarray,
    ear: Ear,
    ear_visible: np.ndarray,
    first_visible: np.ndarray,
    last_visible: np.ndarray,
    inside: np.ndarray,
) -> np.ndarray:
    boundary = head.boundary
    points = boundary.points
    ear_pos = head.ear_position(ear)
    ear_index = head.ear_index(ear)
    direct_length = np.linalg.norm(sources - ear_pos[None, :], axis=1)

    cum = boundary.cumulative_arc
    perimeter = boundary.perimeter

    def wrap_length(tangent_index: np.ndarray, travel_sign: int) -> np.ndarray:
        straight = np.linalg.norm(sources - points[tangent_index], axis=1)
        forward = (cum[ear_index] - cum[tangent_index]) % perimeter
        arc = forward if travel_sign >= 0 else (perimeter - forward) % perimeter
        return straight + arc

    wrapped = np.minimum(
        wrap_length(last_visible, +1), wrap_length(first_visible, -1)
    )
    lengths = np.where(ear_visible, direct_length, wrapped)
    return np.where(inside, np.nan, lengths)


def path_lengths_batch(
    head: HeadGeometry, sources: np.ndarray, ear: Ear
) -> np.ndarray:
    """Shortest-path lengths (m) from each source row to ``ear``.

    Parameters
    ----------
    head:
        The head geometry (any boundary resolution).
    sources:
        Array of shape ``(m, 2)``.

    Returns
    -------
    Array of shape ``(m,)`` of path lengths.  Sources inside the head yield
    ``nan`` (the caller decides whether that is an error or an out-of-domain
    grid cell).
    """
    sources = np.asarray(sources, dtype=float)
    if sources.ndim != 2 or sources.shape[1] != 2:
        raise GeometryError(f"sources must have shape (m, 2), got {sources.shape}")
    inside = head.contains(sources)
    ear_visible, first_visible, last_visible = _horizon_indices(head, sources)
    column = 0 if ear is Ear.LEFT else 1
    return _ear_lengths(
        head, sources, ear, ear_visible[:, column], first_visible, last_visible,
        inside,
    )


def binaural_delays_batch(
    head: HeadGeometry,
    sources: np.ndarray,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) first-tap delays in seconds for each source row.

    The horizon search is computed once and shared between the two ears.
    """
    sources = np.asarray(sources, dtype=float)
    if sources.ndim != 2 or sources.shape[1] != 2:
        raise GeometryError(f"sources must have shape (m, 2), got {sources.shape}")
    inside = head.contains(sources)
    ear_visible, first_visible, last_visible = _horizon_indices(head, sources)
    left = _ear_lengths(
        head, sources, Ear.LEFT, ear_visible[:, 0], first_visible, last_visible,
        inside,
    )
    right = _ear_lengths(
        head, sources, Ear.RIGHT, ear_visible[:, 1], first_visible, last_visible,
        inside,
    )
    return left / speed_of_sound, right / speed_of_sound
