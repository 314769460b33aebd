"""Spatial interpolation and ASCII heat maps.

The paper's motivating applications build *hyperlocal maps* (pressure
maps, noise maps) from point readings.  This module turns a handful of
georeferenced readings into a gridded field via inverse-distance
weighting and renders it as an ASCII heat map — the closest a terminal
gets to Pressurenet's pressure overlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.environment.geometry import Point

#: Glyph ramp from low to high values.
_RAMP = " .:-=+*#%@"


@dataclass(frozen=True)
class SpatialSample:
    """One georeferenced reading."""

    position: Point
    value: float


def idw_interpolate(
    samples: Sequence[SpatialSample],
    at: Point,
    *,
    power: float = 2.0,
    epsilon_m: float = 1.0,
) -> float:
    """Inverse-distance-weighted estimate of the field at ``at``."""
    if not samples:
        raise ValueError("need at least one sample")
    if power <= 0:
        raise ValueError("power must be positive")
    numerator = 0.0
    denominator = 0.0
    for sample in samples:
        distance = max(epsilon_m, sample.position.distance_to(at))
        weight = 1.0 / distance**power
        numerator += weight * sample.value
        denominator += weight
    return numerator / denominator


class StreamingHeatmap:
    """Incremental IDW field on a fixed grid.

    Each cell's weighted numerator and denominator accumulate in sample
    order, exactly as :func:`idw_interpolate` sums them at the cell
    centre, so the field is bit-identical to interpolating cell by
    cell; :func:`grid_field` is this fold over a sample list.
    """

    def __init__(
        self,
        width_m: float,
        height_m: float,
        *,
        cols: int = 40,
        rows: int = 16,
        power: float = 2.0,
        epsilon_m: float = 1.0,
    ) -> None:
        if cols < 1 or rows < 1:
            raise ValueError("grid must have at least one cell")
        if power <= 0:
            raise ValueError("power must be positive")
        self.cols = cols
        self.rows = rows
        self.power = power
        self.epsilon_m = epsilon_m
        self.samples = 0
        self._centers: List[List[Point]] = []
        self._num: List[List[float]] = []
        self._den: List[List[float]] = []
        for r in range(rows):
            # Row 0 at the top (max y) so the rendering reads like a map.
            y = height_m * (rows - 0.5 - r) / rows
            self._centers.append(
                [Point(width_m * (c + 0.5) / cols, y) for c in range(cols)]
            )
            self._num.append([0.0] * cols)
            self._den.append([0.0] * cols)

    def add(self, sample: SpatialSample) -> None:
        self.add_value(sample.position, sample.value)

    def add_value(self, position: Point, value: float) -> None:
        self.samples += 1
        power = self.power
        epsilon = self.epsilon_m
        for r in range(self.rows):
            centers = self._centers[r]
            num = self._num[r]
            den = self._den[r]
            for c in range(self.cols):
                distance = max(epsilon, position.distance_to(centers[c]))
                weight = 1.0 / distance**power
                num[c] += weight * value
                den[c] += weight

    def grid(self) -> List[List[float]]:
        """The interpolated field; needs at least one sample."""
        if self.samples == 0:
            raise ValueError("need at least one sample")
        return [
            [self._num[r][c] / self._den[r][c] for c in range(self.cols)]
            for r in range(self.rows)
        ]


def grid_field(
    samples: Sequence[SpatialSample],
    width_m: float,
    height_m: float,
    *,
    cols: int = 40,
    rows: int = 16,
) -> List[List[float]]:
    """Interpolate the field onto a rows×cols grid over a rectangle."""
    field = StreamingHeatmap(width_m, height_m, cols=cols, rows=rows)
    for sample in samples:
        field.add(sample)
    return field.grid()


def render_heatmap(
    samples: Sequence[SpatialSample],
    width_m: float,
    height_m: float,
    *,
    cols: int = 40,
    rows: int = 16,
    title: str = "",
    legend_format: str = "{:.1f}",
) -> str:
    """ASCII heat map of the interpolated field, with a value legend."""
    grid = grid_field(samples, width_m, height_m, cols=cols, rows=rows)
    flat = [v for row in grid for v in row]
    lo, hi = min(flat), max(flat)
    span = hi - lo

    def glyph(value: float) -> str:
        if span == 0.0:
            return _RAMP[len(_RAMP) // 2]
        index = int((value - lo) / span * (len(_RAMP) - 1))
        return _RAMP[index]

    lines = []
    if title:
        lines.append(title)
    border = "+" + "-" * cols + "+"
    lines.append(border)
    for row in grid:
        lines.append("|" + "".join(glyph(v) for v in row) + "|")
    lines.append(border)
    lines.append(
        f"low {legend_format.format(lo)} {_RAMP[0]!r} … "
        f"{_RAMP[-1]!r} {legend_format.format(hi)} high"
    )
    return "\n".join(lines)
