"""Float point clouds: the numerical face of attractor computations.

Everything exact lives elsewhere; a cloud is a numpy array of doubles
plus CSV and SVG output, and numpy is imported only once a cloud is
made.  CSV carries 17 significant digits, so a cloud round-trips bit for bit.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, TextIO, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PointCloud", "write_csv", "write_svg"]

PathOrFile = Union[str, "io.TextIOBase", TextIO]

# write_svg's square canvas side and point radius, in SVG user units
_SVG_SIZE = 800
_SVG_RADIUS = 1.0
# rows per % call of the writers: one call over a whole cloud holds all its text and floats
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class PointCloud:
    """An ordered list of dim-dimensional float points."""

    dim: int
    points: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        if self.dim < 1:
            raise ValueError("cloud dimension must be positive")
        array = np.array(self.points, dtype=float, copy=True)
        if array.size == 0:
            array = array.reshape(0, self.dim)
        if array.ndim != 2 or array.shape[1] != self.dim:
            raise ValueError("points must form an (count, dim) array")
        array.flags.writeable = False
        object.__setattr__(self, "points", array)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        import numpy as np
        return self.dim == other.dim and np.array_equal(self.points, other.points)


def _open_for_write(target: PathOrFile):
    """A context manager for writing: a path is opened and closed, a file is left open."""
    if isinstance(target, str):
        return open(target, "w", encoding="utf-8")
    return contextlib.nullcontext(target)


def _write_rows(handle, rows: np.ndarray, row_format: str) -> None:
    """Write row_format % row for each row of a 2-D array, one % call per _BLOCK_ROWS rows."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        handle.write(row_format * len(block) % tuple(block.ravel().tolist()))


def write_csv(cloud: PointCloud, target: PathOrFile) -> None:
    """One point per line, comma-separated, 17 significant digits, no header."""
    with _open_for_write(target) as handle:
        _write_rows(handle, cloud.points, ",".join(["%.17g"] * cloud.dim) + "\n")


def _check_projection(projection: tuple[int, int], dim: int) -> None:
    """Raise ValueError unless projection names two different coordinates of dimension dim."""
    i, j = projection
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError("projection indices out of range")
    if i == j:
        raise ValueError("projection indices must differ")


def write_svg(cloud: PointCloud, target: PathOrFile, projection: tuple[int, int] = (0, 1)) -> None:
    """Flat scatter plot of a 2-D coordinate projection of the cloud.

    projection picks the two 0-based coordinate indices drawn as x and
    y; the y axis points up.  Output is self-contained SVG.
    """
    import numpy as np
    _check_projection(projection, cloud.dim)
    i, j = projection
    if len(cloud) == 0:
        raise ValueError("cannot render an empty cloud")
    xs = cloud.points[:, i]
    ys = cloud.points[:, j]
    margin = _SVG_SIZE * 0.05
    span = _SVG_SIZE - 2 * margin
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(ys.min()), float(ys.max())
    x_extent = x_max - x_min or 1.0
    y_extent = y_max - y_min or 1.0
    scale = span / max(x_extent, y_extent)
    with _open_for_write(target) as handle:
        handle.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
            f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
        )
        handle.write(f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>\n')
        centres = np.column_stack((margin + (xs - x_min) * scale,
                                   _SVG_SIZE - margin - (ys - y_min) * scale))
        _write_rows(handle, centres, f'<circle cx="%.3f" cy="%.3f" r="{_SVG_RADIUS}" fill="black"/>\n')
        handle.write("</svg>\n")
