"""Numerical attractor sampling and the diameter of a cloud.

Attractors are sampled in floating point by the random chaos game
(PCG64 generator, so a seed fully determines the cloud).  diameter is
an exact numpy scan that matches scipy's cdist bit for bit.  Each
imports numpy when it runs, so importing the package does not.
"""

from __future__ import annotations

from .affine import _WORD_GUARD, IteratedFunctionSystem, _float_array, _float_map, fixed_point
from .cloud import PointCloud

__all__ = ["chaos_game", "diameter"]

# Most points diameter scans, and so most circle points compactness-demo samples.
_EXACT_DIAMETER_LIMIT = 10_000
# Most floats the chaos game's array holds: 10⁷ steps in every dimension up to 13 (1 GB).
_FLOAT_GUARD = 13 * _WORD_GUARD
# Rows per block of the pairwise scan, few enough that a block stays in cache
# (16 rows × 10⁴ points of doubles is 1.3 MB).
_DIAMETER_BLOCK = 16


def _check_steps(iterations: int, burn_in: int, dim: int = 1) -> None:
    """Raise ValueError unless 0 ≤ burn_in < iterations ≤ 10⁷ and iterations·dim ≤ 1.3·10⁸."""
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if iterations <= burn_in:
        raise ValueError("iterations must exceed burn_in")
    if iterations > _WORD_GUARD:
        raise ValueError(f"{iterations} iterations exceed the guard {_WORD_GUARD}")
    if iterations * dim > _FLOAT_GUARD:
        raise ValueError(f"{iterations} iterations in dimension {dim} are "
                         f"{iterations * dim} floats, above the guard {_FLOAT_GUARD}")


def chaos_game(ifs: IteratedFunctionSystem, iterations: int, burn_in: int, seed: int) -> PointCloud:
    """Sample the attractor by iterating uniformly random maps.

    The maps are sampled from their cleared rows through _float_map, so
    sampling makes no Fraction of them.  Starts at the fixed point of the
    first map, applies `iterations` random maps, and discards the
    first `burn_in` images.  The same seed always yields the same cloud.
    More than 10⁷ iterations, or more than 1.3·10⁸ floats in the
    iterations × dim array of steps, are rejected before that array is
    allocated, and an entry beyond the float range with ValueError.
    """
    import numpy as np
    rows = ifs._rows
    _check_steps(iterations, burn_in, len(rows[0]))
    rng = np.random.Generator(np.random.PCG64(seed))
    matrices, translations = zip(*map(_float_map, rows))
    x = _float_array(fixed_point(ifs.maps[0]))
    # a view of the drawn indices iterates as Python ints, with no list of them held
    choices = memoryview(rng.integers(0, len(matrices), size=iterations))
    steps = np.empty((iterations, len(x)))
    # each step is written straight into its row; the cloud is the rows after burn_in
    for row, index in zip(steps, choices):
        np.matmul(matrices[index], x, out=row)
        row += translations[index]
        x = row
    # the cloud takes its rows without PointCloud's copy: no one else holds steps to write them
    steps.flags.writeable = False
    cloud = object.__new__(PointCloud)
    object.__setattr__(cloud, "dim", len(x))
    object.__setattr__(cloud, "points", steps[burn_in:])
    return cloud


def diameter(cloud: PointCloud) -> float:
    """Largest pairwise distance in the cloud.

    Exact pairwise scan, equal bit for bit to the largest entry of scipy's
    euclidean cdist; a cloud of more than 10⁴ points raises ValueError.
    """
    import numpy as np
    if len(cloud) == 0:
        raise ValueError("diameter of an empty cloud is undefined")
    if len(cloud) > _EXACT_DIAMETER_LIMIT:
        raise ValueError(f"{len(cloud)} points are above the cap {_EXACT_DIAMETER_LIMIT}")
    # Squared distances accumulate one coordinate at a time, in cdist's
    # order, over the upper triangle; sqrt is monotone, so it is taken once.
    # Every block is a view of the same two buffers, which stay in cache.
    count = len(cloud)
    first, *rest = np.ascontiguousarray(cloud.points.T)
    squared_buffer = np.empty(_DIAMETER_BLOCK * count)
    difference_buffer = np.empty_like(squared_buffer)
    worst = 0.0
    for start in range(0, count, _DIAMETER_BLOCK):
        stop = min(start + _DIAMETER_BLOCK, count)
        shape = (stop - start, count - start)
        squared = squared_buffer[: shape[0] * shape[1]].reshape(shape)
        difference = difference_buffer[: shape[0] * shape[1]].reshape(shape)
        np.subtract(first[start:stop, None], first[start:], out=squared)
        squared *= squared
        for column in rest:
            np.subtract(column[start:stop, None], column[start:], out=difference)
            difference *= difference
            squared += difference
        worst = max(worst, float(squared.max()))
    return float(np.sqrt(worst))
