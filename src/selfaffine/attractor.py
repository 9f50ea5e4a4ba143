"""Numerical attractor sampling and the diameter of a cloud.

Attractors are sampled in floating point by the random chaos game
(PCG64 generator, so a seed fully determines the cloud).  diameter is
an exact numpy scan that matches scipy's cdist bit for bit.  Each
imports numpy when it runs, so importing the package does not.
"""

from __future__ import annotations

from .affine import _WORD_GUARD, _float_array, _float_map, _row_map, fixed_point
from .cloud import PointCloud

__all__ = ["chaos_game", "diameter"]

_EXACT_DIAMETER_LIMIT = 10_000
# Rows per block of the pairwise scan, few enough that a block stays in cache
# (16 rows × 10⁴ points of doubles is 1.3 MB).
_DIAMETER_BLOCK = 16


def _check_steps(iterations: int, burn_in: int) -> None:
    """Raise ValueError unless 0 ≤ burn_in < iterations ≤ 10⁷."""
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if iterations <= burn_in:
        raise ValueError("iterations must exceed burn_in")
    if iterations > _WORD_GUARD:
        raise ValueError(f"{iterations} iterations exceed the guard {_WORD_GUARD}")


def chaos_game(ifs, iterations: int, burn_in: int, seed: int) -> PointCloud:
    """Sample the attractor by iterating uniformly random maps.

    `ifs` is an IteratedFunctionSystem or a MomentIfsRecipe, sampled
    from its cleared rows through _float_map.  Starts at the fixed point
    of the first map, applies `iterations` random maps, and discards the
    first `burn_in` images.  The same seed always yields the same cloud.
    More than 10⁷ iterations are rejected before anything is allocated,
    and an entry beyond the float range with ValueError.
    """
    import numpy as np
    _check_steps(iterations, burn_in)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = ifs._rows
    matrices, translations = zip(*map(_float_map, rows))
    x = _float_array(fixed_point(_row_map(rows[0])))
    # a view of the drawn indices iterates as Python ints, with no list of them held
    choices = memoryview(rng.integers(0, len(matrices), size=iterations))
    kept = np.empty((iterations - burn_in, len(x)))
    for index in choices[:burn_in]:
        x = matrices[index] @ x + translations[index]
    # each kept step is written straight into its row, with the same float operations
    for row, index in zip(kept, choices[burn_in:]):
        np.matmul(matrices[index], x, out=row)
        row += translations[index]
        x = row
    return PointCloud(len(x), kept)


def diameter(cloud: PointCloud) -> float:
    """Largest pairwise distance in the cloud.

    Exact pairwise scan up to 10⁴ points, equal bit for bit to the
    largest entry of scipy's euclidean cdist; beyond that the bounding-box
    diagonal is returned, an upper bound exceeding the true diameter by
    at most a factor of √dim.
    """
    import numpy as np
    if len(cloud) == 0:
        raise ValueError("diameter of an empty cloud is undefined")
    points = cloud.points
    if len(cloud) <= _EXACT_DIAMETER_LIMIT:
        # Squared distances accumulate one coordinate at a time, in cdist's
        # order, over the upper triangle; sqrt is monotone, so it is taken once.
        # Every block is a view of the same two buffers, which stay in cache.
        count = len(points)
        first, *rest = np.ascontiguousarray(points.T)
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
    extents = points.max(axis=0) - points.min(axis=0)
    return float(np.sqrt(np.sum(extents**2)))
