"""Point-cloud container, CSV round-trips, and the SVG emitter."""

import io
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from selfaffine.affine import ifs_from_jsonable
from selfaffine.attractor import chaos_game
from selfaffine.cli import main
from selfaffine.cloud import _BLOCK_ROWS, _SVG_RADIUS, _SVG_SIZE, PointCloud, write_csv, write_svg
from selfaffine.moment import read_recipe

DATA = Path(__file__).parent / "data"


class TestPointCloud:
    def test_basic_shape(self):
        cloud = PointCloud(2, [[0.0, 1.0], [2.0, 3.0]])
        assert len(cloud) == 2
        assert cloud.points.shape == (2, 2)
        assert cloud.dim == 2

    def test_empty_cloud(self):
        cloud = PointCloud(3, [])
        assert len(cloud) == 0
        assert cloud.points.shape == (0, 3)

    def test_immutable(self):
        cloud = PointCloud(1, [[1.0]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 2.0

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            PointCloud(2, [[1.0], [1.0, 2.0]])

    def test_equality(self):
        a = PointCloud(1, [[1.0], [2.0]])
        b = PointCloud(1, [[1.0], [2.0]])
        c = PointCloud(1, [[1.0], [2.5]])
        assert a == b
        assert a != c


def parse_csv(text):
    """The cloud a write_csv text holds: one comma-separated float row per line."""
    rows = [[float(field) for field in line.split(",")] for line in text.splitlines()]
    return PointCloud(len(rows[0]), rows)


class TestCsv:
    def test_round_trip_exact_bits(self):
        original = PointCloud(2, [[0.1, -1.0 / 3.0], [1e-17, 123456.789]])
        buffer = io.StringIO()
        write_csv(original, buffer)
        back = parse_csv(buffer.getvalue())
        assert back == original  # 17 significant digits round-trip doubles exactly

    def test_round_trip_on_disk(self, tmp_path):
        original = PointCloud(3, np.random.default_rng(1).normal(size=(50, 3)))
        path = tmp_path / "pts.csv"
        write_csv(original, str(path))
        assert parse_csv(path.read_text(encoding="utf-8")) == original


class TestSvg:
    def _cloud(self):
        return PointCloud(3, [[0.0, 0.0, 5.0], [1.0, 2.0, -1.0], [-1.0, 1.0, 0.0]])

    def test_structure(self):
        buffer = io.StringIO()
        write_svg(self._cloud(), buffer)
        text = buffer.getvalue()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") == 3
        assert 'width="800"' in text

    def test_projection_indices(self):
        buffer = io.StringIO()
        write_svg(self._cloud(), buffer, projection=(0, 2))
        assert buffer.getvalue().count("<circle") == 3

    def test_rejects_bad_projection(self):
        with pytest.raises(ValueError):
            write_svg(self._cloud(), io.StringIO(), projection=(0, 0))
        with pytest.raises(ValueError):
            write_svg(self._cloud(), io.StringIO(), projection=(0, 7))

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError):
            write_svg(PointCloud(2, []), io.StringIO())

    def test_degenerate_extent_still_renders(self):
        # all points identical: the scale guard must not divide by zero
        cloud = PointCloud(2, [[1.0, 1.0], [1.0, 1.0]])
        buffer = io.StringIO()
        write_svg(cloud, buffer)
        assert buffer.getvalue().count("<circle") == 2


def reference_csv(cloud):
    """write_csv's text from the plain writer: one f-string per numpy scalar, row by row."""
    handle = io.StringIO()
    for row in cloud.points:
        handle.write(",".join(f"{x:.17g}" for x in row) + "\n")
    return handle.getvalue()


def reference_svg(cloud, projection=(0, 1)):
    """write_svg's text from the plain writer: scalar arithmetic and one f-string per circle."""
    i, j = projection
    xs = cloud.points[:, i]
    ys = cloud.points[:, j]
    margin = _SVG_SIZE * 0.05
    span = _SVG_SIZE - 2 * margin
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(ys.min()), float(ys.max())
    x_extent = x_max - x_min or 1.0
    y_extent = y_max - y_min or 1.0
    scale = span / max(x_extent, y_extent)
    handle = io.StringIO()
    handle.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
    )
    handle.write(f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>\n')
    for x, y in zip(xs, ys):
        px = margin + (x - x_min) * scale
        py = _SVG_SIZE - margin - (y - y_min) * scale
        handle.write(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{_SVG_RADIUS}" fill="black"/>\n')
    handle.write("</svg>\n")
    return handle.getvalue()


def written(write, cloud, *args):
    buffer = io.StringIO()
    write(cloud, buffer, *args)
    return buffer.getvalue()


# the floats whose text is easiest to get wrong: signed zero, the smallest subnormals,
# infinities, nan, and the ends of the exponent range
SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e-300,
            1.7976931348623157e308, 2.2250738585072014e-308]
ROW_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


def wide_cloud(rows, dim, seed=0):
    """rows × dim floats with exponents from −300 to 300, the SPECIALS spread among them."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=rows * dim) * 10.0 ** rng.integers(-300, 301, size=rows * dim)
    spots = rng.permutation(rows * dim)[:len(SPECIALS)]
    values[spots] = SPECIALS[:len(spots)]
    return PointCloud(dim, values.reshape(rows, dim))


def plain_cloud(rows, dim, seed=0):
    """Finite rows × dim floats, so the SVG centres are numbers; one −0.0 and one subnormal."""
    values = np.random.default_rng(seed).normal(size=(rows, dim)) * 3.0
    values.flat[:2] = [-0.0, 5e-324][:values.size]
    return PointCloud(dim, values)


class TestBlockWriters:
    """The block writers give the plain writers' text byte for byte."""

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_csv_matches_reference(self, dim, rows):
        cloud = wide_cloud(rows, dim, seed=10 * rows + dim)
        assert written(write_csv, cloud) == reference_csv(cloud)

    def test_csv_special_values(self):
        cloud = PointCloud(len(SPECIALS), [SPECIALS, SPECIALS[::-1]])
        text = written(write_csv, cloud)
        assert text == reference_csv(cloud)
        assert text.splitlines()[0].split(",")[:7] == [
            "-0", "0", "4.9406564584124654e-324", "-4.9406564584124654e-324", "inf", "-inf", "nan"]

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("rows", ROW_COUNTS[1:])
    def test_svg_matches_reference(self, dim, rows):
        cloud = plain_cloud(rows, dim, seed=10 * rows + dim)
        assert written(write_svg, cloud) == reference_svg(cloud)

    @pytest.mark.parametrize("projection", itertools.permutations(range(4), 2))
    def test_svg_every_projection_of_a_4d_cloud(self, projection):
        cloud = plain_cloud(2 * _BLOCK_ROWS + 3, 4, seed=4)
        assert written(write_svg, cloud, projection) == reference_svg(cloud, projection)

    @pytest.mark.parametrize("points", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, -2.0], [1.0, 3.5]],
                                        [[-0.0, 2.0], [0.0, 2.0], [-0.0, 2.0]]])
    def test_svg_degenerate_extent(self, points):
        cloud = PointCloud(2, points)
        assert written(write_svg, cloud) == reference_svg(cloud)

    @pytest.mark.parametrize("write, reference", [(write_csv, reference_csv),
                                                  (write_svg, reference_svg)])
    def test_path_and_stdout_targets(self, write, reference, tmp_path, capsys):
        cloud = plain_cloud(_BLOCK_ROWS + 1, 3, seed=7)
        path = tmp_path / "cloud.out"
        write(cloud, str(path))
        assert path.read_text(encoding="utf-8") == reference(cloud)
        write(cloud, sys.stdout)
        assert capsys.readouterr().out == reference(cloud)

    @pytest.mark.parametrize("write", [write_csv, write_svg])
    def test_memory_beyond_the_text_is_bounded(self, write):
        # one % call over this whole cloud peaks 6.6 MB (CSV) or 2.8 MB (SVG) above its text;
        # blocks of rows, 0.3 and 0.4 MB.  What the buffer holds at the end is the text.
        cloud = plain_cloud(20_000, 8, seed=8)
        buffer = io.StringIO()
        tracemalloc.start()
        try:
            write(cloud, buffer)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 2_000_000


@pytest.fixture(scope="module")
def paraboloid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cloud") / "paraboloid.json"
    assert main(["paraboloid", "--dim", "3", "--c", "0", "--d", "1",
                 "--base", "1/2:0,1/2:1/2", "--output", str(path)]) == 0
    return path


class TestCommandOutput:
    """chaos and render write the reference text of the chaos_game cloud they sample."""

    @pytest.mark.parametrize("source", ["moment", "paraboloid"])
    @pytest.mark.parametrize("command, reference", [("chaos", reference_csv),
                                                    ("render", reference_svg)])
    def test_matches_reference_writer(self, source, command, reference, paraboloid_file,
                                      tmp_path, capsys):
        path = DATA / "build_moment_dim3.json" if source == "moment" else paraboloid_file
        data = json.loads(path.read_text(encoding="utf-8"))
        system = read_recipe(data).ifs if source == "moment" else ifs_from_jsonable(data)
        args = ["--points", "2500", "--burn-in", "50", "--seed", "11"]
        projection = (2, 0)
        if command == "render":
            args += ["--project", *map(str, projection)]
        cloud = chaos_game(system, 2550, 50, 11)
        expected = reference(cloud, projection) if command == "render" else reference(cloud)
        capsys.readouterr()
        assert main([command, str(path), *args]) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "out"
        assert main([command, str(path), *args, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected
