"""Point-cloud container, CSV round-trips, and the SVG emitter."""

import io

import numpy as np
import pytest

from selfaffine.cloud import PointCloud, write_csv, write_svg


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
