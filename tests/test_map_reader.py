"""The integer map reader against the Fraction reader it replaced.

Map objects are read straight into cleared integer rows, each entry by
parse_rational's grammar written with str methods.  The reference here is
the reader before that change, a regular expression and one Fraction per
entry: every entry and every map object must give the same value or the
same error message, and the checks must fail in the same order.
"""

import random
import re
import sys
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfaffine import cli
from selfaffine.affine import (
    AffineMap, IteratedFunctionSystem, _map_rows, _texts, ifs_from_jsonable, ifs_to_jsonable,
    map_from_jsonable, matrix_from_jsonable,
)
from selfaffine.rationals import _clear_denominators, _ratio, format_rational, parse_rational

# The reference reader: parse_rational, matrix_from_jsonable and map_from_jsonable as they
# were before map objects were read on integers.
_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")


def _reference_rational(text):
    if isinstance(text, bool):
        raise ValueError(f"booleans are not rationals: {text!r}")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    match = _RATIONAL_RE.match(str(text))
    if match is None:
        raise ValueError(f"not a rational 'p/q' or integer string: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def _reference_entry(value, where):
    try:
        return _reference_rational(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _reference_matrix(rows, where="matrix"):
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{where} must be a nonempty array of rows")
    n = len(rows)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"{where} must be square; row {i} has the wrong length")
        parsed.append(tuple(_reference_entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(parsed)


def _reference_map(entry, dim=None, where="map"):
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object")
    matrix = _reference_matrix(entry.get("matrix"), f"{where} matrix")
    if dim is not None and len(matrix) != dim:
        raise ValueError(f"{where}: matrix must have {dim} rows")
    translation_field = entry.get("translation")
    if not isinstance(translation_field, list) or len(translation_field) != len(matrix):
        raise ValueError(f"{where}: translation must have {len(matrix)} entries")
    translation = tuple(_reference_entry(x, f"{where}, translation[{j}]")
                        for j, x in enumerate(translation_field))
    return AffineMap(matrix, translation)


def _reference_rows(f):
    """f's rows cleared from its Fraction entries, translation entry first: what f._rows holds."""
    return [_clear_denominators((t, *row)) for t, row in zip(f.translation, f.matrix)]


def _outcome(function, *args):
    """("value", what function returns) or ("error", its ValueError's message)."""
    try:
        return "value", function(*args)
    except ValueError as exc:
        return "error", str(exc)


CORPUS = [
    # non-canonical strings
    "2/4", "+3", " 5 / 7 ", "-0", "007/3", "+0/5", "\t-12/\n8 ", "　1/2　",
    # JSON ints, bools, floats and null
    0, 7, -12, 10**30, True, False, 0.5, 2.0, -0.0, float("inf"), float("nan"), None,
    # malformed strings
    "1_0", "5/0", "5/00", "5/", "/5", "1/2/3", "", " ", "+", "-", "1/+2", "1/-2", "- 1",
    "+-1", "1.5", "1e3", "0x10", "1 2", "1/2 3", "½", "²", "Ⅻ",
    # Unicode digits: Arabic-Indic and full-width
    "١/٣", "５", "-٣٣/５", "１２/０",
    # more than 4,300 digits, where int() refuses the string
    "1" * 4301, "1/" + "7" * 4400, "-" + "9" * 5000 + "/0",
    # other JSON values
    [], ["1"], {}, {"p": 1},
]
ENTRY_ALPHABET = st.sampled_from(list(" \t\n　\x1c+-/0123456789_.e١٣５"))
ENTRIES = st.one_of(
    st.sampled_from(CORPUS),
    st.integers(), st.booleans(), st.floats(), st.none(),
    st.text(ENTRY_ALPHABET, max_size=10),
    st.text(max_size=4),
)
# entries parse_rational accepts, in canonical and in other forms
VALID_ENTRIES = st.one_of(
    st.integers(-50, 50),
    st.builds(lambda p, q, gap: f"{gap}{p}{gap}/{gap}{q}{gap}",
              st.integers(-99, 99), st.integers(1, 99), st.sampled_from(["", " ", "\t"])),
    st.builds(format_rational, st.fractions(max_denominator=10**6)),
)


class TestEntries:
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(value=ENTRIES)
    def test_each_entry_reads_as_the_reference_reads_it(self, value):
        expected = _outcome(_reference_rational, value)
        ratio = _outcome(_ratio, value)
        if expected[0] == "value":
            kind, (p, q) = ratio
            assert (kind, Fraction(p, q)) == expected
            assert q > 0
        else:
            assert ratio == expected
        assert _outcome(parse_rational, value) == expected

    @pytest.mark.parametrize("value", CORPUS, ids=range(len(CORPUS)))
    @pytest.mark.parametrize("field", ["matrix", "translation"])
    def test_the_corpus_reads_as_the_reference_reads_it(self, value, field):
        entry = {"matrix": [["1/2", "0"], ["0", "1/3"]], "translation": ["1", "-1"]}
        if field == "matrix":
            entry["matrix"][1][0] = value
        else:
            entry["translation"][1] = value
        assert _outcome(map_from_jsonable, entry, 2, "map 3") == (
            _outcome(_reference_map, entry, 2, "map 3"))
        assert _outcome(matrix_from_jsonable, entry["matrix"], "J") == (
            _outcome(_reference_matrix, entry["matrix"], "J"))

    def test_over_the_limit_the_message_is_ints(self):
        with pytest.raises(ValueError, match="Exceeds the limit .4300 digits."):
            _ratio("1" * 4301)

    def test_the_grammar_classes_are_the_re_modules_over_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = {c for c in every if c.isspace()}
        digits = {c for c in every if c.isdecimal()}
        assert set(re.findall(r"\s", every)) == spaces
        assert set(re.findall(r"\d", every)) == digits
        assert {c for c in every if not c.strip()} == spaces
        assert all(int(c) == unicodedata.decimal(c) for c in digits)


@st.composite
def map_objects(draw):
    """A map object, its dim argument and its where prefix, faults mixed into every field."""
    n = draw(st.integers(1, 3))
    entries = st.one_of(VALID_ENTRIES, VALID_ENTRIES, VALID_ENTRIES, ENTRIES)
    lengths = st.sampled_from([n, n, n, n, n - 1, n + 1])
    rows = []
    for _ in range(n):
        length = draw(lengths)
        rows.append("row" if draw(st.integers(0, 9)) == 0 else [draw(entries) for _ in range(length)])
    entry = {"matrix": draw(st.sampled_from([rows] * 8 + [[], None, "matrix"]))}
    choice = draw(st.integers(0, 9))
    if choice == 1:
        entry["translation"] = "0"
    elif choice > 1:  # and at 0 no translation
        entry["translation"] = [draw(entries) for _ in range(draw(lengths))]
    document = draw(st.sampled_from([entry] * 8 + [[entry], "map"]))
    dim = draw(st.sampled_from([None, n, n, n + 1]))
    where = draw(st.sampled_from(["map", "map 0", "map 17"]))
    return document, dim, where


class TestMapObjects:
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(case=map_objects())
    def test_each_map_reads_as_the_reference_reads_it(self, case):
        document, dim, where = case
        expected = _outcome(_reference_map, document, dim, where)
        assert _outcome(map_from_jsonable, document, dim, where) == expected
        rows = _outcome(_map_rows, document, dim, where)
        assert rows == (expected if expected[0] == "error" else ("value", _reference_rows(expected[1])))

    @pytest.mark.parametrize("fixed, message", [
        ((), "map 4 matrix must be square; row 1 has the wrong length"),
        (("shape",), "map 4: matrix must have 3 rows"),
        (("shape", "dim"), "map 4: translation must have 2 entries"),
        (("shape", "dim", "length"), "map 4, translation[1]: zero denominator: '1/0'"),
        (("shape", "dim", "length", "entry"), None),
    ])
    def test_the_checks_fail_in_order(self, fixed, message):
        # every fault at once: a short row, the wrong dim, a short translation, a bad entry
        entry = {"matrix": [["1/2", "0"], ["2/4"]], "translation": ["0"]}
        dim = 3
        if "shape" in fixed:
            entry["matrix"][1].append("+1/3")
        if "dim" in fixed:
            dim = 2
        if "length" in fixed:
            entry["translation"].append("1/0")
        if "entry" in fixed:
            entry["translation"][1] = "1/5"
        for reader in (map_from_jsonable, _reference_map):
            outcome = _outcome(reader, entry, dim, "map 4")
            assert outcome[1] == message if message else outcome[0] == "value"
        if message is None:
            assert map_from_jsonable(entry, dim) == AffineMap(
                [[Fraction(1, 2), 0], [Fraction(1, 2), Fraction(1, 3)]], [0, Fraction(1, 5)])

    def test_a_row_is_cleared_over_its_least_denominator(self):
        entry = {"matrix": [["2/4", "3/6"], ["-0/7", "5/10"]], "translation": ["4/8", "14/4"]}
        assert _map_rows(entry) == [([1, 1, 1], 2), ([7, 0, 1], 2)]


@pytest.fixture
def constructed(monkeypatch):
    """The maps AffineMap's constructor makes, which clears Fraction entries into rows."""
    made = []
    original = AffineMap.__init__
    monkeypatch.setattr(AffineMap, "__init__", lambda f, *args: made.append(f) or original(f, *args))
    return made


def _holds_no_fraction(f):
    """True when f has made neither its matrix nor its translation as Fractions."""
    return "matrix" not in vars(f) and "translation" not in vars(f)


def _sampled_system(command, path, output, monkeypatch):
    """The system cli.main hands chaos_game when it runs `command` on `path`."""
    received = []
    original = cli.chaos_game
    monkeypatch.setattr(cli, "chaos_game",
                        lambda ifs, *args: received.append(ifs) or original(ifs, *args))
    assert cli.main([command, str(path), "--points", "200", "--output", str(output)]) == 0
    [system] = received
    return system


class TestPlainSystems:
    def test_a_read_system_makes_its_fractions_on_request(self, constructed):
        maps = [AffineMap([[Fraction(1, 2), 0], [Fraction(1, 4), Fraction(1, 3)]], [0, -1]),
                AffineMap([[Fraction(1, 3), Fraction(-1, 5)], [0, Fraction(1, 2)]], [Fraction(1, 2), 3])]
        built = IteratedFunctionSystem(maps)
        data = ifs_to_jsonable(built)
        constructed.clear()
        read = ifs_from_jsonable(data)
        assert constructed == []
        assert read._rows == built._rows
        assert read == built and hash(read) == hash(built)
        assert read.certificates == built.certificates
        assert read.maps == tuple(maps)
        assert all(map(_holds_no_fraction, read.maps))
        assert (read.maps[1].matrix, read.maps[1].translation) == (maps[1].matrix, maps[1].translation)
        assert not _holds_no_fraction(read.maps[1]) and _holds_no_fraction(read.maps[0])
        assert read.maps[1].matrix is read.maps[1].matrix
        assert constructed == []
        with pytest.raises(AttributeError):
            read.maps = ()

    @pytest.mark.parametrize("command", ["chaos", "render"])
    def test_sampling_a_plain_file_makes_no_map_and_clears_no_map(self, command, tmp_path,
                                                                 constructed, monkeypatch):
        # made and cleared: by AffineMap's constructor, which makes a map from Fractions
        system = tmp_path / "plain.json"
        system.write_text('{"dim": 2, "maps": ['
                          '{"matrix": [["2/4", "0"], ["1/4", " 1 / 3 "]], "translation": ["0", "-1"]},'
                          '{"matrix": [["1/3", "-1/5"], [0, "1/2"]], "translation": ["+1/2", 3]}]}')
        expected = tmp_path / "expected"
        assert cli.main([command, str(system), "--points", "200", "--output", str(expected)]) == 0
        constructed.clear()
        actual = tmp_path / "actual"
        sampled = _sampled_system(command, system, actual, monkeypatch)
        assert constructed == []
        assert isinstance(sampled, IteratedFunctionSystem) and len(sampled) == 2
        assert all(map(_holds_no_fraction, sampled.maps))
        assert actual.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command", ["chaos", "render"])
    def test_sampling_a_moment_file_makes_no_map_and_no_fraction(self, command, tmp_path,
                                                                constructed, monkeypatch, capsys):
        system = tmp_path / "moment.json"
        assert cli.main(["build-moment", "--dim", "3", "--c", "0", "--d", "1",
                         "--output", str(system)]) == 0
        expected = tmp_path / "expected"
        assert cli.main([command, str(system), "--points", "200", "--output", str(expected)]) == 0
        constructed.clear()
        actual = tmp_path / "actual"
        sampled = _sampled_system(command, system, actual, monkeypatch)
        assert constructed == []
        assert isinstance(sampled, IteratedFunctionSystem) and len(sampled) == 222
        assert all(map(_holds_no_fraction, sampled.maps))
        assert actual.read_bytes() == expected.read_bytes()


def test_texts_are_format_rational_of_each_entry():
    rng = random.Random(29)
    for _ in range(2000):
        scale = rng.choice([1, 2, 6, 120, rng.randint(1, 10**6), rng.randint(1, 10**30)])
        row = [rng.choice([0, 0, scale, -scale, scale * rng.randint(-9, 9), rng.randint(-10**6, 10**6),
                           rng.randint(-10**40, 10**40)]) for _ in range(rng.randint(1, 9))]
        assert _texts(row, scale) == [format_rational(Fraction(x, scale)) for x in row]
