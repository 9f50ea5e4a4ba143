"""Fuzzed inputs: each reader returns or raises ValueError, nothing else.

Fields of a valid IFS, recipe and germ document, the document itself
included, are replaced by arbitrary JSON values; polynomial text is
built from the parser's token alphabet and arbitrary characters.  The
same fuzzed files given to the CLI must end in exit code 0, 1 or 2.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfaffine import moment
from selfaffine.affine import ifs_from_jsonable
from selfaffine.cli import main
from selfaffine.classifier import germ_from_jsonable
from selfaffine.moment import (
    MomentCurveSpec,
    build_moment_ifs,
    choose_anchors,
    read_recipe,
    recipe_to_jsonable,
)
from selfaffine.polynomials import MultiPoly, parse_polynomial

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _recipe_document():
    spec = MomentCurveSpec(2, Fraction(-1, 8), Fraction(1, 8))
    ratio = Fraction(1, 9)
    return recipe_to_jsonable(build_moment_ifs(spec, ratio, choose_anchors(spec, ratio)))


IFS_DOCUMENT = {
    "dim": 2,
    "maps": [
        {"matrix": [["1/2", "0"], ["1/4", "1/3"]], "translation": ["0", "-1"]},
        {"matrix": [["1/3", "-1/5"], [0, "1/2"]], "translation": ["1/2", 3]},
    ],
}
GERM_DOCUMENT = {
    "t0": "1/3",
    "order": 3,
    "coords": [["1/3", "1", "0", "0"], ["1/9", "2/3", "1", "0"]],
}

READERS = [
    (ifs_from_jsonable, IFS_DOCUMENT),
    (read_recipe, _recipe_document()),
    (germ_from_jsonable, GERM_DOCUMENT),
]
READER_IDS = [reader.__name__ for reader, _ in READERS]


def _paths(node, prefix=()):
    """The paths of a JSON document's nodes, the root included.

    Of each array only the first and the last element are entered, so that
    the many maps and anchors of a recipe do not crowd out its other fields.
    """
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = [(index, node[index]) for index in sorted({0, len(node) - 1}) if node]
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(document, path, value):
    if not path:
        return value
    result = copy.deepcopy(document)
    node = result
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return result


@pytest.mark.parametrize("reader, document", READERS, ids=READER_IDS)
def test_valid_document_is_read(reader, document):
    reader(copy.deepcopy(document))


@pytest.mark.parametrize("reader, document", READERS, ids=READER_IDS)
def test_replaced_field_returns_or_raises_value_error(reader, document):
    paths = list(_paths(document))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(path=st.sampled_from(paths), value=JSON_VALUES)
    def check(path, value):
        try:
            reader(_replaced(document, path, value))
        except ValueError:
            pass

    check()


POLYNOMIAL_FACTORS = st.sampled_from(
    ["x1", "x2", "x3", "x1^2", "x2^3", "2", "7", "1/2", "3/4",
     "x0", "x", "3/0", "x1^-1", "x1^1/2", "^", "/", ""]
)
POLYNOMIAL_TERMS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["+", "-", " + ", " - ", "", "*"]),
        st.lists(POLYNOMIAL_FACTORS, max_size=3).map("*".join),
    ),
)


def _spliced(terms, noise, position):
    text = "".join(terms)
    return text[:position] + noise + text[position:]


POLYNOMIAL_TEXT = st.builds(
    _spliced, st.lists(POLYNOMIAL_TERMS, max_size=4), st.text(max_size=2), st.integers(0, 40)
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(text=POLYNOMIAL_TEXT)
def test_polynomial_text_returns_or_raises_value_error(text):
    try:
        assert isinstance(parse_polynomial(text), MultiPoly)
    except ValueError:
        pass


HALF_MAP = {"matrix": [["1/2", "0"], ["0", "1/2"]], "translation": ["0", "1/3"]}
CLASSIFY_MAP = {"matrix": [["1/2", "0"], ["0", "1/4"]], "J": [["1", "0"], ["0", "1"]]}
CLASSIFY_GERM = {
    "t0": "0",
    "order": 4,
    "coords": [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
}
CIRCLE = "x1^2 + x2^2 - 1"

# subcommand, the fuzzed file's base document, the arguments around it ("@" is its
# path), and the fixed files next to it
CLI_CASES = [
    ("verify", _recipe_document(), ["verify", "@", "--points", "3"], {}),
    ("chaos", _recipe_document(), ["chaos", "@", "--points", "20", "--burn-in", "5"], {}),
    ("render", _recipe_document(), ["render", "@", "--points", "20", "--burn-in", "5"], {}),
    ("chaos-ifs", IFS_DOCUMENT, ["chaos", "@", "--points", "20", "--burn-in", "5"], {}),
    ("scaling", HALF_MAP, ["scaling", "poly.txt", "@"], {"poly.txt": CIRCLE}),
    ("classify-germ", CLASSIFY_GERM, ["classify", "@", "map.json", "--t1", "1"],
     {"map.json": json.dumps(CLASSIFY_MAP)}),
    ("classify-map", CLASSIFY_MAP, ["classify", "germ.json", "@", "--t1", "1"],
     {"germ.json": json.dumps(CLASSIFY_GERM)}),
    ("compactness-demo", HALF_MAP,
     ["compactness-demo", "poly.txt", "@", "--depth", "3", "--points", "8"],
     {"poly.txt": CIRCLE}),
]
CLI_IDS = [name for name, *_ in CLI_CASES]


def _exit_code(tmp_path, capsys, argv, document_text, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    target = tmp_path / "fuzzed"
    target.write_text(document_text)
    paths = [str(target) if arg == "@" else str(tmp_path / arg) if arg in files else arg
             for arg in argv]
    code = main(paths)
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name, document, argv, files", CLI_CASES, ids=CLI_IDS)
def test_cli_on_replaced_field_exits_cleanly(
    name, document, argv, files, tmp_path, capsys, monkeypatch
):
    built = []
    original = moment._built_rows

    def counted(entry, n, line):
        rows = original(entry, n, line)
        built.append(rows is not None)
        return rows

    monkeypatch.setattr(moment, "_built_rows", counted)
    # the unfuzzed document is read, whatever its verdict
    assert _exit_code(tmp_path, capsys, argv, json.dumps(document), files) in (0, 1)
    paths = list(_paths(document))

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(path=st.sampled_from(paths), value=JSON_VALUES)
    def check(path, value):
        text = json.dumps(_replaced(document, path, value))
        assert _exit_code(tmp_path, capsys, argv, text, files) in (0, 1, 2)

    check()
    if "meta" in document:
        # the recipe reader took stored maps as built, and also passed some to the parser
        assert any(built) and not all(built)


@pytest.mark.parametrize("command", ["scaling", "compactness-demo"])
def test_cli_on_polynomial_text_exits_cleanly(command, tmp_path, capsys):
    files = {"map.json": json.dumps(HALF_MAP)}
    argv = [command, "@", "map.json"] + (["--depth", "3"] if command != "scaling" else [])

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(text=POLYNOMIAL_TEXT)
    def check(text):
        assert _exit_code(tmp_path, capsys, argv, text, files) in (0, 1, 2)

    check()


@pytest.mark.parametrize("command", ["verify", "chaos", "render", "scaling", "classify"])
def test_cli_on_text_that_is_not_json_exits_cleanly(command, tmp_path, capsys):
    argv = {"scaling": ["scaling", "poly.txt", "@"],
            "classify": ["classify", "@", "map.json", "--t1", "1"]}.get(command, [command, "@"])
    files = {"poly.txt": CIRCLE, "map.json": json.dumps(CLASSIFY_MAP)}
    for text in ["", "{", "[1, 2", "\x00", "NaN", '{"dim": 2, "maps": [{}]']:
        assert _exit_code(tmp_path, capsys, argv, text, files) == 2
