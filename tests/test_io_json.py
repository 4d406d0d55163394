"""Hostile and random algebra and operator files.

Every input must end in a valid result or a `DarbouxOpsError`, within a
bounded time: no other exception, no hang.  The inputs mix well-formed
files, files with hostile values (huge or negative dims, radicals outside
the field, literals above the digit limit, exponents above the bound) and
files whose JSON text is cut or damaged.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxops import io_json
from darbouxops.errors import DarbouxOpsError, ParseError, UnprintableValueError
from darbouxops.lie import LieAlgebra
from darbouxops.operators import PolyOperator, field_ring
from darbouxops.scalars import Scalar

# Each load of a small file takes milliseconds; the bound only has to catch a hang.
SECONDS = 10

_DIMS = st.one_of(st.integers(-2, 5), st.sampled_from(
    [io_json.MAX_ALGEBRA_DIM + 1, 150, 10**9, "3", "x", 2.5, None, [3], float("inf")]))
_TAGS = st.sampled_from([0, 0, 2, 3, 4, 1, -1, "x", 10**30, None])
_ENTRIES = st.sampled_from([
    "0", "1", "-1/2", "sqrt(2)", "1+sqrt(2)", "sqrt(3)", "u1", "-u2", "alpha", "alpha*u1",
    "u1*u2", "2*u1^2", "u1^40000", "10^5000", "10^4000*10^4000", "1/0", "v1", "", "((", "u1^",
    "9" * 5000, 0, 1, -3, 1.5, None, True, [], {},
])
_PARAMS = st.lists(st.sampled_from(["alpha", "beta", "u1", "lam", "", "1", 3, None]), max_size=3)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), _ENTRIES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@st.composite
def _brackets(draw):
    index = st.one_of(st.integers(-1, 6), st.sampled_from(["2", "x", None]))
    return [{"i": draw(index), "j": draw(index),
             "out": draw(st.one_of(st.dictionaries(st.sampled_from(["1", "2", "3", "7", "x"]),
                                                   _ENTRIES, max_size=3), _JSON))}
            for _ in range(draw(st.integers(0, 4)))]


@st.composite
def _matrix(draw, dim):
    """dim x dim when dim is a small int (else 2 x 2), sometimes with a short row."""
    n = dim if isinstance(dim, int) and 0 <= dim <= 5 else 2
    rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    if rows and draw(st.integers(0, 4)) == 0:
        rows[-1].pop()
    return rows


@st.composite
def _algebra_data(draw):
    data = {"dim": draw(_DIMS), "field_sqrt": draw(_TAGS), "brackets": draw(_brackets())}
    return _damaged(draw, data)


@st.composite
def _operator_data(draw):
    dim = draw(_DIMS)
    data = {"dim": dim, "field_sqrt": draw(_TAGS), "g": draw(_matrix(dim)),
            "omega": draw(_matrix(dim)), "params": draw(_PARAMS)}
    return _damaged(draw, data)


def _damaged(draw, data):
    """The data as JSON text, sometimes with a key dropped or replaced, or the text cut."""
    for key in list(data):
        action = draw(st.sampled_from(["keep"] * 6 + ["drop", "replace"]))
        if action == "drop":
            del data[key]
        elif action == "replace":
            data[key] = draw(_JSON)
    text = json.dumps(data)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _load(tmp_path_factory, loader, text):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(text)
    start = time.perf_counter()
    try:
        result = loader(str(path))
    except DarbouxOpsError:
        result = None
    assert time.perf_counter() - start < SECONDS
    return result


@settings(max_examples=300, deadline=None)
@given(_algebra_data())
def test_algebra_files_load_or_raise_a_typed_error(tmp_path_factory, text):
    result = _load(tmp_path_factory, io_json.load_algebra, text)
    assert result is None or isinstance(result, LieAlgebra)


@settings(max_examples=300, deadline=None)
@given(_operator_data())
def test_operator_files_load_or_raise_a_typed_error(tmp_path_factory, text):
    result = _load(tmp_path_factory, io_json.load_operator, text)
    assert result is None or isinstance(result, PolyOperator)


@pytest.mark.parametrize("loader", [io_json.load_algebra, io_json.load_operator,
                                    io_json.load_matrix])
@pytest.mark.parametrize("raw", [
    b"[" * 100000,  # nesting deeper than the decoder's recursion
    b"[" + b"9" * 5000 + b"]",  # an integer above the int-string digit limit
    b'{"dim": \xff}',  # not UTF-8
    b"",
], ids=["deep", "long-int", "bad-utf8", "empty"])
def test_undecodable_files_are_parse_errors(tmp_path, loader, raw):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError):
        loader(str(path))


def test_wellformed_files_still_load(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"dim": 3, "brackets": [{"i": 2, "j": 3, "out": {"1": "1"}}]}))
    assert io_json.load_algebra(str(alg)).dim == 3
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"dim": 2, "g": [["1", "0"], ["0", "alpha"]],
                              "omega": [["0", "u1"], ["-u1", "0"]], "params": ["alpha"]}))
    assert io_json.load_operator(str(op)).n == 2


@pytest.mark.parametrize("params", ["ab", "alpha", [1, None, 2.5], ["a", 3], {"a": 1}, None])
def test_operator_params_must_be_a_list_of_strings(tmp_path, params):
    """A string is not read as its characters, nor a number or null as a name."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"dim": 1, "g": [["1"]], "omega": [["0"]], "params": params}))
    with pytest.raises(ParseError, match="params must be a list of strings"):
        io_json.load_operator(str(path))


def test_operator_params_must_be_readable_names(tmp_path):
    """A declared parameter that no entry could name is refused."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"dim": 1, "g": [["1"]], "omega": [["0"]], "params": ["f(x)"]}))
    with pytest.raises(ParseError, match="cannot be read"):
        io_json.load_operator(str(path))


def test_writers_keep_an_existing_file_when_a_value_cannot_be_printed(tmp_path):
    """The text is built before the file is opened: a failed write truncates nothing."""
    op_path, alg_path = tmp_path / "op.json", tmp_path / "alg.json"
    ring = field_ring(2)
    io_json.dump_operator(PolyOperator(ring, [[1, 0], [0, 1]], [[0, "u1"], ["-u1", 0]]),
                          str(op_path))
    io_json.dump_algebra(LieAlgebra.from_brackets(2, {(0, 1): {1: Scalar(1)}}), str(alg_path))
    before = op_path.read_bytes(), alg_path.read_bytes()
    with pytest.raises(UnprintableValueError):
        io_json.dump_operator(PolyOperator(ring, [[10**5000, 0], [0, 1]], [[0, 0], [0, 0]]),
                              str(op_path))
    with pytest.raises(UnprintableValueError):
        io_json.dump_algebra(LieAlgebra.from_brackets(2, {(0, 1): {1: Scalar(10**5000)}}),
                             str(alg_path))
    assert (op_path.read_bytes(), alg_path.read_bytes()) == before
