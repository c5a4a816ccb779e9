"""Tests for blockineq.matio: JSON documents, bit-exact round-trips, errors."""

import json

import numpy as np
import pytest

from blockineq.blockops import BlockMatrix
from blockineq.errors import ParseError, ValidationError
from blockineq.maps import LinearMapRep, builtin_map
from blockineq.matio import (
    block_to_doc,
    doc_to_obj,
    load,
    map_to_doc,
    matrix_to_doc,
    parse,
    save,
    serialize,
    to_doc,
)

from oracles import random_complex


# ---------------------------------------------------------------------------
# serialize: canonical text
# ---------------------------------------------------------------------------


def test_serialize_identity2_exact_string():
    assert (
        serialize(np.eye(2))
        == '{"rows":2,"cols":2,"data":[[1,0],[0,0],[0,0],[1,0]]}'
    )


def test_serialize_collapses_exact_integers():
    text = serialize(np.array([[3.0 + 0j, -2.0 + 5.0j]]))
    assert text == '{"rows":1,"cols":2,"data":[[3,0],[-2,5]]}'


def test_serialize_keeps_fractional_values_as_floats():
    text = serialize(np.array([[0.5 + 0.25j]]))
    assert text == '{"rows":1,"cols":1,"data":[[0.5,0.25]]}'


def test_serialize_negative_zero_not_collapsed():
    # Collapsing -0.0 to integer 0 would drop the sign bit; it must survive.
    # (Built via complex(re, im): the expression -0.0 + 0j would already
    # wash the sign out in Python's complex addition.)
    text = serialize(np.array([[complex(-0.0, 0.0)]]))
    assert '[-0.0,0]' in text
    out = parse(text)
    assert np.signbit(out[0, 0].real)
    assert not np.signbit(out[0, 0].imag)


def test_serialize_two_pow_53_boundary():
    exact = float(2**53)
    beyond = float(2**53 + 2)
    doc = matrix_to_doc(np.array([[exact + 1j * beyond]]))
    assert doc["data"][0][0] == 2**53
    assert isinstance(doc["data"][0][0], int)
    assert isinstance(doc["data"][0][1], float)
    out = parse(serialize(np.array([[exact + 1j * beyond]])))
    assert out[0, 0] == complex(exact, beyond)


def test_serialize_passes_plain_dicts_through():
    assert serialize({"a": 1, "b": [2, 3]}) == '{"a":1,"b":[2,3]}'


def test_serialize_rejects_nan_in_matrix():
    with pytest.raises(ValueError):
        serialize(np.array([[np.nan]]))


def test_serialize_rejects_non_finite_in_raw_dict():
    with pytest.raises(ValidationError, match="non-finite"):
        serialize({"x": float("inf")})


# ---------------------------------------------------------------------------
# document encoding / dispatch
# ---------------------------------------------------------------------------


def test_matrix_to_doc_shape_and_row_major_order():
    mat = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j], [9 + 10j, 11 + 12j]])
    doc = matrix_to_doc(mat)
    assert doc["rows"] == 3
    assert doc["cols"] == 2
    assert doc["data"] == [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]]


def test_block_to_doc_adds_factors():
    b = BlockMatrix(2, 3, np.eye(6))
    doc = block_to_doc(b)
    assert doc["m"] == 2
    assert doc["n"] == 3
    assert doc["rows"] == doc["cols"] == 6
    assert len(doc["data"]) == 36


def test_map_to_doc_lists_all_basis_images():
    phi = builtin_map("psi", 3)
    doc = map_to_doc(phi)
    assert doc["n"] == 3
    assert doc["k"] == 3
    assert len(doc["basis_images"]) == 9
    assert all(img["rows"] == img["cols"] == 3 for img in doc["basis_images"])


def test_to_doc_dispatch():
    assert "m" not in to_doc(np.eye(2))
    assert "m" in to_doc(BlockMatrix(1, 2, np.eye(2)))
    assert "basis_images" in to_doc(builtin_map("identity", 2))


# ---------------------------------------------------------------------------
# round-trips (bit-exact)
# ---------------------------------------------------------------------------


def test_matrix_round_trip_bitwise_random():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        mat = random_complex(rng, rows, cols)
        out = parse(serialize(mat))
        assert isinstance(out, np.ndarray)
        assert out.shape == (rows, cols)
        assert out.tobytes() == np.ascontiguousarray(mat, dtype=np.complex128).tobytes()


def test_matrix_round_trip_extreme_values():
    mat = np.array(
        [
            [5e-324 + 0j, -1.7976931348623157e308 + 1j * 5e-324],
            [-0.0 - 0.0j, 1e-308 + 1j * (2**53 - 1)],
        ]
    )
    out = parse(serialize(mat))
    assert out.tobytes() == mat.tobytes()


def test_block_round_trip_preserves_structure():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = BlockMatrix(3, 2, mat)
    out = parse(serialize(b))
    assert isinstance(out, BlockMatrix)
    assert (out.m, out.n) == (3, 2)
    assert out.mat.tobytes() == b.mat.tobytes()


@pytest.mark.parametrize("name", ["phi", "psi", "identity", "transpose", "trace_map"])
def test_map_round_trip_all_builtins(name):
    phi = builtin_map(name, 3)
    out = parse(serialize(phi))
    assert isinstance(out, LinearMapRep)
    assert out.n == phi.n
    assert out.k == phi.k
    for got, want in zip(out.basis_images, phi.basis_images):
        assert got.tobytes() == want.tobytes()


def test_int_entries_parse_to_complex_doubles():
    out = parse('{"rows":1,"cols":1,"data":[[1,-2]]}')
    assert out.dtype == np.complex128
    assert out[0, 0] == 1 - 2j


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "mat.json"
    mat = random_complex(np.random.default_rng(99), 3, 3)
    save(path, mat)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    json.loads(text)  # the file is a single valid JSON document
    out = load(path)
    assert out.tobytes() == mat.tobytes()


def test_save_load_block_round_trip(tmp_path):
    path = tmp_path / "block.json"
    b = BlockMatrix(2, 2, np.arange(16, dtype=float).reshape(4, 4))
    save(path, b)
    out = load(path)
    assert isinstance(out, BlockMatrix)
    assert (out.m, out.n) == (2, 2)
    assert out.mat.tobytes() == b.mat.tobytes()


# ---------------------------------------------------------------------------
# parse errors (malformed documents)
# ---------------------------------------------------------------------------


def test_parse_invalid_json_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line 1, column"):
        parse("{not json")


def test_parse_top_level_must_be_object():
    with pytest.raises(ParseError, match="expected a JSON object, got list"):
        parse("[1, 2]")


def test_parse_missing_rows_field():
    with pytest.raises(ParseError, match="missing required field 'rows'"):
        parse('{"cols":1,"data":[[1,0]]}')


def test_parse_rejects_non_positive_dimension():
    with pytest.raises(ParseError, match="'rows' must be a positive integer"):
        parse('{"rows":0,"cols":1,"data":[]}')


def test_parse_rejects_boolean_dimension():
    with pytest.raises(ParseError, match="'cols' must be a positive integer"):
        parse('{"rows":1,"cols":true,"data":[[1,0]]}')


def test_parse_data_must_be_list():
    with pytest.raises(ParseError, match="'data' must be a list"):
        parse('{"rows":1,"cols":1,"data":"nope"}')


def test_parse_data_length_mismatch_names_expected_count():
    with pytest.raises(ValidationError, match="has 1 entries, expected rows\\*cols = 4"):
        parse('{"rows":2,"cols":2,"data":[[1,0]]}')


@pytest.mark.parametrize(
    "entry",
    ["[1]", "[1,2,3]", '[1,"a"]', "[1,true]", "5", "null"],
)
def test_parse_bad_entry_shapes(entry):
    with pytest.raises(ParseError, match=r"data\[0\].*\[re, im\] number pair"):
        parse('{"rows":1,"cols":1,"data":[%s]}' % entry)


def test_parse_error_names_offending_entry_index():
    with pytest.raises(ParseError, match=r"data\[2\]"):
        parse('{"rows":1,"cols":3,"data":[[1,0],[2,0],[3]]}')


@pytest.mark.parametrize(
    "text, error, message",
    [
        (
            '{"rows":1,"cols":3,"data":[[1,0],[2,0],[3,true]]}',
            ParseError,
            "doc.json: data[2]: each data entry must be a [re, im] number pair, got [3, True]",
        ),
        (
            '{"rows":1,"cols":2,"data":[[1,0],[0,-Infinity]]}',
            ValidationError,
            "doc.json: data[1]: non-finite value [0, -inf]",
        ),
        (
            '{"n":1,"k":1,"basis_images":[{"rows":1,"cols":1,"data":[[NaN,0]]}]}',
            ValidationError,
            "doc.json: basis_images[0]: data[0]: non-finite value [nan, 0]",
        ),
    ],
)
def test_parse_entry_errors_keep_their_exact_messages(text, error, message):
    with pytest.raises(error) as exc:
        parse(text, where="doc.json")
    assert str(exc.value) == message


def test_parse_rejects_nan_literal_as_validation_error():
    # Python's json.loads accepts bare NaN/Infinity tokens, so rejection
    # happens at value validation rather than at JSON parsing.
    with pytest.raises(ValidationError, match="non-finite"):
        parse('{"rows":1,"cols":1,"data":[[NaN,0]]}')


def test_parse_rejects_infinity_literal():
    with pytest.raises(ValidationError, match="non-finite"):
        parse('{"rows":1,"cols":1,"data":[[0,-Infinity]]}')


def test_parse_block_factor_mismatch():
    doc = matrix_to_doc(np.eye(3))
    doc["m"] = 2
    doc["n"] = 2
    with pytest.raises(ValidationError, match=r"\(2, 2\) requires a 4x4 matrix, got 3x3"):
        doc_to_obj(doc)


def test_parse_map_wrong_image_count():
    doc = map_to_doc(builtin_map("phi", 2))
    doc["basis_images"] = doc["basis_images"][:3]
    with pytest.raises(ValidationError, match="expected 4 basis images for n=2, got 3"):
        doc_to_obj(doc)


def test_parse_map_wrong_image_shape():
    doc = map_to_doc(builtin_map("phi", 2))
    doc["basis_images"][1] = matrix_to_doc(np.eye(3))
    with pytest.raises(ValidationError, match=r"basis_images\[1\].*expected shape \(2, 2\)"):
        doc_to_obj(doc)


def test_parse_map_images_must_be_list():
    with pytest.raises(ParseError, match="'basis_images' must be a list"):
        doc_to_obj({"n": 1, "k": 1, "basis_images": 5})


def test_parse_map_image_must_be_object():
    with pytest.raises(ParseError, match=r"basis_images\[0\]: expected a matrix document"):
        doc_to_obj({"n": 1, "k": 1, "basis_images": [7]})


def test_parse_where_prefix_propagates():
    with pytest.raises(ParseError, match="^myfile.json: missing required field"):
        parse('{"cols":1,"data":[]}', where="myfile.json")


def test_load_missing_file_raises_parse_error():
    with pytest.raises(ParseError, match="cannot read"):
        load("/nonexistent/dir/mat.json")
