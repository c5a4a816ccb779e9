"""JSON serialization of matrices, block matrices, and linear maps.

Wire formats (one JSON object per file/stream):

- matrix: ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with ``data``
  row-major and exactly ``R * C`` entries;
- block matrix: the same plus ``"m"`` and ``"n"`` (and ``rows = cols = m*n``);
- linear map: ``{"n": ..., "k": ..., "basis_images": [matrix, ...]}`` with
  the ``n^2`` images in row-major ``(i, j)`` order;
- counterexample (as ``blockineq verify`` writes it): ``{"suite": ...,
  "check": {...}, "input": document, ...}``; it decodes as its ``input``, so
  a counterexample file replays as the matrix it failed on.

Round-trips are bit-exact for finite doubles: values are emitted via the
shortest-repr float encoding (or the equivalent integer form when exact),
and NaN/Inf are rejected on both sides.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .blockops import BlockMatrix
from .densemat import as_matrix
from .errors import ParseError, UsageError, ValidationError
from .maps import LinearMapRep

# Largest magnitude at which every integer is an exact double; values beyond
# this are never collapsed to integer form.
_MAX_EXACT_INT = 2**53


def _num(value: float):
    """Render a float as an int when that is lossless, else as the float."""
    if value == int(value) and abs(value) <= _MAX_EXACT_INT and not (
        value == 0.0 and np.signbit(value)
    ):
        return int(value)
    return value


def matrix_to_doc(x) -> dict:
    """Encode a dense matrix as a plain-matrix document."""
    mat = as_matrix(x, allow_empty=True)
    data = [[_num(float(v.real)), _num(float(v.imag))] for v in mat.reshape(-1)]
    return {"rows": mat.shape[0], "cols": mat.shape[1], "data": data}


def block_to_doc(b: BlockMatrix) -> dict:
    doc = matrix_to_doc(b.mat)
    doc["m"] = b.m
    doc["n"] = b.n
    return doc


def map_to_doc(phi: LinearMapRep) -> dict:
    return {
        "n": phi.n,
        "k": phi.k,
        "basis_images": [matrix_to_doc(img) for img in phi.basis_images],
    }


def to_doc(obj) -> dict:
    """Encode a matrix, BlockMatrix, or LinearMapRep as its document."""
    if isinstance(obj, BlockMatrix):
        return block_to_doc(obj)
    if isinstance(obj, LinearMapRep):
        return map_to_doc(obj)
    return matrix_to_doc(obj)


def _require_positive_int(doc: dict, key: str, where: str) -> int:
    if key not in doc:
        raise ParseError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{where}: field {key!r} must be a positive integer, got {value!r}")
    return value


def _parse_dense(doc: dict, where: str) -> np.ndarray:
    rows = _require_positive_int(doc, "rows", where)
    cols = _require_positive_int(doc, "cols", where)
    data = doc.get("data")
    if not isinstance(data, list):
        raise ParseError(f"{where}: field 'data' must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValidationError(
            f"{where}: 'data' has {len(data)} entries, expected rows*cols = {rows * cols}"
        )
    values = []
    # the location of an entry is spelled out only when it is refused
    for idx, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or isinstance(entry[0], bool)
            or isinstance(entry[1], bool)
            or not isinstance(entry[0], (int, float))
            or not isinstance(entry[1], (int, float))
        ):
            raise ParseError(
                f"{where}: data[{idx}]: each data entry must be a [re, im] number pair, "
                f"got {entry!r}"
            )
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError:
            # an integer beyond float64; its digits are not echoed, as they may be thousands
            raise ValidationError(f"{where}: data[{idx}]: integer too large for float64") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError(f"{where}: data[{idx}]: non-finite value {entry!r}")
        values.append(complex(re, im))
    return np.array(values, dtype=np.complex128).reshape(rows, cols)


def doc_to_obj(doc, where: str = "document"):
    """Decode a document into an ndarray, BlockMatrix, or LinearMapRep.

    Dispatch: ``check`` and ``input`` present -> counterexample, decoded as
    its ``input``; ``basis_images`` present -> linear map; ``m`` present ->
    block matrix; otherwise a plain matrix.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if "check" in doc and "input" in doc:
        return doc_to_obj(doc["input"], f"{where}: input")
    if "basis_images" in doc:
        n = _require_positive_int(doc, "n", where)
        k = _require_positive_int(doc, "k", where)
        images = doc["basis_images"]
        if not isinstance(images, list):
            raise ParseError(f"{where}: 'basis_images' must be a list of matrix documents")
        if len(images) != n * n:
            raise ValidationError(
                f"{where}: expected {n * n} basis images for n={n}, got {len(images)}"
            )
        mats = []
        for idx, img in enumerate(images):
            w = f"{where}: basis_images[{idx}]"
            if not isinstance(img, dict):
                raise ParseError(f"{w}: expected a matrix document")
            mat = _parse_dense(img, w)
            if mat.shape != (k, k):
                raise ValidationError(f"{w}: expected shape ({k}, {k}), got {mat.shape}")
            mats.append(mat)
        return LinearMapRep(n, k, tuple(mats))
    if "m" in doc:
        m = _require_positive_int(doc, "m", where)
        n = _require_positive_int(doc, "n", where)
        mat = _parse_dense(doc, where)
        if mat.shape != (m * n, m * n):
            raise ValidationError(
                f"{where}: block shape ({m}, {n}) requires a {m * n}x{m * n} matrix, "
                f"got {mat.shape[0]}x{mat.shape[1]}"
            )
        return BlockMatrix(m, n, mat)
    return _parse_dense(doc, where)


def serialize(obj) -> str:
    """Serialize to a canonical JSON string (stable key order, no NaN/Inf)."""
    doc = to_doc(obj) if not isinstance(obj, dict) else obj
    try:
        return json.dumps(doc, allow_nan=False, separators=(",", ":"))
    except ValueError as exc:
        raise ValidationError(f"cannot serialize non-finite values: {exc}") from exc


def parse(text: str, where: str = "document"):
    """Parse a JSON string into the object its keys describe."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # valid JSON that Python refuses, as an integer of 4301+ digits
        raise ParseError(f"{where}: {exc}") from exc
    return doc_to_obj(doc, where)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, ending in a newline.

    A path that cannot be written is a :class:`UsageError` naming it, as a
    path that cannot be read is a :class:`ParseError` in :func:`load`.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save(path, obj) -> None:
    write_text(path, serialize(obj))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse(text, where=str(path))
