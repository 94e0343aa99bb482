"""The prediction messages of the ``exec:`` model protocol, for both of its sides.

A prediction request carries rows and its reply one prediction per row, in a
form of ``FORMS``. ``row`` and ``batch`` carry JSON lists: a reply's entry per
row holds one number (scalar), one integer (label) or one probability per
class (probs). ``binary`` carries base64 text (standard alphabet, padded, no
line breaks) of little-endian row-major values: float64 rows and scalar or
probs predictions, int64 labels. The driver (``cli.ExternalModel``) calls
``request`` and ``read_reply``, the reference server (``model_server``)
``read_rows`` and ``reply``. It needs only numpy and ``binascii``, which
numpy loads anyway, so the server starts no slower.
"""

from __future__ import annotations

import binascii
import itertools

import numpy as np

from .handle import check_outputs

FLOAT64 = np.dtype("<f8")
INT64 = np.dtype("<i8")

# form -> (op, field of its rows, field of its reply)
FORMS = {
    "row": ("predict", "x", "y"),
    "batch": ("predict_batch", "X", "y"),
    "binary": ("predict_batch", "Xb", "yb"),
}


class ModelProtocolError(RuntimeError):
    """The external model child violated the line-delimited JSON protocol."""


def reply_dtype(output_kind: str) -> np.dtype:
    """The type of the binary reply values of a model of ``output_kind``."""
    return INT64 if output_kind == "label" else FLOAT64


def encode(values, dtype: np.dtype) -> str:
    """The base64 text of ``values`` converted to ``dtype``, row-major."""
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def decode(text, dtype: np.dtype) -> np.ndarray:
    """The flat array of ``dtype`` values that ``encode`` wrote as ``text``, in
    native byte order. Raises ValueError unless ``text`` is a string of
    base64 exactly as ``encode`` writes it, of a whole number of values."""
    if not isinstance(text, str):
        raise ValueError(f"expected a base64 string, got {type(text).__name__}")
    raw = binascii.a2b_base64(text)  # binascii.Error, a ValueError, on bad padding
    # a2b_base64 skips characters outside the alphabet; encode writes none
    if binascii.b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise ValueError("not canonical base64")
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{len(raw)} bytes is not a whole number of {dtype.itemsize}-byte values")
    return np.frombuffer(raw, dtype=dtype).astype(dtype.newbyteorder("="))


def number_matrix(rows, dtype: np.dtype = FLOAT64, width: int = -1) -> np.ndarray | None:
    """The JSON number rule: ``rows`` as a ``(len(rows), width)`` matrix of
    ``dtype`` if it is a list of lists of ``width`` JSON numbers (integers for
    an integer ``dtype``; ``true`` is none), else None. Width -1 takes any one
    nonzero width, so ``number_matrix([v])`` reads a JSON list of numbers."""
    numbers = {int} if dtype.kind == "i" else {int, float}
    if not (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(type, itertools.chain.from_iterable(rows))) <= numbers):
        return None
    try:  # an int beyond the range, ragged rows, or rows of another width
        P = np.array(rows, dtype=dtype).reshape(len(rows), width)
    except (OverflowError, ValueError):
        return None
    return P if P.shape[1] else None


def request(form: str, X: np.ndarray) -> dict:
    """The request of ``form`` for the rows of the float matrix ``X`` (one for ``row``)."""
    op, field, _ = FORMS[form]
    rows = encode(X, FLOAT64) if form == "binary" else X.tolist()
    return {"op": op, field: rows[0] if form == "row" else rows}


def form_of(message: dict) -> str | None:
    """The form whose op and rows field a prediction request has; else None."""
    return next((form for form, (op, field, _) in FORMS.items()
                 if message.get("op") == op and field in message), None)


def read_rows(form: str, message: dict, arity: int) -> np.ndarray:
    """The ``(n, arity)`` float rows of a request of ``form``; ValueError unless
    they are ``arity`` JSON numbers per row, or n x arity float64 values."""
    field = FORMS[form][1]
    if form == "binary":
        return decode(message[field], FLOAT64).reshape(-1, arity)
    rows = message[field]
    X = number_matrix([rows] if form == "row" else rows, FLOAT64, arity)
    if X is None:
        raise ValueError(f"{field!r} must hold rows of {arity} JSON numbers")
    return X


def reply(form: str, Y, kind: str) -> dict:
    """The reply of ``form`` that carries a model's predictions ``Y`` of ``kind``."""
    field = FORMS[form][2]
    if form == "binary":
        return {field: encode(Y, reply_dtype(kind))}
    Y = np.asarray(Y, dtype=reply_dtype(kind))
    rows = (Y if kind == "probs" else Y[:, None]).tolist()
    return {field: rows[0] if form == "row" else rows}


def read_reply(form: str, message: dict, kind: str, n: int, classes: int = 0) -> np.ndarray:
    """The n predictions of ``kind`` that a reply of ``form`` carries, ``classes`` per
    row for probs (any one count while 0). A reply that breaks the number or shape rule,
    or a value that the output rule (``handle.check_outputs``) refuses, is a
    ModelProtocolError; a non-finite value is a FloatingPointError (a numeric failure)."""
    op, _, field = FORMS[form]
    width = classes if kind == "probs" else 1
    if form == "binary":
        try:
            P = decode(message.get(field), reply_dtype(kind))
        except ValueError as exc:
            raise ModelProtocolError(f"{op} returned a malformed {field!r}: {exc}") from None
        # n rows of the values' width; a count that n does not divide fails below
        P = P.reshape(n, -1) if n and P.size % n == 0 else P[:, None]
    else:
        rows = [message.get(field)] if form == "row" else message.get(field)
        P = number_matrix(rows, reply_dtype(kind))
        if P is None:
            # labels that parse as floats, such as NaN or 1.7, break the output
            # rule as they would in process; a whole float such as 1.0 does not
            if kind == "label" and (F := number_matrix(rows, FLOAT64, 1)) is not None:
                check_outputs(F[:, 0], kind, op, ModelProtocolError)
            raise ModelProtocolError(f"{op} returned {_refused_row(rows, kind, width)}")
    if P.shape != (n, width or P.shape[1]) or not P.size:
        raise ModelProtocolError(
            f"{op} returned {P.shape[1]} class probabilities per row after {width}"
            if kind == "probs" and len(P) == n and P.size else
            f"{op} returned {P.size} {kind} values in {field!r} for {n} rows")
    Y = P if kind == "probs" else P.reshape(n)
    check_outputs(Y, kind, op, ModelProtocolError)
    return Y


def _refused_row(rows, kind: str, width: int) -> str:
    """The first row, of a reply the number rule refused, that it refuses alone
    or with another length than ``width`` (than row 0 when ``width`` is 0)."""
    if type(rows) is not list:
        return f"a 'y' that is not a list: {rows!r:.200}"
    for i, y in enumerate(rows):
        if number_matrix([y], reply_dtype(kind), width or -1) is None:
            return f"a malformed 'y' at row {i}: {y!r}"
        width = len(y)
    return "no rows"
