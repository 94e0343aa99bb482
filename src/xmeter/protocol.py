"""The binary row format of the ``exec:`` model protocol, for both of its sides.

A child that advertises ``"binary": true`` (with ``"batch": true``) in its
handshake takes ``predict_batch`` rows as ``Xb`` and answers with ``yb``
instead of the JSON lists ``X`` and ``y``. Each holds a matrix as the base64
text (standard alphabet, padded, no line breaks) of its values'
little-endian bytes in row-major order: float64 for input rows and for
``scalar`` and ``probs`` predictions, int64 for ``label`` predictions. The
model's client (``cli.ExternalModel``) and the reference server
(``model_server``) both encode and decode with the two functions here. It
needs only numpy and ``binascii``, which numpy loads anyway, so the server
starts no slower.
"""

from __future__ import annotations

import binascii

import numpy as np

FLOAT64 = np.dtype("<f8")
INT64 = np.dtype("<i8")


def reply_dtype(output_kind: str) -> np.dtype:
    """The type of the values of a ``yb`` reply of a model of ``output_kind``."""
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
