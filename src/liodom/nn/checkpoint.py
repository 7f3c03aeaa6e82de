"""Self-describing parameter checkpoint format.

Layout: magic "LIOCKPT1", 8-byte little-endian header length, a UTF-8 JSON
header, then the concatenated little-endian raw value arrays. The header
records the architecture config, the precision (the arrays' own dtype,
float32 or float64, one for all of them), and per-parameter name, shape and
byte offset.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"LIOCKPT1"
PRECISIONS = ("float32", "float64")


def save_checkpoint(path, arrays: dict[str, np.ndarray], config: dict | None = None):
    """Write the arrays in their own dtype, which must be one of PRECISIONS
    and the same for all of them."""
    precisions = {np.asarray(a).dtype.name for a in arrays.values()} or {"float64"}
    if len(precisions) > 1 or not precisions <= set(PRECISIONS):
        raise ValueError(f"checkpoint arrays must share one dtype of {PRECISIONS}, "
                         f"got {sorted(precisions)}")
    precision = precisions.pop()
    dtype = np.dtype(precision).newbyteorder("<")
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype=dtype)
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        blobs.append(a.tobytes())
        offset += len(blobs[-1])
    header = json.dumps({
        "config": config or {},
        "precision": precision,
        "params": entries,
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for b in blobs:
            f.write(b)


def load_checkpoint(path):
    """Returns (arrays, config, precision); the arrays keep the stored precision.

    Raises ValueError, naming the file, on anything that is not a whole
    checkpoint: a wrong magic, a header that is cut short, malformed or
    missing a key, and arrays that run past the end of the file.
    """
    data = Path(path).read_bytes()
    if data[:8] != MAGIC or len(data) < 16:
        raise ValueError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack("<Q", data[8:16])
    base = 16 + hlen
    if len(data) < base:
        raise ValueError(f"{path}: the {hlen}-byte header runs past the end of the file")
    try:
        header = json.loads(data[16:base].decode("utf-8"))
        config, precision = dict(header["config"]), header["precision"]
        entries = [(str(e["name"]), [int(d) for d in e["shape"]], int(e["offset"]))
                   for e in header["params"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
    if precision not in PRECISIONS:
        raise ValueError(f"{path}: unknown precision {precision!r}")
    dtype = np.dtype(precision).newbyteorder("<")
    arrays = {}
    for name, shape, offset in entries:
        n = math.prod(shape)
        if min(shape, default=0) < 0 or offset < 0 or base + offset + n * dtype.itemsize > len(data):
            raise ValueError(f"{path}: array {name!r} of shape {shape} at offset {offset} "
                             f"runs past the end of the file")
        a = np.frombuffer(data, dtype=dtype, count=n, offset=base + offset)
        arrays[name] = a.reshape(shape).astype(precision)
    return arrays, config, precision
