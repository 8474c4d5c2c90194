"""Binary parameter container for the frontend parameter bundles (tn.save_params).

Layout: a 4-byte little-endian header length, a JSON header
{version, kind, config, entries: [{name, shape, dtype}]}, then the payload:
one little-endian float64 (re, im) pair per element of every entry, in
header order, C-contiguous.  Real-dtype entries are stored with zero
imaginary halves and must read back exactly zero, which doubles as a cheap
corruption tripwire.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

CONTAINER_VERSION = 1


def write_container(path, kind: str, config: dict, entries, extra: dict | None = None) -> None:
    """Write ordered (name, array) pairs under the given kind tag."""
    entries = [(name, np.asarray(arr)) for name, arr in entries]
    header = {
        "version": CONTAINER_VERSION,
        "kind": kind,
        "config": config,
        "entries": [
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "complex" if np.iscomplexobj(arr) else "real",
            }
            for name, arr in entries
        ],
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [struct.pack("<I", len(blob)), blob]
    for _, arr in entries:
        flat = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1)
        pairs = np.empty((flat.size, 2), dtype="<f8")
        pairs[:, 0] = flat.real
        pairs[:, 1] = flat.imag
        chunks.append(pairs.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _check_header(header) -> list:
    """The header's entry list, once the header is an object of the current version whose
    entries are objects with a unique str name, a shape of non-negative ints and a dtype
    tag of real or complex; ValueError otherwise."""
    if not isinstance(header, dict):
        raise ValueError("container header is not a JSON object")
    if header.get("version") != CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {header.get('version')!r}")
    listed = header.get("entries")
    if not isinstance(listed, list):
        raise ValueError("container header lists no entries")
    names = set()
    for entry in listed:
        if not isinstance(entry, dict):
            raise ValueError(f"container entry {entry!r} is not an object")
        name, shape = entry.get("name"), entry.get("shape")
        if not isinstance(name, str):
            raise ValueError(f"container entry name {name!r} is not a string")
        if name in names:
            raise ValueError("duplicate entry names in container header")
        names.add(name)
        # bool is an int subclass, and JSON true is no dimension
        if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
            raise ValueError(f"entry {name} has shape {shape!r}, not a list of non-negative ints")
        if entry.get("dtype") not in ("real", "complex"):
            raise ValueError(f"entry {name} has unknown dtype tag {entry.get('dtype')!r}")
    return listed


def read_container(path):
    """Read back (header, {name: array}); ValueError on any inconsistency."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ValueError("container too short for a header")
    (hlen,) = struct.unpack_from("<I", raw, 0)
    if 4 + hlen > len(raw):
        raise ValueError("container header extends past end of file")
    try:
        header = json.loads(raw[4 : 4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"container header is not valid JSON: {exc}") from None
    listed = _check_header(header)
    payload = raw[4 + hlen :]
    total = sum(math.prod(e["shape"]) for e in listed)
    if len(payload) != 16 * total:
        raise ValueError(f"payload length {len(payload)} != {16 * total} expected")

    arrays = {}
    offset = 0
    for entry in listed:
        name, shape = entry["name"], tuple(entry["shape"])
        count = math.prod(shape)
        pairs = np.frombuffer(payload, dtype="<f8", count=2 * count, offset=offset)
        offset += 16 * count
        if entry["dtype"] == "real":
            if np.any(pairs[1::2] != 0.0):
                raise ValueError(f"real entry {name} carries nonzero imaginary parts")
            arrays[name] = pairs[0::2].reshape(shape).copy()
        else:
            arrays[name] = (pairs[0::2] + 1j * pairs[1::2]).reshape(shape).copy()
    return header, arrays
