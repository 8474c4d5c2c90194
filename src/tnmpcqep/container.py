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
    if header.get("version") != CONTAINER_VERSION:
        raise ValueError(f"unsupported container version {header.get('version')!r}")
    listed = header.get("entries")
    if not isinstance(listed, list):
        raise ValueError("container header lists no entries")
    names = [e["name"] for e in listed]
    if len(set(names)) != len(names):
        raise ValueError("duplicate entry names in container header")

    payload = raw[4 + hlen :]
    total = sum(int(np.prod(e["shape"])) for e in listed)
    if len(payload) != 16 * total:
        raise ValueError(f"payload length {len(payload)} != {16 * total} expected")

    arrays = {}
    offset = 0
    for entry in listed:
        name, shape = entry["name"], tuple(entry["shape"])
        count = int(np.prod(shape))
        pairs = np.frombuffer(payload, dtype="<f8", count=2 * count, offset=offset)
        offset += 16 * count
        if entry["dtype"] == "real":
            if np.any(pairs[1::2] != 0.0):
                raise ValueError(f"real entry {name} carries nonzero imaginary parts")
            arrays[name] = pairs[0::2].reshape(shape).copy()
        elif entry["dtype"] == "complex":
            arrays[name] = (pairs[0::2] + 1j * pairs[1::2]).reshape(shape).copy()
        else:
            raise ValueError(f"entry {name} has unknown dtype tag {entry['dtype']!r}")
    return header, arrays
