"""Versioned on-disk artifacts exchanged between pipeline stages.

Format: one UTF-8 JSON header line (sorted keys) followed by the raw
little-endian float64/int64 bytes of each named array, in header order.
The encoding is fully deterministic, so re-writing identical content
yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from typing import Any

import numpy as np

from vraets.errors import DataError

FORMAT_VERSION = 1
_MAGIC = "vraets-artifact"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def save_artifact(path, kind: str, meta: dict[str, Any],
                  arrays: dict[str, np.ndarray]) -> None:
    entries = []
    contiguous = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            arr = np.ascontiguousarray(arr, dtype="<f8")
        elif arr.dtype.kind in "iub":
            arr = np.ascontiguousarray(arr, dtype="<i8")
        else:
            raise DataError(f"save_artifact: unsupported dtype {arr.dtype} for {name!r}")
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            raise DataError(f"save_artifact: non-finite values in {name!r}")
        entries.append({"name": name, "dtype": arr.dtype.str,
                        "shape": list(arr.shape)})
        contiguous.append(arr)
    header = {"magic": _MAGIC, "format_version": FORMAT_VERSION,
              "kind": kind, "meta": meta, "arrays": entries}
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with replacing(path, binary=True) as fh:
        fh.write(line.encode("utf-8"))
        fh.write(b"\n")
        for arr in contiguous:
            fh.write(arr)   # the array's own buffer, no bytes copy


@contextmanager
def replacing(path, binary: bool = False):
    """Yields a new file (UTF-8 text with no newline translation, or
    binary) that replaces `path` when the block ends; on any exception it
    is removed and `path` keeps what it held. It is made next to `path`
    with mode "x", so the umask sets its permissions. No fsync."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = (open(tmp, "xb") if binary
          else open(tmp, "x", encoding="utf-8", newline=""))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# what a metadata value must be, named as the error message names it;
# JSON gives bools for true/false, so type() keeps them out of the integers
_KINDS = {
    "any value": lambda v: True,
    "an integer": lambda v: type(v) is int,
    "an integer >= 1": lambda v: type(v) is int and v >= 1,
    "a string": lambda v: type(v) is str,
    "a list of strings": lambda v: type(v) is list and all(
        type(s) is str for s in v),
    "an object": lambda v: type(v) is dict,
    "an object of number lists": lambda v: type(v) is dict and all(
        type(ls) is list and all(type(e) in (int, float) for e in ls)
        for ls in v.values()),
}


def load_artifact(path, expect_kind: str | None = None,
                  fields: dict[str, str] | None = None,
                  arrays: dict[str, int] | None = None,
                  optional: dict[str, int] | None = None):
    """Returns (kind, meta, arrays). Validates magic, version, header
    fields and shapes, and that the arrays fill the file exactly; then
    what the reader declares: each metadata key in `fields` present and
    of its kind (a key of _KINDS), each array in `arrays` present with
    its rank, and the `optional` arrays all present with their ranks or
    all absent. Every missing key and array is named at once."""
    with _open(path, "artifact") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: not a vraets artifact ({exc})") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: header is not a JSON object")
        if header.get("magic") != _MAGIC:
            raise DataError(f"{path}: bad magic")
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version "
                            f"{header.get('format_version')}")
        kind, meta, entries = (header.get(k) for k in ("kind", "meta", "arrays"))
        if not (isinstance(kind, str) and isinstance(meta, dict)
                and isinstance(entries, list)):
            raise DataError(f"{path}: header needs a string 'kind', an object "
                            f"'meta' and a list 'arrays'")
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        loaded = {}
        for ent in entries:
            name, dtype, shape = _parse_entry(path, ent)
            if name in loaded:
                raise DataError(f"{path}: duplicate array name {name!r}")
            nbytes = math.prod(shape) * dtype.itemsize
            if nbytes > remaining:
                raise DataError(f"{path}: truncated array {name!r}")
            buf = fh.read(nbytes)
            remaining -= nbytes
            loaded[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if remaining:
            raise DataError(f"{path}: {remaining} trailing bytes after the "
                            f"last array")
    if expect_kind is not None and kind != expect_kind:
        raise DataError(f"{path}: expected {expect_kind!r} artifact, found {kind!r}")
    fields, ranks = fields or {}, dict(arrays or {})
    if optional and not optional.keys().isdisjoint(loaded):
        ranks.update(optional)
    missing = [f"meta key {k!r}" for k in fields if k not in meta]
    missing += [f"array {a!r}" for a in ranks if a not in loaded]
    if missing:
        raise DataError(f"{path}: missing {', '.join(missing)}")
    for key, what in fields.items():
        if not _KINDS[what](meta[key]):
            raise DataError(f"{path}: {key} must be {what}, got {meta[key]!r}")
    for name, rank in ranks.items():
        if loaded[name].ndim != rank:
            raise DataError(f"{path}: {name} must be {rank}-D, got shape "
                            f"{loaded[name].shape}")
    return kind, meta, loaded


def read_text(path, what: str) -> str:
    """The whole of a UTF-8 text input, line endings untouched
    (newline=""); `what` names the input when it does not exist."""
    with _open(path, what, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _open(path, what: str, mode: str = "rb", **kwargs):
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        raise DataError(f"missing {what}: {path}") from None


def _parse_entry(path, ent) -> tuple[str, np.dtype, tuple[int, ...]]:
    """(name, dtype, shape) of one header array entry, each checked."""
    if not isinstance(ent, dict) or not {"name", "dtype", "shape"} <= ent.keys():
        raise DataError(f"{path}: array entry {ent!r} needs name, dtype "
                        f"and shape")
    name, shape = ent["name"], ent["shape"]
    if not isinstance(name, str):
        raise DataError(f"{path}: array name {name!r} is not a string")
    dtype = _DTYPES.get(ent["dtype"]) if isinstance(ent["dtype"], str) else None
    if dtype is None:
        raise DataError(f"{path}: unknown dtype {ent['dtype']!r} for {name!r}")
    if not (isinstance(shape, list)
            and all(type(s) is int and s >= 0 for s in shape)):
        raise DataError(f"{path}: shape of {name!r} must be a list of "
                        f"non-negative integers, got {shape!r}")
    return name, dtype, tuple(shape)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(artifact_path, config: dict[str, Any],
                   inputs: dict[str, str]) -> str:
    """Writes a reproducibility manifest next to an artifact."""
    manifest = {
        "artifact": os.path.basename(str(artifact_path)),
        "config": config,
        "input_hashes": {k: sha256_file(v) for k, v in inputs.items()},
        "seed": config["seed"],
    }
    path = str(artifact_path) + ".manifest.json"
    with replacing(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
