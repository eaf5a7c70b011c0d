"""One reader, one writer and one JSON form for every munipath document,
and the one way its loaders fill in defaults (``given_defaults``).

A *source* is a path (``str`` or ``os.PathLike``); an open file, text or
binary, whose ``name`` (if it is a path) gives the base directory; ``bytes``;
or a ``str`` holding the document itself, recognised by starting with ``{``
after whitespace.  Every other ``str`` is a path.

A *sink* is a path, a binary stream (it gets UTF-8 bytes), or anything else
with ``write`` (it gets text).  The bytes are the same for every sink.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import MISSING, fields


def dumps(obj) -> str:
    """The canonical JSON form of every document munipath writes."""
    return json.dumps(obj, sort_keys=True, indent=1)


def given_defaults(cls, d: dict, skip: tuple[str, ...] = ()) -> dict:
    """Keyword arguments for the fields of dataclass ``cls`` with a plain
    default that ``d`` sets, converted to the default's type; absent keys
    keep the default."""
    return {f.name: type(f.default)(d[f.name]) for f in fields(cls)
            if f.default is not MISSING and f.name in d and f.name not in skip}


def read_text(source) -> tuple[str, str | None]:
    """The source's text and the directory that relative references resolve
    against (None when the source has no path)."""
    if isinstance(source, bytes):
        return source.decode("utf-8"), None
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return source, None
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8"), os.path.dirname(os.path.abspath(path))
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    name = getattr(source, "name", None)
    return data, os.path.dirname(os.path.abspath(name)) if isinstance(name, str) else None


def write_text(sink, text: str) -> None:
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as fh:
            fh.write(text.encode("utf-8"))
    elif isinstance(sink, (io.RawIOBase, io.BufferedIOBase)):
        sink.write(text.encode("utf-8"))
    else:
        sink.write(text)
