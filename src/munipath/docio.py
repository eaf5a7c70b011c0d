"""One reader, one writer and one JSON form for every munipath document,
and the one way its loaders fill in defaults (``given_defaults``).

A *source* is a path (``str`` or ``os.PathLike``), whose directory is where
sidecar files resolve, or a ``str`` holding the document itself, recognised
by starting with ``{`` after whitespace.  Every other ``str`` is a path.
A *sink* is a path; it gets the text as UTF-8 bytes.
"""

from __future__ import annotations

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
    against (None when the source is the text itself)."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return source, None
    path = os.fspath(source)
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8"), os.path.dirname(os.path.abspath(path))


def write_text(sink, text: str) -> None:
    with open(sink, "wb") as fh:
        fh.write(text.encode("utf-8"))
