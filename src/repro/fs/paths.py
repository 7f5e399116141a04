"""Path handling for the directory namespace.

Paths are absolute, ``/``-separated, with no ``.``/``..`` components —
the same restrictions HDFS imposes. All namespace entry points call
:func:`normalize` first so the rest of the code only ever sees clean
paths.
"""

from __future__ import annotations

import functools

from repro.errors import PathError

SEPARATOR = "/"
ROOT = "/"

_FORBIDDEN_COMPONENTS = {"", ".", ".."}


@functools.lru_cache(maxsize=65536)
def normalize(path: str) -> str:
    """Validate and canonicalize an absolute path.

    >>> normalize("/a/b/")
    '/a/b'
    >>> normalize("/")
    '/'
    """
    if not isinstance(path, str) or not path.startswith(SEPARATOR):
        raise PathError(f"path must be absolute, got {path!r}")
    if path == ROOT:
        return ROOT
    components = split(path)
    return SEPARATOR + SEPARATOR.join(components)


@functools.lru_cache(maxsize=65536)
def split(path: str) -> tuple[str, ...]:
    """Split into validated components; the root splits to ``()``."""
    if not path.startswith(SEPARATOR):
        raise PathError(f"path must be absolute, got {path!r}")
    raw = path.split(SEPARATOR)
    components = [part for part in raw if part != ""]
    for part in components:
        if part in _FORBIDDEN_COMPONENTS:
            raise PathError(f"invalid path component {part!r} in {path!r}")
        if "\x00" in part:
            raise PathError(f"invalid character in path component {part!r}")
    return tuple(components)


def parent(path: str) -> str:
    """Parent directory of a normalized path; the root is its own parent."""
    path = normalize(path)
    if path == ROOT:
        return ROOT
    head, _sep, _tail = path.rpartition(SEPARATOR)
    return head or ROOT

def basename(path: str) -> str:
    """Final component of a normalized path ('' for the root)."""
    path = normalize(path)
    if path == ROOT:
        return ""
    return path.rpartition(SEPARATOR)[2]


def join(base: str, *parts: str) -> str:
    """Join path fragments under an absolute base."""
    pieces = [base.rstrip(SEPARATOR)]
    pieces.extend(part.strip(SEPARATOR) for part in parts if part)
    return normalize(SEPARATOR.join(pieces) or ROOT)


def is_ancestor(ancestor: str, descendant: str) -> bool:
    """True if ``ancestor`` is a (non-strict) prefix directory."""
    ancestor = normalize(ancestor)
    descendant = normalize(descendant)
    if ancestor == ROOT:
        return True
    return descendant == ancestor or descendant.startswith(ancestor + SEPARATOR)
