"""Path handling for the directory namespace.

Paths are absolute, ``/``-separated, with no ``.``/``..`` components —
the same restrictions HDFS imposes. Every namespace entry point calls
:func:`normalize` once; what it returns is clean, so the namespace takes
the parent, the basename and the components from it with
:func:`split_last` and :func:`components`, which validate nothing again.

There is no memo: a path already in canonical form — every path the
namespace itself builds, and nearly every one a client sends — is
recognised by four substring scans and returned as it is.
"""

from __future__ import annotations

from repro.errors import PathError

SEPARATOR = "/"
ROOT = "/"

_FORBIDDEN_COMPONENTS = {"", ".", ".."}


def normalize(path: str) -> str:
    """Validate and canonicalize an absolute path.

    >>> normalize("/a/b/")
    '/a/b'
    >>> normalize("/")
    '/'
    """
    # Canonical already: no empty component (``//``, a trailing ``/``),
    # no ``.``/``..`` component (each starts with ``/.``), no NUL.
    if (
        type(path) is str
        and path[:1] == SEPARATOR
        and path[-1:] != SEPARATOR
        and "//" not in path
        and "/." not in path
        and "\x00" not in path
    ):
        return path
    if not isinstance(path, str) or not path.startswith(SEPARATOR):
        raise PathError(f"path must be absolute, got {path!r}")
    if path == ROOT:
        return ROOT
    return SEPARATOR + SEPARATOR.join(split(path))


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


def components(path: str) -> list[str]:
    """The components of a path :func:`normalize` returned, not validated
    again; the root has none."""
    return path[1:].split(SEPARATOR) if path != ROOT else []


def split_last(path: str) -> tuple[str, str]:
    """``(parent, basename)`` of a path :func:`normalize` returned, not
    validated again; the root is its own parent and its basename is ''."""
    head, _sep, name = path.rpartition(SEPARATOR)
    return head or ROOT, name


def parent(path: str) -> str:
    """Parent directory of a normalized path; the root is its own parent."""
    return split_last(normalize(path))[0]


def basename(path: str) -> str:
    """Final component of a normalized path ('' for the root)."""
    return split_last(normalize(path))[1]


def join(base: str, *parts: str) -> str:
    """Join path fragments under an absolute base."""
    pieces = [base.rstrip(SEPARATOR)]
    pieces.extend(part.strip(SEPARATOR) for part in parts if part)
    return normalize(SEPARATOR.join(pieces) or ROOT)


def is_ancestor(ancestor: str, descendant: str) -> bool:
    """True if ``ancestor`` is a (non-strict) prefix directory."""
    return contains(normalize(ancestor), normalize(descendant))


def contains(ancestor: str, descendant: str) -> bool:
    """:func:`is_ancestor` of two paths :func:`normalize` returned, not
    validated again."""
    if ancestor == ROOT:
        return True
    return descendant == ancestor or descendant.startswith(ancestor + SEPARATOR)
