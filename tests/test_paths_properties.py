"""The path helpers, without their memo, against the memoised originals.

``repro.fs.paths`` used to put ``functools.lru_cache`` on ``normalize``
and ``split``. The memo is gone and ``normalize`` recognises a canonical
path without splitting it; this file keeps the memoised implementation
verbatim as the reference and requires the same value, or the same
exception type and message, from both on generated valid and invalid
paths: ``//``, a trailing ``/``, ``.`` and ``..`` components, NUL,
relative paths and non-``str`` input.

One difference is deliberate and pinned by its own test: an unhashable
argument made the memo itself raise ``TypeError``; without it,
``normalize`` refuses it as it refuses any other non-``str``.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PathError
from repro.fs import paths


class Reference:
    """The memoised implementation, verbatim."""

    SEPARATOR = "/"
    ROOT = "/"

    _FORBIDDEN_COMPONENTS = {"", ".", ".."}

    @staticmethod
    @functools.lru_cache(maxsize=65536)
    def normalize(path: str) -> str:
        if not isinstance(path, str) or not path.startswith(Reference.SEPARATOR):
            raise PathError(f"path must be absolute, got {path!r}")
        if path == Reference.ROOT:
            return Reference.ROOT
        components = Reference.split(path)
        return Reference.SEPARATOR + Reference.SEPARATOR.join(components)

    @staticmethod
    @functools.lru_cache(maxsize=65536)
    def split(path: str) -> tuple[str, ...]:
        if not path.startswith(Reference.SEPARATOR):
            raise PathError(f"path must be absolute, got {path!r}")
        raw = path.split(Reference.SEPARATOR)
        components = [part for part in raw if part != ""]
        for part in components:
            if part in Reference._FORBIDDEN_COMPONENTS:
                raise PathError(f"invalid path component {part!r} in {path!r}")
            if "\x00" in part:
                raise PathError(f"invalid character in path component {part!r}")
        return tuple(components)

    @staticmethod
    def parent(path: str) -> str:
        path = Reference.normalize(path)
        if path == Reference.ROOT:
            return Reference.ROOT
        head, _sep, _tail = path.rpartition(Reference.SEPARATOR)
        return head or Reference.ROOT

    @staticmethod
    def basename(path: str) -> str:
        path = Reference.normalize(path)
        if path == Reference.ROOT:
            return ""
        return path.rpartition(Reference.SEPARATOR)[2]

    @staticmethod
    def join(base: str, *parts: str) -> str:
        pieces = [base.rstrip(Reference.SEPARATOR)]
        pieces.extend(part.strip(Reference.SEPARATOR) for part in parts if part)
        return Reference.normalize(Reference.SEPARATOR.join(pieces) or Reference.ROOT)

    @staticmethod
    def is_ancestor(ancestor: str, descendant: str) -> bool:
        ancestor = Reference.normalize(ancestor)
        descendant = Reference.normalize(descendant)
        if ancestor == Reference.ROOT:
            return True
        return descendant == ancestor or descendant.startswith(
            ancestor + Reference.SEPARATOR
        )


def outcome(function, *args):
    """``("value", v)`` or ``("raise", type, message)`` of one call."""
    try:
        return ("value", function(*args))
    except Exception as error:  # noqa: BLE001 - the type is compared
        return ("raise", type(error), str(error))


def same(name, *args):
    assert outcome(getattr(paths, name), *args) == outcome(
        getattr(Reference, name), *args
    ), (name, args)


#: Components that are valid, forbidden, or valid only by a hair.
COMPONENT = st.one_of(
    st.sampled_from(["a", "b", "dir7", "f-1", "", ".", "..", "...", ".a", "a.", "a\x00b", "\x00"]),
    st.text(alphabet="ab./\x00", max_size=4),
)


@st.composite
def path_strings(draw):
    """Absolute or relative, with runs of ``/`` and a trailing ``/``."""
    parts = draw(st.lists(COMPONENT, max_size=5))
    separators = draw(st.lists(st.sampled_from(["/", "//", "///"]), min_size=len(parts), max_size=len(parts)))
    body = "".join(sep + part for sep, part in zip(separators, parts))
    if draw(st.booleans()) and body:
        body = body.lstrip("/")  # relative
    if draw(st.booleans()):
        body += draw(st.sampled_from(["/", "//"]))
    return body


#: Hashable non-``str`` input: the reference's memo hashes its argument.
NON_STRINGS = st.one_of(
    st.none(), st.integers(), st.binary(max_size=4), st.booleans(),
    st.tuples(st.text(max_size=2)), st.floats(allow_nan=False),
)
ANY_PATH = st.one_of(path_strings(), st.text(max_size=8), NON_STRINGS)


class TestAgainstTheMemoisedReference:
    @given(path=ANY_PATH)
    def test_single_argument_helpers(self, path):
        for name in ("normalize", "split", "parent", "basename"):
            same(name, path)

    @given(base=ANY_PATH, parts=st.lists(st.one_of(path_strings(), COMPONENT, NON_STRINGS), max_size=3))
    def test_join(self, base, parts):
        same("join", base, *parts)

    @given(ancestor=ANY_PATH, descendant=ANY_PATH)
    def test_is_ancestor(self, ancestor, descendant):
        same("is_ancestor", ancestor, descendant)

    @given(path=path_strings())
    def test_is_ancestor_of_derived_paths(self, path):
        # Related pairs, which independent draws rarely produce.
        for other in (path, path + "/x", path + "x", path.rpartition("/")[0]):
            same("is_ancestor", path, other)
            same("is_ancestor", other, path)

    @pytest.mark.parametrize(
        "path", ["/", "/a", "/a/b", "/.a/b.", "/a..b", "//", "/a/", "/a//b", "/./a", "/a/..", "a/b", ""]
    )
    def test_examples(self, path):
        for name in ("normalize", "split", "parent", "basename"):
            same(name, path)


def test_unhashable_input_is_refused_by_normalize_not_by_a_memo():
    with pytest.raises(TypeError, match="unhashable"):
        Reference.normalize(["/a"])
    with pytest.raises(PathError, match="path must be absolute"):
        paths.normalize(["/a"])


@given(path=path_strings())
def test_clean_path_helpers_agree_with_the_validating_ones(path):
    """What the namespace uses on a path ``normalize`` returned."""
    try:
        clean = paths.normalize(path)
    except PathError:
        return
    assert paths.components(clean) == list(paths.split(clean))
    assert paths.split_last(clean) == (paths.parent(clean), paths.basename(clean))
    for other in (clean, clean + "/x", clean + "x", paths.parent(clean)):
        other = paths.normalize(other)
        assert paths.contains(clean, other) == paths.is_ancestor(clean, other)
