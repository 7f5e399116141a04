"""Unit tests for the directory namespace: paths, permissions, quotas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.replication_vector import ReplicationVector
from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    IsADirectoryInNamespaceError,
    NotADirectoryInNamespaceError,
    PathError,
    PermissionDeniedError,
    QuotaExceededError,
)
from repro.fs import paths
from repro.fs.namespace import Namespace, UserContext
from repro.util.units import MB

RV = ReplicationVector.of(u=3)
BS = 4 * MB


@pytest.fixture
def ns():
    return Namespace()


def make_file(ns, path, user=None, rv=RV):
    inode, _ = ns.create_file(path, rv, BS, *( [user] if user else [] ))
    ns.complete_file(path)
    return inode


class TestPaths:
    @pytest.mark.parametrize(
        "raw,clean",
        [("/", "/"), ("/a", "/a"), ("/a/b/", "/a/b"), ("//a///b", "/a/b")],
    )
    def test_normalize(self, raw, clean):
        assert paths.normalize(raw) == clean

    @pytest.mark.parametrize("bad", ["relative", "", "/a/../b", "/a/./b"])
    def test_normalize_rejects(self, bad):
        with pytest.raises(PathError):
            paths.normalize(bad)

    def test_parent_and_basename(self):
        assert paths.parent("/a/b/c") == "/a/b"
        assert paths.parent("/a") == "/"
        assert paths.parent("/") == "/"
        assert paths.basename("/a/b") == "b"
        assert paths.basename("/") == ""

    def test_join(self):
        assert paths.join("/a", "b", "c") == "/a/b/c"
        assert paths.join("/", "x") == "/x"

    def test_is_ancestor(self):
        assert paths.is_ancestor("/a", "/a/b")
        assert paths.is_ancestor("/", "/anything")
        assert not paths.is_ancestor("/a/b", "/a")
        assert not paths.is_ancestor("/a", "/ab")


class TestDirectories:
    def test_mkdir_creates_parents(self, ns):
        ns.mkdir("/a/b/c")
        assert ns.is_directory("/a")
        assert ns.is_directory("/a/b/c")

    def test_mkdir_idempotent(self, ns):
        ns.mkdir("/a")
        ns.mkdir("/a")
        assert ns.total_inodes == 2  # root + /a

    def test_mkdir_without_parents_flag(self, ns):
        with pytest.raises(FileNotFoundInNamespaceError):
            ns.mkdir("/a/b", create_parents=False)

    def test_mkdir_over_file_rejected(self, ns):
        make_file(ns, "/f")
        with pytest.raises(FileAlreadyExistsError):
            ns.mkdir("/f")

    def test_list_sorted(self, ns):
        ns.mkdir("/d/z")
        ns.mkdir("/d/a")
        make_file(ns, "/d/m")
        names = [paths.basename(s.path) for s in ns.list_status("/d")]
        assert names == ["a", "m", "z"]


    @pytest.mark.parametrize("spelling", ["/", "/d", "//d//", "/d/sub/"])
    def test_listing_matches_a_walk_to_the_root(self, ns, spelling):
        """Child paths are built from the directory's path; they must be
        the ones ``INode.path()`` reconstructs, entry for entry."""
        ns.mkdir("/d/sub/inner")
        make_file(ns, "/d/sub/m")
        make_file(ns, "/d/k")
        make_file(ns, "/top")
        directory = ns._resolve(paths.normalize(spelling), UserContext.root())
        children = [directory.children[name] for name in sorted(directory.children)]
        listing = ns.list_status(spelling)
        assert [s.path for s in listing] == [c.path() for c in children]
        assert listing == [ns.get_status(c.path()) for c in children]

    def test_status_is_an_immutable_value(self, ns):
        make_file(ns, "/d/m")
        status = ns.get_status("/d/m")
        assert repr(status) == (
            "FileStatus(path='/d/m', is_directory=False, length=0, "
            "rep_vector=ReplicationVector(U=3), block_size=4194304, "
            "owner='root', group='supergroup', mode=420, mtime=0.0, "
            "under_construction=False)"
        )
        assert status == ns.list_status("//d/m/")[0]
        assert hash(status) == hash(ns.get_status("/d/m"))
        assert status != ns.get_status("/d")
        with pytest.raises(AttributeError):
            status.length = 1


class TestFiles:
    def test_create_and_status(self, ns):
        make_file(ns, "/data/file1")
        status = ns.get_status("/data/file1")
        assert not status.is_directory
        assert status.rep_vector == RV
        assert status.block_size == BS
        assert not status.under_construction

    def test_create_under_a_new_directory_journals_both(self, ns):
        records = []
        ns.add_listener(records.append)
        ns.create_file("/j/f", RV, BS)
        assert [(r["op"], r["path"]) for r in records] == [
            ("mkdir", "/j"),
            ("create_file", "/j/f"),
        ]

    def test_create_requires_replica(self, ns):
        with pytest.raises(PathError):
            ns.create_file("/x", ReplicationVector(), BS)

    def test_create_twice_rejected(self, ns):
        make_file(ns, "/f")
        with pytest.raises(FileAlreadyExistsError):
            ns.create_file("/f", RV, BS)

    def test_overwrite_returns_old_blocks(self, ns):
        from repro.fs.blocks import Block

        inode = make_file(ns, "/f")
        inode.blocks.append(Block(0, BS))
        _new, freed = ns.create_file("/f", RV, BS, overwrite=True)
        assert len(freed) == 1

    def test_file_component_in_path_rejected(self, ns):
        make_file(ns, "/f")
        with pytest.raises(NotADirectoryInNamespaceError):
            ns.create_file("/f/child", RV, BS)

    def test_get_file_on_directory_rejected(self, ns):
        ns.mkdir("/d")
        with pytest.raises(IsADirectoryInNamespaceError):
            ns.get_file("/d")

    def test_missing_path_error_names_component(self, ns):
        ns.mkdir("/a")
        with pytest.raises(FileNotFoundInNamespaceError, match="/a/missing"):
            ns.get_status("/a/missing/deep")

    def test_resolve_errors_keep_type_and_message(self, ns):
        """The three ways a walk fails, message for message."""
        ns.mkdir("/a/b", mode=0o700)
        make_file(ns, "/a/b/f")
        with pytest.raises(FileNotFoundInNamespaceError) as missing:
            ns.get_status("/a/missing/deep")
        assert str(missing.value) == "no such path: '/a/missing'"
        with pytest.raises(NotADirectoryInNamespaceError) as not_dir:
            ns.get_file("/a/b/f/x")
        assert str(not_dir.value) == "'/a/b/f' is not a directory"
        for call in (ns.get_status, ns.get_file, ns.list_status, ns.exists):
            with pytest.raises(PermissionDeniedError) as denied:
                call("/a/b/f", UserContext("bob"))
            assert str(denied.value) == (
                "user 'bob' lacks 'x'-class permission 1 on '/a' (mode 0o700)"
            )


class TestRename:
    def test_rename_file(self, ns):
        make_file(ns, "/a/f")
        ns.mkdir("/b")
        ns.rename("/a/f", "/b/g")
        assert not ns.exists("/a/f")
        assert ns.exists("/b/g")
        assert ns.get_status("/b/g").path == "/b/g"

    def test_rename_directory_moves_subtree(self, ns):
        make_file(ns, "/a/sub/f")
        ns.rename("/a", "/renamed")
        assert ns.exists("/renamed/sub/f")

    def test_rename_onto_existing_rejected(self, ns):
        make_file(ns, "/f1")
        make_file(ns, "/f2")
        with pytest.raises(FileAlreadyExistsError):
            ns.rename("/f1", "/f2")

    def test_rename_under_itself_rejected(self, ns):
        ns.mkdir("/a")
        with pytest.raises(PathError):
            ns.rename("/a", "/a/b")

    def test_rename_root_rejected(self, ns):
        with pytest.raises(PathError):
            ns.rename("/", "/x")


class TestDelete:
    def test_delete_file_returns_blocks(self, ns):
        from repro.fs.blocks import Block

        inode = make_file(ns, "/f")
        inode.blocks.append(Block(0, BS))
        blocks = ns.delete("/f")
        assert len(blocks) == 1
        assert not ns.exists("/f")

    def test_delete_nonempty_dir_needs_recursive(self, ns):
        make_file(ns, "/d/f")
        with pytest.raises(DirectoryNotEmptyError):
            ns.delete("/d")
        blocks = ns.delete("/d", recursive=True)
        assert blocks == []  # file had no blocks
        assert not ns.exists("/d")

    def test_delete_root_rejected(self, ns):
        with pytest.raises(PathError):
            ns.delete("/", recursive=True)

    def test_inode_count_restored(self, ns):
        before = ns.total_inodes
        make_file(ns, "/tmp/x/y")
        ns.delete("/tmp", recursive=True)
        assert ns.total_inodes == before


class TestPermissions:
    def test_non_superuser_cannot_write_at_root(self, ns):
        alice = UserContext("alice")
        with pytest.raises(PermissionDeniedError):
            ns.mkdir("/home", alice)

    def test_non_owner_cannot_write_into_private_dir(self, ns):
        alice = UserContext("alice")
        bob = UserContext("bob")
        ns.mkdir("/home")
        ns.mkdir("/home/alice", mode=0o700)
        ns.set_owner("/home/alice", owner="alice")
        ns.create_file("/home/alice/mine", RV, BS, alice)
        with pytest.raises(PermissionDeniedError):
            ns.create_file("/home/alice/f", RV, BS, bob)

    def test_group_permissions(self, ns):
        ns.mkdir("/shared", mode=0o770)
        ns.set_owner("/shared", owner="alice", group="team")
        teammate = UserContext("bob", groups=frozenset({"team"}))
        ns.create_file("/shared/f", RV, BS, teammate)
        outsider = UserContext("eve")
        with pytest.raises(PermissionDeniedError):
            ns.create_file("/shared/g", RV, BS, outsider)

    def test_traverse_requires_execute(self, ns):
        alice = UserContext("alice")
        ns.mkdir("/opaque", mode=0o600)
        ns.mkdir("/opaque/inner", mode=0o777)
        ns.set_owner("/opaque", owner="alice")
        # alice has no x on /opaque despite rw.
        with pytest.raises(PermissionDeniedError):
            ns.list_status("/opaque/inner", alice)

    def test_superuser_bypasses_everything(self, ns):
        ns.mkdir("/locked", mode=0o000)
        ns.list_status("/locked")  # default SUPERUSER

    def test_only_owner_chmods(self, ns):
        alice, bob = UserContext("alice"), UserContext("bob")
        ns.mkdir("/d")
        ns.set_owner("/d", owner="alice")
        with pytest.raises(PermissionDeniedError):
            ns.set_permission("/d", 0o777, bob)
        ns.set_permission("/d", 0o750, alice)
        assert ns.get_status("/d").mode == 0o750

    def test_chown_superuser_only(self, ns):
        ns.mkdir("/d")
        with pytest.raises(PermissionDeniedError):
            ns.set_owner("/d", "eve", user=UserContext("eve"))


class TestQuotas:
    def test_namespace_quota_blocks_growth(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", namespace_quota=3)  # dir itself + 2 children
        make_file(ns, "/q/a")
        make_file(ns, "/q/b")
        with pytest.raises(QuotaExceededError):
            ns.create_file("/q/c", RV, BS)

    def test_namespace_quota_counts_subtrees_on_rename(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", namespace_quota=2)
        ns.mkdir("/big/x/y")
        with pytest.raises(QuotaExceededError):
            ns.rename("/big", "/q/big")
        assert ns.exists("/big/x/y")  # rollback left the source intact

    def test_tier_space_quota_enforced(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", tier_space_quota={"MEMORY": 10 * MB})
        inode = make_file(ns, "/q/f")
        ns.check_tier_space(inode, "MEMORY", 8 * MB)  # fits
        ns.charge_tier_space(inode, "MEMORY", 8 * MB)
        with pytest.raises(QuotaExceededError):
            ns.check_tier_space(inode, "MEMORY", 4 * MB)
        # Another tier is unaffected.
        ns.check_tier_space(inode, "HDD", 100 * MB)

    def test_tier_usage_released(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", tier_space_quota={"SSD": 10 * MB})
        inode = make_file(ns, "/q/f")
        ns.charge_tier_space(inode, "SSD", 10 * MB)
        ns.charge_tier_space(inode, "SSD", -10 * MB)
        ns.check_tier_space(inode, "SSD", 10 * MB)  # fits again

    def test_delete_releases_tier_usage(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", tier_space_quota={"SSD": 10 * MB})
        inode = make_file(ns, "/q/f")
        ns.charge_tier_space(inode, "SSD", 10 * MB)
        ns.delete("/q/f")
        inode2 = make_file(ns, "/q/g")
        ns.check_tier_space(inode2, "SSD", 10 * MB)


class TestVectorUpdate:
    def test_set_replication_vector_returns_old(self, ns):
        make_file(ns, "/f")
        new = ReplicationVector.of(memory=1, hdd=2)
        _inode, old = ns.set_replication_vector("/f", new)
        assert old == RV
        assert ns.get_status("/f").rep_vector == new

    def test_zero_replica_vector_rejected(self, ns):
        make_file(ns, "/f")
        with pytest.raises(PathError):
            ns.set_replication_vector("/f", ReplicationVector())


@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
def test_property_created_files_always_listable(names):
    ns = Namespace()
    for name in names:
        ns.create_file(f"/dir/{name}", RV, BS)
    listed = {paths.basename(s.path) for s in ns.list_status("/dir")}
    assert listed == set(names)


@given(depth=st.integers(min_value=1, max_value=12))
def test_property_deep_paths_roundtrip(depth):
    ns = Namespace()
    path = "/" + "/".join(f"d{i}" for i in range(depth))
    ns.mkdir(path)
    assert ns.is_directory(path)
    assert ns.get_status(path).path == path
