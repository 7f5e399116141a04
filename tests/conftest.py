"""Shared pytest wiring for the test suite.

``--chaos-seeds N`` controls how many seeds the randomized chaos tests
(:mod:`tests.test_chaos_convergence`) run with. The default keeps the
tier-1 suite fast; CI's chaos smoke job raises it.

``assert_usage_exact`` is the replica-lifecycle check the repair,
balancer and failover tests share: quota usage mirrors the block map.
"""

from collections import Counter

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seeds",
        type=int,
        default=2,
        help="number of seeds to run the chaos convergence tests with",
    )


def pytest_generate_tests(metafunc):
    if "chaos_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--chaos-seeds")
        metafunc.parametrize("chaos_seed", range(count))


@pytest.fixture
def assert_usage_exact():
    """``check(fs, path)``: the per-tier usage of the file at ``path`` —
    and of its directory, which must hold no other file — equals the
    bytes of the replicas attached to its blocks in the block map."""

    def check(fs, path):
        inode = fs.master.namespace.get_file(path)
        attached = Counter()
        for block in inode.blocks:
            for replica in fs.master.block_map[block.block_id].replicas:
                attached[replica.tier_name] += block.size
        assert attached, f"{path}: no replica attached"
        assert inode.tier_bytes == dict(attached)
        assert inode.parent.subtree_tier_bytes == dict(attached)

    return check
