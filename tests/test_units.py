"""Unit tests for byte/rate parsing and the deterministic RNG."""

import subprocess
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    GB,
    KB,
    MB,
    TB,
    DeterministicRng,
    format_bytes,
    format_rate,
    parse_bytes,
    parse_rate,
)
from tests.test_bench_experiments import OTHER_PYTHONS

#: ``shuffle`` and ``shuffled`` against ``random.Random.shuffle`` from
#: the same state, for every length 0-300 under 20 seeds, and the next
#: draw after each. Stdlib only, so any interpreter can run it.
SHUFFLE_CHECK = """
import random
from repro.util.rng import DeterministicRng
for seed in range(20):
    ours = DeterministicRng(seed, "shuffle")
    stdlib = random.Random()
    stdlib.setstate(ours._random.getstate())
    for length in range(301):
        for shuffle in (ours.shuffle, ours.shuffled):
            items = list(range(length))
            expected = list(items)
            stdlib.shuffle(expected)
            assert shuffle(items) == expected, (seed, length, shuffle)
            assert ours.random() == stdlib.random(), (seed, length, shuffle)
print("same draws")
"""


class TestParseBytes:
    def test_plain_int_passthrough(self):
        assert parse_bytes(1234) == 1234

    def test_float_truncates(self):
        assert parse_bytes(12.9) == 12

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1KB", KB),
            ("4GB", 4 * GB),
            ("128MB", 128 * MB),
            ("2TB", 2 * TB),
            ("0.5GB", GB // 2),
            ("100", 100),
            ("7B", 7),
            (" 64 GB ", 64 * GB),
            ("3g", 3 * GB),
        ],
    )
    def test_string_units(self, text, expected):
        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("bad", ["", "GB", "12XB", "--3MB"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_bytes(bad)


class TestParseRate:
    def test_number_is_bytes_per_second(self):
        assert parse_rate(125.0) == 125.0

    def test_mb_per_second(self):
        assert parse_rate("126.3MB/s") == pytest.approx(126.3 * MB)

    def test_bits_divided_by_eight(self):
        assert parse_rate("10Gbit/s") == pytest.approx(10 * GB / 8)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rate("fast")


class TestFormatting:
    def test_format_bytes_picks_unit(self):
        assert format_bytes(4 * GB) == "4.00GB"
        assert format_bytes(512) == "512B"

    def test_format_rate_mbs(self):
        assert format_rate(126.3 * MB) == "126.3MB/s"

    @given(st.integers(min_value=0, max_value=10**15))
    def test_roundtrip_within_rounding(self, n):
        # format -> parse recovers the value within the 2-decimal rounding.
        recovered = parse_bytes(format_bytes(n))
        assert recovered == pytest.approx(n, rel=0.01, abs=1)


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert DeterministicRng(1).random() != DeterministicRng(2).random()

    def test_fork_is_independent_of_parent_consumption(self):
        parent1 = DeterministicRng(7)
        child_a = parent1.fork("x")
        parent2 = DeterministicRng(7)
        parent2.random()  # consuming the parent must not shift the child
        child_b = parent2.fork("x")
        assert child_a.random() == child_b.random()

    def test_fork_labels_distinct(self):
        root = DeterministicRng(7)
        assert root.fork("a").random() != root.fork("b").random()

    def test_choice_empty_raises(self):
        with pytest.raises(IndexError):
            DeterministicRng(0).choice([])

    def test_shuffled_leaves_input_intact(self):
        rng = DeterministicRng(3)
        original = list(range(20))
        copy = rng.shuffled(original)
        assert original == list(range(20))
        assert sorted(copy) == original

    def test_shuffle_is_the_stdlibs_draw_for_draw(self, capsys):
        exec(SHUFFLE_CHECK, {})
        assert capsys.readouterr().out == "same draws\n"

    @pytest.mark.parametrize(
        "python", OTHER_PYTHONS, ids=[Path(p).parts[-3] for p in OTHER_PYTHONS]
    )
    def test_shuffle_is_the_stdlibs_on_other_interpreters(self, python):
        if not Path(python).exists():
            pytest.skip(f"{python} is not installed")
        done = subprocess.run(
            [python, "-c", SHUFFLE_CHECK], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[1] / "src", timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "same draws\n"), done.stderr
