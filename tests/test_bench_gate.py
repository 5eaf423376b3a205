"""Guards on the bench regression gate itself.

The gate is only as good as its baseline: these tests pin the committed
``BENCH_wire.json`` to the suite's actual benchmark names, and prove
that ``check()`` fails loudly — rather than silently ungating — when a
baseline key stops being produced.
"""

from __future__ import annotations

from pathlib import Path

from repro.perf.bench import (
    check,
    expected_benchmark_names,
    load_baseline,
)
from repro.perf.replay import DEFAULT_REPLAY_BASELINE, REPLAY_BENCHMARKS

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "BENCH_wire.json"


class TestCommittedBaseline:
    def test_baseline_exists_and_parses(self):
        assert BASELINE.exists(), "BENCH_wire.json must be committed"
        baseline = load_baseline(BASELINE)
        assert baseline, "baseline must not be empty"
        assert all(ops > 0 for ops in baseline.values())

    def test_baseline_keys_exactly_match_the_suite(self):
        """A renamed or dropped benchmark must regenerate the baseline;
        a new benchmark must be added to it.  Either drift fails here
        before it can silently weaken the gate."""
        baseline = set(load_baseline(BASELINE))
        expected = expected_benchmark_names()
        assert baseline == expected, (
            f"baseline/suite drift: only in baseline {baseline - expected}, "
            f"only in suite {expected - baseline}"
        )

    def test_headline_meets_the_batching_target(self):
        """The committed headline must reflect the batched plane: at
        least 2.5x the pre-batching 223k deliveries/sec record."""
        baseline = load_baseline(BASELINE)
        assert baseline["broadcast_flood_deliveries"] >= 2.5 * 223182

    def test_replay_baseline_keys_exactly_match_the_suite(self):
        """Same pin for ``BENCH_replay.json``: every replay key, the pcap
        source among them, has a committed floor."""
        baseline = set(load_baseline(REPO_ROOT / DEFAULT_REPLAY_BASELINE))
        assert baseline == REPLAY_BENCHMARKS, (
            f"baseline/suite drift: only in baseline "
            f"{baseline - REPLAY_BENCHMARKS}, only in suite "
            f"{REPLAY_BENCHMARKS - baseline}"
        )


class TestCheckFailsLoudly:
    def test_vanished_baseline_key_is_a_failure(self):
        results = {"a": 100.0}
        baseline = {"a": 100.0, "vanished": 50.0}
        failures = check(results, baseline)
        assert any("vanished" in f and "missing" in f for f in failures)

    def test_allow_missing_skips_only_the_listed_keys(self):
        results = {"a": 100.0}
        baseline = {"a": 100.0, "batch_only": 50.0, "vanished": 50.0}
        failures = check(
            results, baseline, allow_missing=frozenset({"batch_only"})
        )
        assert len(failures) == 1
        assert "vanished" in failures[0]

    def test_regression_below_tolerance_fails(self):
        failures = check({"a": 40.0}, {"a": 100.0}, tolerance=0.5)
        assert len(failures) == 1 and "a" in failures[0]
        assert check({"a": 60.0}, {"a": 100.0}, tolerance=0.5) == []

    def test_new_benchmark_without_baseline_passes(self):
        assert check({"a": 100.0, "new": 1.0}, {"a": 100.0}) == []
