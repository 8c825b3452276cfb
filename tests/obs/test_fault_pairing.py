"""Fault events vs resilience accounting: the two ledgers must agree.

The fault layer (``repro.faults``) counts what it inflicts in
``ResilienceStats``; with tracing on it *also* emits one
``fault_injected`` event per injection (counter corruptions batch
multiple channels into one event with a ``count`` field).  The defence
side emits ``mitigation`` events.  This suite cross-checks the event
stream against the stats object of the same run, and asserts that
every mitigation names its cause.
"""

from collections import Counter

import pytest

from repro.obs.events import FAULT_KINDS, MIGRATION_CAUSES, MITIGATION_KINDS


@pytest.fixture(scope="module")
def faults_by_kind(traced_events):
    """kind -> delivered-injection count (summing batched events)."""
    totals: Counter = Counter()
    for event in traced_events:
        if event["type"] != "fault_injected":
            continue
        totals[event["kind"]] += event.get("count", 1)
    return totals


@pytest.fixture(scope="module")
def mitigations_by_kind(traced_events):
    return Counter(
        e["kind"] for e in traced_events if e["type"] == "mitigation"
    )


class TestFaultEvents:
    def test_kinds_are_registered(self, traced_events):
        for event in traced_events:
            if event["type"] == "fault_injected":
                assert event["kind"] in FAULT_KINDS

    def test_sensor_counts_match_stats(self, traced, faults_by_kind):
        stats = traced[1].resilience
        assert faults_by_kind["sensor_dropout"] == stats.sensor_dropouts
        assert faults_by_kind["sensor_stuck"] == stats.sensor_stuck
        assert faults_by_kind["sensor_spike"] == stats.sensor_spikes

    def test_counter_counts_match_stats(self, traced, faults_by_kind):
        stats = traced[1].resilience
        assert faults_by_kind["counter_wrap"] == stats.counter_wraps
        assert faults_by_kind["counter_saturation"] == stats.counter_saturations

    def test_migration_fates_match_stats(self, traced, faults_by_kind):
        stats = traced[1].resilience
        assert faults_by_kind["migration_lost"] == stats.migrations_lost
        assert faults_by_kind["migration_delayed"] == stats.migrations_delayed

    def test_hotplug_and_throttle_match_stats(self, traced, faults_by_kind):
        stats = traced[1].resilience
        assert faults_by_kind["hotplug"] == stats.hotplug_events
        assert faults_by_kind["throttle"] == stats.throttle_events

    def test_event_total_matches_faults_injected(self, traced, faults_by_kind):
        assert sum(faults_by_kind.values()) == traced[1].resilience.faults_injected


class TestMitigationEvents:
    def test_every_mitigation_names_kind_and_cause(self, traced_events):
        mitigations = [e for e in traced_events if e["type"] == "mitigation"]
        assert mitigations, "combined scenario must trigger defences"
        for event in mitigations:
            assert event["kind"] in MITIGATION_KINDS
            cause = event.get("cause")
            assert isinstance(cause, str) and cause

    def test_defence_counts_match_stats(self, traced, mitigations_by_kind):
        stats = traced[1].resilience
        assert mitigations_by_kind["sample_rejected"] == stats.samples_rejected
        assert mitigations_by_kind["fallback_row"] == stats.fallback_rows_used
        assert mitigations_by_kind["rebaseline"] == stats.samples_rebaselined
        assert mitigations_by_kind["thread_dropped"] == stats.threads_dropped
        assert (
            mitigations_by_kind["watchdog_fallback"]
            == stats.watchdog_fallback_epochs
        )
        assert (
            mitigations_by_kind["hotplug_mask"] == stats.hotplug_masked_epochs
        )
        assert (
            mitigations_by_kind["offline_placement_blocked"]
            == stats.offline_placements_blocked
        )

    def test_rejections_pair_with_stat_reasons(self, traced, traced_events):
        stats = traced[1].resilience
        reasons = Counter(
            e["cause"]
            for e in traced_events
            if e["type"] == "mitigation" and e["kind"] == "sample_rejected"
        )
        assert dict(reasons) == stats.rejects_by_reason


class TestMigrationCausality:
    def test_causes_are_registered(self, traced_events):
        migrations = [e for e in traced_events if e["type"] == "migration"]
        assert migrations
        for event in migrations:
            assert event["cause"] in MIGRATION_CAUSES

    def test_event_count_matches_result(self, traced, traced_events):
        migrations = [e for e in traced_events if e["type"] == "migration"]
        assert len(migrations) == traced[1].migrations

    def test_fault_migrations_have_matching_injections(
        self, traced_events, faults_by_kind
    ):
        """Every fault-delayed migration pairs with a migration_delayed
        injection, every hotplug evacuation with a hotplug event."""
        causes = Counter(
            e["cause"] for e in traced_events if e["type"] == "migration"
        )
        assert causes.get("fault_delay", 0) <= faults_by_kind["migration_delayed"]
        if causes.get("hotplug"):
            assert faults_by_kind["hotplug"] > 0
