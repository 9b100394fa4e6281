"""Tests for the parallel campaign engine: deterministic sharding,
report merging (coverage union, first-violation-wins), and inline-vs-
pooled parity."""

import pytest

from repro.isa.instruction import TestCaseProgram
from repro.traces import CTrace, HTrace
from repro.core.campaign import (
    CampaignRunner,
    derive_shard_seed,
    merge_reports,
    run_campaign,
    shard_budgets,
    shard_fuzzer_config,
)
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import FuzzingReport
from repro.core.patterns import PatternCoverage
from repro.core.violation import Violation


def quick_config(**overrides):
    defaults = dict(
        instruction_subsets=("AR",),
        contract_name="CT-SEQ",
        cpu_preset="skylake-v4-patched",
        num_test_cases=16,
        inputs_per_test_case=10,
        diversity_feedback=False,
        seed=3,
    )
    defaults.update(overrides)
    return FuzzerConfig(**defaults)


class TestSharding:
    def test_shard_seeds_deterministic(self):
        assert derive_shard_seed(7, 0) == derive_shard_seed(7, 0)
        assert derive_shard_seed(7, 1) == derive_shard_seed(7, 1)

    def test_shard_seeds_distinct(self):
        seeds = [derive_shard_seed(0, index) for index in range(64)]
        seeds += [derive_shard_seed(1, index) for index in range(64)]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= seed < 2**31 for seed in seeds)

    def test_negative_shard_rejected(self):
        with pytest.raises(ValueError):
            derive_shard_seed(0, -1)

    def test_budget_split(self):
        assert shard_budgets(10, 4) == [3, 3, 2, 2]
        assert shard_budgets(8, 4) == [2, 2, 2, 2]
        assert shard_budgets(2, 4) == [1, 1, 0, 0]
        assert sum(shard_budgets(1234, 7)) == 1234

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_budgets(10, 0)

    def test_shard_config_derivation(self):
        config = quick_config(num_test_cases=10, seed=7)
        first = shard_fuzzer_config(config, 0, 4)
        last = shard_fuzzer_config(config, 3, 4)
        assert first.seed == derive_shard_seed(7, 0)
        assert last.seed == derive_shard_seed(7, 3)
        assert first.num_test_cases == 3
        assert last.num_test_cases == 2
        # everything else is inherited
        assert first.contract_name == config.contract_name
        assert first.inputs_per_test_case == config.inputs_per_test_case


def _report(test_cases=10, effectiveness=0.5, found_after=None, covered=()):
    report = FuzzingReport(
        test_cases=test_cases,
        inputs_tested=test_cases * 10,
        duration_seconds=1.0,
        mean_effectiveness=effectiveness,
        coverage=PatternCoverage(covered={frozenset({p}) for p in covered}),
        unconfirmed_candidates=1,
    )
    if found_after is not None:
        report.violation = Violation(
            program=TestCaseProgram(),
            contract_name="CT-SEQ",
            cpu_name="skylake",
            ctrace=CTrace(()),
            input_sequence=[],
            position_a=0,
            position_b=1,
            htrace_a=HTrace.empty(),
            htrace_b=HTrace.empty(),
            test_cases_until_found=found_after,
            inputs_until_found=found_after * 10,
        )
    return report


class TestMerging:
    def test_counters_summed_and_coverage_unioned(self):
        merged, winner = merge_reports(
            [
                _report(test_cases=10, effectiveness=1.0, covered={"reg-dep"}),
                _report(test_cases=30, effectiveness=0.5,
                        covered={"reg-dep", "flag-dep"}),
            ]
        )
        assert winner is None
        assert not merged.found
        assert merged.test_cases == 40
        assert merged.inputs_tested == 400
        assert merged.unconfirmed_candidates == 2
        assert merged.duration_seconds == pytest.approx(2.0)
        # test-case-weighted mean: (10*1.0 + 30*0.5) / 40
        assert merged.mean_effectiveness == pytest.approx(0.625)
        assert merged.coverage.covered == {
            frozenset({"reg-dep"}),
            frozenset({"flag-dep"}),
        }

    def test_first_violation_wins(self):
        merged, winner = merge_reports(
            [
                _report(found_after=20),
                _report(found_after=5),
                _report(),
            ]
        )
        assert winner == 1
        assert merged.violation.test_cases_until_found == 5

    def test_tie_breaks_on_shard_index(self):
        merged, winner = merge_reports(
            [_report(), _report(found_after=5), _report(found_after=5)]
        )
        assert winner == 1
        assert merged.violation is not None

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_reports([])


class TestCampaignRuns:
    def test_inline_matches_pooled(self):
        """The merged report depends on the shard partition only, not on
        the worker count or process scheduling."""
        config = quick_config()
        inline = CampaignRunner(config, workers=1, shards=2).run()
        pooled = CampaignRunner(config, workers=2, shards=2).run()
        assert inline.merged.test_cases == pooled.merged.test_cases
        assert inline.merged.inputs_tested == pooled.merged.inputs_tested
        assert inline.found == pooled.found
        assert inline.merged.coverage.covered == pooled.merged.coverage.covered
        assert [r.test_cases for r in inline.shard_reports] == [
            r.test_cases for r in pooled.shard_reports
        ]

    def test_campaign_finds_violation(self):
        config = quick_config(
            instruction_subsets=("AR", "MEM", "CB"),
            num_test_cases=160,
            inputs_per_test_case=25,
            diversity_feedback=True,
            seed=7,
        )
        report = run_campaign(config, workers=2, shards=2)
        assert report.found
        assert report.winning_shard in (0, 1)
        assert report.violation.classification.startswith("V1")
        assert "VIOLATION" in report.summary()
        assert report.merged.contract_emulations > 0

    def test_clean_campaign_summary(self):
        report = CampaignRunner(quick_config(), workers=1, shards=2).run()
        assert not report.found
        assert report.shards == 2
        assert "no violation" in report.summary()
        assert report.wall_seconds > 0
        assert report.observed_concurrency > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CampaignRunner(quick_config(), workers=0)
        with pytest.raises(ValueError):
            CampaignRunner(quick_config(), workers=2, shards=0)
        with pytest.raises(ValueError):
            CampaignRunner(quick_config(), mode="sometimes")


def violating_config(**overrides):
    """A config whose shards reliably find a V1 within their budget."""
    defaults = dict(
        instruction_subsets=("AR", "MEM", "CB"),
        num_test_cases=160,
        inputs_per_test_case=25,
        diversity_feedback=True,
        seed=7,
    )
    defaults.update(overrides)
    return quick_config(**defaults)


class TestFirstViolationMode:
    def test_fuzzer_honours_stop_signal(self):
        from repro.core.fuzzer import Fuzzer

        report = Fuzzer(quick_config()).run(should_stop=lambda: True)
        assert report.cancelled
        assert report.test_cases == 0

    def test_inline_early_cancel_skips_remaining_shards(self):
        config = violating_config()
        full = CampaignRunner(config, workers=1, shards=4).run()
        early = CampaignRunner(
            config, workers=1, shards=4, mode="first-violation"
        ).run()
        assert full.found and early.found
        assert early.mode == "first-violation"
        winner = early.winning_shard
        # shards up to and including the winner ran exactly as in full
        # mode (merged-report determinism for completed shards) ...
        for index in range(winner + 1):
            assert (
                early.shard_reports[index].test_cases
                == full.shard_reports[index].test_cases
            )
            assert not early.shard_reports[index].cancelled
        # ... and every later shard was cancelled without spending budget
        for index in range(winner + 1, 4):
            assert early.shard_reports[index].cancelled
            assert early.shard_reports[index].test_cases == 0
        assert early.cancelled_shards == 4 - (winner + 1)
        assert early.merged.test_cases <= full.merged.test_cases
        assert (
            early.violation.test_cases_until_found
            == full.shard_reports[winner].violation.test_cases_until_found
        )

    def test_inline_clean_campaign_runs_everything(self):
        report = CampaignRunner(
            quick_config(), workers=1, shards=2, mode="first-violation"
        ).run()
        assert not report.found
        assert report.cancelled_shards == 0
        assert sum(r.test_cases for r in report.shard_reports) == 16

    def test_pooled_early_cancel(self):
        config = violating_config()
        report = CampaignRunner(
            config, workers=2, shards=2, mode="first-violation"
        ).run()
        assert report.found
        assert report.violation.classification.startswith("V1")
        # no shard overshoots its deterministic budget
        budgets = shard_budgets(config.num_test_cases, 2)
        for shard, budget in zip(report.shard_reports, budgets):
            assert shard.test_cases <= budget
        if report.cancelled_shards:
            assert "cancelled early" in report.summary()


class TestJournal:
    """Checkpoint/resume: one atomic record per completed shard, spec
    pinning, and digest-equal resumed reports."""

    def run_journaled(self, tmp_path, resume=False, **config_overrides):
        return CampaignRunner(
            quick_config(**config_overrides), workers=1, shards=3,
            journal_dir=str(tmp_path / "ckpt"), resume=resume,
        ).run()

    def records(self, tmp_path):
        return sorted((tmp_path / "ckpt").glob("shard-*.pkl"))

    def test_every_shard_gets_a_record(self, tmp_path):
        self.run_journaled(tmp_path)
        names = [path.name for path in self.records(tmp_path)]
        assert names == [
            "shard-0000-0000.pkl", "shard-0000-0001.pkl",
            "shard-0000-0002.pkl",
        ]
        assert (tmp_path / "ckpt" / "spec.json").exists()

    def test_complete_journal_resumes_without_rerunning(self, tmp_path):
        import repro.core.campaign as campaign_module

        first = self.run_journaled(tmp_path)

        def refuse(task):
            raise AssertionError("journaled shard was re-run")

        real = campaign_module._run_shard
        campaign_module._run_shard = refuse
        try:
            resumed = self.run_journaled(tmp_path, resume=True)
        finally:
            campaign_module._run_shard = real
        assert resumed.report_digest() == first.report_digest()

    def test_partial_journal_resumes_to_the_same_digest(self, tmp_path):
        first = self.run_journaled(tmp_path)
        self.records(tmp_path)[1].unlink()
        resumed = self.run_journaled(tmp_path, resume=True)
        assert resumed.report_digest() == first.report_digest()
        assert resumed.merged.test_cases == first.merged.test_cases
        assert len(self.records(tmp_path)) == 3  # record republished

    def test_torn_record_is_rerun(self, tmp_path):
        first = self.run_journaled(tmp_path)
        self.records(tmp_path)[0].write_bytes(b"torn mid-write")
        resumed = self.run_journaled(tmp_path, resume=True)
        assert resumed.report_digest() == first.report_digest()

    def test_conflicting_spec_is_a_hard_error(self, tmp_path):
        from repro.core.journal import JournalMismatch

        self.run_journaled(tmp_path)
        with pytest.raises(JournalMismatch, match="digest"):
            self.run_journaled(tmp_path, resume=True, num_test_cases=17)

    def test_engine_knobs_do_not_invalidate_checkpoints(self, tmp_path):
        # the interpretive referee is excluded from the spec digest, so
        # a resume may legally flip it (docs/performance.md)
        first = self.run_journaled(tmp_path)
        resumed = self.run_journaled(
            tmp_path, resume=True, compile_programs=False
        )
        assert resumed.report_digest() == first.report_digest()

    def test_resume_requires_a_journal_dir(self):
        with pytest.raises(ValueError, match="resume requires"):
            CampaignRunner(quick_config(), resume=True)

    def test_resume_without_a_started_journal(self, tmp_path):
        from repro.core.journal import JournalMismatch

        with pytest.raises(JournalMismatch, match="cannot resume"):
            self.run_journaled(tmp_path, resume=True)

    def test_first_violation_mode_refuses_journaling(self, tmp_path):
        with pytest.raises(ValueError, match="requires mode='full'"):
            CampaignRunner(
                quick_config(), mode="first-violation",
                journal_dir=str(tmp_path / "ckpt"),
            )
