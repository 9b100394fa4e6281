"""Integration tests for the MRT fuzzing loop and the testing pipeline."""

from repro.isa.assembler import parse_program
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import Fuzzer, TestingPipeline, fuzz
from repro.core.input_gen import InputGenerator


def quick_config(**overrides):
    defaults = dict(
        instruction_subsets=("AR", "MEM", "CB"),
        contract_name="CT-SEQ",
        cpu_preset="skylake-v4-patched",
        num_test_cases=60,
        inputs_per_test_case=25,
        seed=7,
    )
    defaults.update(overrides)
    return FuzzerConfig(**defaults)


class TestPipeline:
    def test_handwritten_v1_detected(self):
        pipeline = TestingPipeline(quick_config())
        program = parse_program(
            """
            JNS .end
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        .end: NOP
            """
        )
        inputs = InputGenerator(seed=42, layout=pipeline.layout).generate(50)
        candidate = pipeline.check_violation(program, inputs, confirm=True)
        assert candidate is not None

    def test_benign_program_clean(self):
        pipeline = TestingPipeline(quick_config())
        program = parse_program("MOV RAX, qword ptr [R14 + 128]\nADD RAX, 1")
        inputs = InputGenerator(seed=1, layout=pipeline.layout).generate(30)
        assert pipeline.check_violation(program, inputs) is None

    def test_violation_object_populated(self):
        pipeline = TestingPipeline(quick_config())
        program = parse_program(
            """
            JNS .end
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        .end: NOP
            """
        )
        inputs = InputGenerator(seed=42, layout=pipeline.layout).generate(50)
        outcome = pipeline.test_program(program, inputs)
        assert outcome.analysis.candidates
        violation = pipeline.build_violation(
            outcome, outcome.analysis.candidates[0]
        )
        assert violation.contract_name == "CT-SEQ"
        assert violation.classification.startswith("V1")
        assert "cond" in violation.speculation_kinds
        assert "contract violation" in violation.describe()
        only_a, only_b = violation.differing_signals()
        assert only_a or only_b

    def test_classification_survives_re_measurement(self):
        """Regression: classification must read the outcome's own run-info
        snapshot — the priming-swap check (or any later measurement)
        overwrites the executor's ``last_run_infos``."""
        pipeline = TestingPipeline(quick_config())
        program = parse_program(
            """
            JNS .end
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        .end: NOP
            """
        )
        inputs = InputGenerator(seed=42, layout=pipeline.layout).generate(50)
        outcome = pipeline.test_program(program, inputs)
        candidate = outcome.analysis.candidates[0]
        # clobber the executor's last measurement with an unrelated run
        pipeline.executor.collect_hardware_traces(
            parse_program("NOP"), inputs[:2]
        )
        violation = pipeline.build_violation(outcome, candidate)
        assert "cond" in violation.speculation_kinds
        assert violation.classification.startswith("V1")

    def test_fault_in_program_returns_none(self):
        pipeline = TestingPipeline(quick_config())
        program = parse_program("DIV RBX")  # divide by zero
        inputs = InputGenerator(seed=1, layout=pipeline.layout).generate(4)
        assert pipeline.check_violation(program, inputs) is None


class TestFuzzerCampaigns:
    def test_finds_v1_on_skylake(self):
        report = fuzz(quick_config(num_test_cases=120))
        assert report.found
        assert "V1" in report.violation.classification
        assert report.violation.test_cases_until_found <= 120
        assert report.test_cases >= 1
        assert 0 < report.mean_effectiveness <= 1

    def test_ar_only_is_clean(self):
        """Target 1: arithmetic only, no false violations (§6.2)."""
        report = fuzz(
            quick_config(instruction_subsets=("AR",), num_test_cases=25)
        )
        assert not report.found
        assert report.unconfirmed_candidates == 0

    def test_ct_cond_permits_v1(self):
        """Targets 5: CT-COND is not violated by branch misprediction."""
        report = fuzz(
            quick_config(contract_name="CT-COND", num_test_cases=25)
        )
        assert not report.found

    def test_timeout_respected(self):
        report = fuzz(quick_config(num_test_cases=10_000, timeout_seconds=2.0,
                                   instruction_subsets=("AR",)))
        assert report.duration_seconds < 10

    def test_summary_strings(self):
        report = fuzz(quick_config(instruction_subsets=("AR",), num_test_cases=5))
        assert "no violation" in report.summary()

    def test_reproducible_with_seed(self):
        first = fuzz(quick_config(num_test_cases=40))
        second = fuzz(quick_config(num_test_cases=40))
        assert first.found == second.found
        if first.found:
            assert (
                first.violation.test_cases_until_found
                == second.violation.test_cases_until_found
            )


class TestDiversityFeedback:
    def test_reconfiguration_grows_generator(self):
        fuzzer = Fuzzer(quick_config(instruction_subsets=("AR",)))
        before = fuzzer.generator.config.instructions_per_test
        grew = fuzzer._maybe_reconfigure(new_coverage=False)
        assert grew
        assert fuzzer.generator.config.instructions_per_test > before

    def test_growth_capped(self):
        config = quick_config(
            instruction_subsets=("AR",),
            max_inputs_per_test_case=30,
            max_instructions_per_test=10,
            max_basic_blocks=3,
        )
        fuzzer = Fuzzer(config)
        for _ in range(20):
            fuzzer._maybe_reconfigure(new_coverage=False)
        assert fuzzer.generator.config.instructions_per_test <= 10
        assert fuzzer.generator.config.basic_blocks <= 3
        assert fuzzer._inputs_per_case <= 30

    def test_saturated_reconfiguration_stops(self):
        config = quick_config(
            instruction_subsets=("AR",),
            max_inputs_per_test_case=25,
            max_instructions_per_test=8,
            max_basic_blocks=2,
        )
        fuzzer = Fuzzer(config)
        results = [fuzzer._maybe_reconfigure(new_coverage=False) for _ in range(8)]
        # growth must terminate once every dimension hits its cap
        assert results[-1] is False

    def test_stage_advances_on_coverage(self):
        fuzzer = Fuzzer(quick_config(instruction_subsets=("AR",)))
        # cover all AR-expressible individual patterns
        fuzzer.coverage.update_from_class([{"reg-dep", "flag-dep"}] * 2)
        assert fuzzer._feedback_stage == 0
        fuzzer._maybe_reconfigure(new_coverage=True)
        assert fuzzer._feedback_stage == 1

    def test_feedback_disabled(self):
        report = fuzz(
            quick_config(
                instruction_subsets=("AR",),
                diversity_feedback=False,
                num_test_cases=25,
            )
        )
        assert report.reconfigurations == 0


class TestFalsePositiveFilters:
    def test_nesting_revalidation_counter(self):
        config = quick_config(num_test_cases=120)
        fuzzer = Fuzzer(config)
        report = fuzzer.run()
        # filters may or may not trigger, but the counters must be wired
        assert report.discarded_by_nesting == fuzzer.pipeline.discarded_by_nesting
        assert report.discarded_by_priming == fuzzer.pipeline.discarded_by_priming

    def test_priming_can_be_disabled(self):
        report = fuzz(quick_config(verify_with_priming=False, num_test_cases=60))
        assert report.discarded_by_priming == 0


class TestBatchedMeasurement:
    """The round-batched measurement path must be invisible in the
    report: identical generation order, analysis order, counters and
    findings. Its referee is the same config with a timeout far beyond
    the run, which measures case by case."""

    #: a budget no test run gets near: it only forces per-case measurement
    REFEREE_TIMEOUT = 1e9

    REPORT_FIELDS = (
        "test_cases",
        "inputs_tested",
        "rounds",
        "reconfigurations",
        "mean_effectiveness",
        "discarded_by_priming",
        "discarded_by_nesting",
        "unconfirmed_candidates",
        "contract_emulations",
        "trace_cache_hits",
        "cancelled",
    )

    def _compare(self, config):
        from dataclasses import replace

        batched = Fuzzer(config).run()
        sequential = Fuzzer(
            replace(config, timeout_seconds=self.REFEREE_TIMEOUT)
        ).run()
        for field in self.REPORT_FIELDS:
            assert getattr(batched, field) == getattr(sequential, field), field
        assert batched.coverage.covered == sequential.coverage.covered
        assert batched.found == sequential.found
        if batched.found:
            a, b = batched.violation, sequential.violation
            assert (a.position_a, a.position_b) == (b.position_a, b.position_b)
            assert a.classification == b.classification
            assert a.test_cases_until_found == b.test_cases_until_found
            assert a.inputs_until_found == b.inputs_until_found
            assert str(a.program.linearize()) == str(b.program.linearize())
        return batched

    def test_identical_report_without_violation(self):
        self._compare(
            quick_config(
                instruction_subsets=("AR",),
                num_test_cases=25,
                inputs_per_test_case=10,
                round_size=10,  # batches cross no round boundary
            )
        )

    def test_identical_report_with_violation(self):
        report = self._compare(quick_config(num_test_cases=120))
        assert report.found  # seed 7 reliably surfaces a violation

    def test_identical_report_with_cache(self):
        self._compare(
            quick_config(
                instruction_subsets=("AR", "MEM"),
                num_test_cases=20,
                inputs_per_test_case=10,
                contract_trace_cache=True,
            )
        )

    def test_pipeline_batch_matches_per_case_outcomes(self):
        pipeline = TestingPipeline(quick_config())
        generator = InputGenerator(seed=9, layout=pipeline.layout)
        program_a = parse_program(
            """
            JNS .end
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        .end: NOP
            """
        )
        program_b = parse_program("MOV RAX, qword ptr [R14 + 128]\nADD RAX, 1")
        cases = [
            (program_a, generator.generate(12)),
            (program_b, generator.generate(12)),
        ]
        batched = pipeline.test_programs(cases)
        fresh = TestingPipeline(quick_config())
        for outcome, (program, inputs) in zip(batched, cases):
            reference = fresh.test_program(program, inputs)
            assert outcome is not None
            assert outcome.ctraces == reference.ctraces
            assert [t.signals for t in outcome.htraces] == [
                t.signals for t in reference.htraces
            ]
            assert len(outcome.analysis.candidates) == len(
                reference.analysis.candidates
            )

    def test_faulting_case_skipped_in_batch(self):
        pipeline = TestingPipeline(quick_config())
        generator = InputGenerator(seed=9, layout=pipeline.layout)
        escaping = parse_program("MOV RAX, qword ptr [R14 + 1048576]")
        benign = parse_program("MOV RAX, qword ptr [R14 + 128]")
        outcomes = pipeline.test_programs(
            [(escaping, generator.generate(4)), (benign, generator.generate(4))]
        )
        assert outcomes[0] is None
        assert outcomes[1] is not None

    def test_armed_noise_forces_per_case_measurement(self):
        """An armed noise model draws from one RNG stream; batching
        would reorder measurements around swap checks and faulting
        cases, so the loop falls back to per-case — and the report
        equals the timed referee's, which measures per case too."""
        from dataclasses import replace

        from repro.executor.noise import NoiseModel

        noise = NoiseModel(spurious_rate=0.3)
        config = quick_config(
            instruction_subsets=("AR", "MEM"),
            num_test_cases=15,
            inputs_per_test_case=8,
        )
        batched = Fuzzer(config, noise).run()
        sequential = Fuzzer(
            replace(config, timeout_seconds=self.REFEREE_TIMEOUT), noise
        ).run()
        assert batched.test_cases == sequential.test_cases
        assert batched.found == sequential.found
        assert batched.contract_emulations == sequential.contract_emulations

    def test_timeout_forces_per_case_measurement(self):
        # a timed campaign must keep checking the clock between cases:
        # the loop falls back to batch size 1 (smoke: it still runs)
        report = fuzz(
            quick_config(
                instruction_subsets=("AR",),
                num_test_cases=5,
                inputs_per_test_case=5,
                timeout_seconds=30.0,
            )
        )
        assert report.test_cases <= 5
