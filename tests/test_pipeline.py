"""Tests for the staged learn pipeline (repro.pipeline)."""

import pytest

from repro.analysis.report import dumps_model, loads_model
from repro.core.batch import learn_bounded
from repro.errors import ReproError
from repro.pipeline import (
    LearnPipeline,
    PipelineConfig,
    PipelineRun,
    StageTiming,
    run_pipeline,
)
from repro.systems.examples import simple_four_task_design
from repro.systems.specio import dumps_design
from repro.trace.formats import get_format
from repro.trace.synthetic import paper_figure2_trace


def assert_same_trace(loaded, reference):
    assert len(loaded) == len(reference)
    assert loaded.message_count() == reference.message_count()
    assert set(loaded.tasks) == set(reference.tasks)


@pytest.fixture
def trace():
    return paper_figure2_trace()


@pytest.fixture
def trace_file(tmp_path, trace):
    path = tmp_path / "trace.log"
    get_format("text").write(trace, str(path))
    return str(path)


class TestStageSelection:
    def test_default_is_ingest_learn(self):
        assert PipelineConfig().stages() == ("ingest", "learn")

    def test_every_stage_enabled(self):
        config = PipelineConfig(
            validate=True,
            analyze_modes=True,
            model_path="m.json",
            design_path="d.json",
            dot="g.dot",
        )
        assert config.stages() == (
            "ingest",
            "validate",
            "learn",
            "analyze",
            "monitor",
            "coverage",
            "report",
        )

    def test_ingest_only(self):
        assert PipelineConfig(learn=False).stages() == ("ingest",)

    def test_report_requires_learn(self):
        with pytest.raises(ReproError, match="report stage requires"):
            LearnPipeline(PipelineConfig(learn=False, dot="g.dot"))

    def test_report_outputs_order(self):
        config = PipelineConfig(report="r.md", dot="g.dot")
        assert config.report_outputs() == [
            ("dot", "g.dot"),
            ("report", "r.md"),
        ]


class TestIngest:
    def test_reads_source_file(self, trace_file, trace):
        run = run_pipeline(PipelineConfig(source=trace_file, bound=4))
        assert_same_trace(run.trace, trace)
        assert run.format == "text"

    def test_infers_format_from_extension(self, tmp_path, trace):
        path = tmp_path / "trace.json"
        get_format("json").write(trace, str(path))
        run = run_pipeline(PipelineConfig(source=str(path), bound=4))
        assert run.format == "json"
        assert_same_trace(run.trace, trace)

    def test_explicit_format_wins_over_extension(self, tmp_path, trace):
        path = tmp_path / "trace.json"  # json extension, csv payload
        get_format("csv").write(trace, str(path))
        run = run_pipeline(
            PipelineConfig(source=str(path), format="csv", bound=4)
        )
        assert run.format == "csv"
        assert_same_trace(run.trace, trace)

    def test_direct_trace_skips_file(self, trace):
        run = run_pipeline(PipelineConfig(bound=4), trace=trace)
        assert run.trace is trace

    def test_no_source_no_trace_is_an_error(self):
        with pytest.raises(ReproError, match="no trace"):
            run_pipeline(PipelineConfig(bound=4))

    def test_unknown_format_name(self, trace_file):
        with pytest.raises(ReproError, match="unknown trace format"):
            run_pipeline(
                PipelineConfig(source=trace_file, format="yaml", bound=4)
            )


class TestLearnStage:
    def test_matches_direct_learner_call(self, trace):
        run = run_pipeline(PipelineConfig(bound=8), trace=trace)
        reference = learn_bounded(trace, 8)
        assert run.result.lub() == reference.lub()
        assert run.model == reference.lub()

    def test_workers_flow_through(self, trace):
        run = run_pipeline(PipelineConfig(bound=8, workers=2), trace=trace)
        assert run.result.workers == 2
        assert learn_bounded(trace, 8).lub().leq(run.model)

    def test_exact_algorithm_when_unbounded(self, trace):
        run = run_pipeline(PipelineConfig(), trace=trace)
        assert run.result.algorithm == "exact"


class TestValidateStage:
    def test_clean_trace_has_no_errors(self, trace):
        run = run_pipeline(
            PipelineConfig(validate=True, learn=False), trace=trace
        )
        assert run.validation_errors == []

    def test_broken_trace_reports_errors(self):
        from repro.trace.synthetic import build_trace

        # Message with no possible sender: rises before any task runs.
        bad = build_trace(
            ("a", "b"),
            [([("a", 1.0, 2.0), ("b", 3.0, 4.0)], [("m", 0.1, 0.5)])],
        )
        run = run_pipeline(
            PipelineConfig(validate=True, learn=False), trace=bad
        )
        assert run.validation_errors


class TestAnalyzeStage:
    def test_modes(self, trace):
        run = run_pipeline(
            PipelineConfig(learn=False, analyze_modes=True), trace=trace
        )
        assert run.modes is not None
        assert run.curve is None

    def test_curve(self, trace):
        run = run_pipeline(
            PipelineConfig(learn=False, analyze_curve=True, curve_bound=4),
            trace=trace,
        )
        assert run.curve is not None


class TestMonitorStage:
    def test_self_model_has_no_anomalies(self, tmp_path, trace):
        model = learn_bounded(trace, 8).lub()
        model_path = tmp_path / "model.json"
        model_path.write_text(dumps_model(model), encoding="utf-8")
        run = run_pipeline(
            PipelineConfig(learn=False, model_path=str(model_path)),
            trace=trace,
        )
        assert run.drift.anomaly_count == 0


class TestCoverageStage:
    def test_coverage_report(self, tmp_path, trace):
        design_path = tmp_path / "design.json"
        design_path.write_text(
            dumps_design(simple_four_task_design()), encoding="utf-8"
        )
        run = run_pipeline(
            PipelineConfig(learn=False, design_path=str(design_path)),
            trace=trace,
        )
        assert run.coverage is not None
        assert 0.0 <= run.coverage.signature_coverage <= 1.0


class TestReportStage:
    def test_writes_all_outputs(self, tmp_path, trace):
        paths = {
            "dot": tmp_path / "g.dot",
            "graphml": tmp_path / "g.graphml",
            "model_json": tmp_path / "m.json",
            "report": tmp_path / "r.md",
        }
        run = run_pipeline(
            PipelineConfig(
                bound=8,
                dot=str(paths["dot"]),
                graphml=str(paths["graphml"]),
                model_json=str(paths["model_json"]),
                report=str(paths["report"]),
            ),
            trace=trace,
        )
        assert [kind for kind, _ in run.written] == [
            "dot",
            "graphml",
            "model_json",
            "report",
        ]
        for path in paths.values():
            assert path.read_text(encoding="utf-8")
        reloaded = loads_model(
            paths["model_json"].read_text(encoding="utf-8")
        )
        assert reloaded == run.model


class TestTimings:
    def test_one_timing_per_stage(self, trace):
        run = run_pipeline(
            PipelineConfig(validate=True, bound=4), trace=trace
        )
        assert [t.name for t in run.timings] == [
            "ingest",
            "validate",
            "learn",
        ]
        assert all(t.seconds >= 0.0 for t in run.timings)

    def test_stage_seconds(self, trace):
        run = run_pipeline(PipelineConfig(bound=4), trace=trace)
        assert run.stage_seconds("learn") == pytest.approx(
            next(t.seconds for t in run.timings if t.name == "learn")
        )
        assert run.stage_seconds("nope") == 0.0

    def test_timing_rows_include_hot_loop_phases(self, trace):
        run = run_pipeline(PipelineConfig(bound=4), trace=trace)
        labels = [label for label, _ in run.timing_rows()]
        assert "learn" in labels
        assert "  hot loop: stats update" in labels
        assert "  hot loop: message processing" in labels
        # Hot-loop rows nest directly under the learn stage row.
        assert labels.index("  hot loop: stats update") == (
            labels.index("learn") + 1
        )

    def test_timing_summary_renders(self, trace):
        run = run_pipeline(PipelineConfig(bound=4), trace=trace)
        summary = run.timing_summary()
        assert "ingest" in summary and "learn" in summary
        assert summary.count("s\n") >= 1

    def test_empty_run_summary(self):
        assert "no stages" in PipelineRun(PipelineConfig()).timing_summary()

    def test_on_stage_hook_sees_every_stage(self, trace):
        seen = []

        def hook(timing, run):
            assert isinstance(timing, StageTiming)
            assert isinstance(run, PipelineRun)
            seen.append(timing.name)

        run_pipeline(
            PipelineConfig(validate=True, bound=4),
            trace=trace,
            on_stage=hook,
        )
        assert seen == ["ingest", "validate", "learn"]
