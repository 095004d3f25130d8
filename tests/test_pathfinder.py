"""Unit tests for critical-path discovery."""

import pytest

from repro.analysis.pathfinder import (
    compare_critical_paths,
    critical_paths,
    enumerate_paths,
)
from repro.core.batch import learn_bounded
from repro.errors import AnalysisError
from repro.systems.examples import pipeline_design, simple_four_task_design
from repro.systems.gm import gm_case_study_design


class TestEnumeration:
    def test_pipeline_single_path(self):
        paths = enumerate_paths(pipeline_design(4))
        assert paths == [("s0", "s1", "s2", "s3")]

    def test_figure1_paths(self):
        paths = set(enumerate_paths(simple_four_task_design()))
        assert paths == {("t1", "t2", "t4"), ("t1", "t3", "t4")}

    def test_gm_paths_exist(self):
        paths = enumerate_paths(gm_case_study_design())
        assert any("Q" in path for path in paths)
        # Every path starts at a source and ends at a sink.
        design = gm_case_study_design()
        for path in paths:
            assert design.task(path[0]).is_source
            assert not design.out_edges(path[-1])

    def test_cap(self):
        with pytest.raises(AnalysisError, match="exceeded"):
            enumerate_paths(gm_case_study_design(), max_paths=2)


class TestRanking:
    def test_top_ordering(self):
        design = gm_case_study_design()
        ranked = critical_paths(design, top=5)
        latencies = [entry.latency for entry in ranked]
        assert latencies == sorted(latencies, reverse=True)

    def test_through_filter(self):
        design = gm_case_study_design()
        for entry in critical_paths(design, through="Q", top=10):
            assert "Q" in entry.path
        with pytest.raises(AnalysisError):
            critical_paths(design, through="ZZ")

    def test_informed_never_worse(self, gm_run):
        design = gm_case_study_design()
        lub = learn_bounded(gm_run.trace, 8).lub()
        comparison = compare_critical_paths(design, lub, through="Q")
        assert comparison.worst_case_improvement >= 0
        assert comparison.pessimistic[0].latency >= (
            comparison.informed[0].latency
        )

    def test_summary(self, gm_run):
        design = gm_case_study_design()
        lub = learn_bounded(gm_run.trace, 8).lub()
        text = compare_critical_paths(design, lub, top=2).summary()
        assert "pessimistic critical paths" in text
        assert "improvement" in text

    def test_str_format(self):
        entry = critical_paths(pipeline_design(3), top=1)[0]
        assert "s0 -> s1 -> s2" in str(entry)
