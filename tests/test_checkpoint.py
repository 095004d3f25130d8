"""Unit tests for learner checkpointing."""

import pytest

from repro.core.checkpoint import (
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.batch import BoundedLearner, ExactLearner
from repro.errors import LearningError
from repro.trace.synthetic import paper_figure2_trace


class TestRoundTrip:
    def test_bounded_resume_equals_continuous(self, tmp_path):
        trace = paper_figure2_trace()
        # Continuous run.
        continuous = BoundedLearner(trace.tasks, bound=4)
        continuous.feed_trace(trace)
        # Checkpointed run: 1 period, save, load, 2 more periods.
        first = BoundedLearner(trace.tasks, bound=4)
        first.feed(trace[0])
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(first, path)
        resumed = load_checkpoint(path)
        resumed.feed(trace[1])
        resumed.feed(trace[2])
        assert set(resumed.result().functions) == set(
            continuous.result().functions
        )
        assert resumed.result().lub() == continuous.result().lub()

    def test_exact_resume_equals_continuous(self, tmp_path):
        trace = paper_figure2_trace()
        continuous = ExactLearner(trace.tasks)
        continuous.feed_trace(trace)
        first = ExactLearner(trace.tasks)
        first.feed(trace[0])
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(first, path)
        resumed = load_checkpoint(path)
        assert isinstance(resumed, ExactLearner)
        resumed.feed(trace[1])
        resumed.feed(trace[2])
        assert set(resumed.result().functions) == set(
            continuous.result().functions
        )

    def test_counters_preserved(self, tmp_path):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=2)
        learner.feed_trace(trace)
        restored = checkpoint_from_dict(checkpoint_to_dict(learner))
        original = learner.result()
        recovered = restored.result()
        assert recovered.periods == original.periods
        assert recovered.messages == original.messages
        assert recovered.peak_hypotheses == original.peak_hypotheses
        assert recovered.merge_count == original.merge_count

    def test_stats_preserved(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed_trace(trace)
        restored = checkpoint_from_dict(checkpoint_to_dict(learner))
        for s in trace.tasks:
            assert restored.stats.execution_count(
                s
            ) == learner.stats.execution_count(s)
            for r in trace.tasks:
                if s != r:
                    assert restored.stats.exclusive_count(
                        s, r
                    ) == learner.stats.exclusive_count(s, r)


class TestValidation:
    def test_bad_format(self):
        with pytest.raises(LearningError, match="format"):
            checkpoint_from_dict({"format": "zzz", "version": 1})

    def test_bad_version(self):
        with pytest.raises(LearningError, match="version"):
            checkpoint_from_dict(
                {"format": "repro-learner-checkpoint", "version": 99}
            )

    def test_bad_kind(self):
        data = checkpoint_to_dict(BoundedLearner(("a",), 1))
        data["kind"] = "quantum"
        with pytest.raises(LearningError, match="kind"):
            checkpoint_from_dict(data)

    def test_corrupt_file(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{")
        with pytest.raises(LearningError, match="invalid checkpoint"):
            load_checkpoint(path)
