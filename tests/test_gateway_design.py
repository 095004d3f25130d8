"""Tests for the gatewayed two-bus case study."""

import pytest

from repro.analysis.classify import is_conjunction, is_disjunction
from repro.core.batch import learn_bounded
from repro.sim.simulator import Simulator
from repro.systems.gateway import gateway_config, gateway_design
from repro.trace.validate import Severity, validate_trace


@pytest.fixture(scope="module")
def gateway_run():
    return Simulator(gateway_design(), gateway_config(), seed=5).run(25)


@pytest.fixture(scope="module")
def gateway_lub(gateway_run):
    return learn_bounded(gateway_run.trace, 16).lub()


class TestDesign:
    def test_scale(self):
        design = gateway_design()
        assert len(design) == 18
        assert len(design.ecus()) == 4
        assert design.buses() == ("can_body", "can_chassis")

    def test_sporadic_and_offset_sources(self):
        design = gateway_design()
        assert design.task("SENS1").activation_probability < 1.0
        assert design.task("CAB").activation_probability < 1.0
        assert design.task("SENS2").offset == 2.0

    def test_gateway_nonpreemptive_in_recommended_config(self):
        config = gateway_config()
        assert "ecu_gw" in config.nonpreemptive_ecus
        assert config.bus_error_rate > 0


class TestSimulation:
    def test_trace_valid(self, gateway_run):
        errors = [
            d
            for d in validate_trace(gateway_run.trace)
            if d.severity is Severity.ERROR
        ]
        assert errors == []

    def test_sporadic_visible(self, gateway_run):
        ran = [
            period.executed("SENS1") for period in gateway_run.trace.periods
        ]
        assert any(ran) and not all(ran)

    def test_cross_bus_overlap_occurs(self, gateway_run):
        truth = gateway_run.logger.ground_truth
        by_period: dict[int, list] = {}
        for record in truth:
            by_period.setdefault(record.period_index, []).append(record)
        overlaps = 0
        for records in by_period.values():
            records.sort(key=lambda r: r.rise)
            for left, right in zip(records, records[1:]):
                if right.rise < left.fall:
                    overlaps += 1
        assert overlaps > 0  # impossible on a single bus


class TestLearnedModel:
    def test_backbone_certain(self, gateway_lub):
        assert str(gateway_lub.value("GWIN", "GWOUT")) == "->"
        assert str(gateway_lub.value("WHEEL", "SPEED")) == "->"
        # Cross-bus end-to-end influence: body aggregate determines the
        # chassis arbiter through the gateway.
        assert str(gateway_lub.value("AGG", "ARB")) == "->"

    def test_mode_choice_probable(self, gateway_lub):
        assert str(gateway_lub.value("ARB", "BRAKE")) == "->?"
        assert str(gateway_lub.value("ARB", "COAST")) == "->?"
        assert is_disjunction(gateway_lub, "ARB")

    def test_log_is_conjunction(self, gateway_lub):
        assert is_conjunction(gateway_lub, "LOG")

    def test_sporadic_chain_not_certain(self, gateway_lub):
        # SENS1 fires only some periods: nothing can certainly determine it.
        for other in ("SENS2", "WHEEL", "TIMER"):
            assert str(gateway_lub.value(other, "SENS1")) != "->"
