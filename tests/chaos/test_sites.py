"""Tests for injection-site declaration, recording and installation."""

from repro.chaos import sites
from repro.chaos.sites import (
    Action,
    Decision,
    InjectionSite,
    PROCEED,
    SiteRegistry,
    recording,
)


class FixedInjector:
    """Returns one canned decision for every event."""

    def __init__(self, decision):
        self.decision = decision
        self.consulted = 0

    def decide(self, site, event, context):
        self.consulted += 1
        return self.decision


class TestZeroCostDefault:
    def test_declare_outside_recording_floats_free(self):
        site = sites.declare("redo.ship")
        assert site.injectors is None  # the hot-path guard stays cold

    def test_consult_with_no_injectors_proceeds(self):
        site = InjectionSite("x")
        assert site.consult("event") is PROCEED


class TestInjectionSite:
    def test_attach_arms_and_detach_disarms(self):
        site = InjectionSite("x")
        injector = FixedInjector(Decision(Action.DROP))
        site.attach(injector)
        assert site.injectors is not None
        assert site.consult("e").action is Action.DROP
        site.detach(injector)
        assert site.injectors is None  # back to the zero-cost guard

    def test_first_non_proceed_decision_wins(self):
        site = InjectionSite("x")
        passive = FixedInjector(PROCEED)
        active = FixedInjector(Decision(Action.DELAY, delay=0.5))
        site.attach(passive)
        site.attach(active)
        decision = site.consult("e")
        assert decision.action is Action.DELAY
        assert decision.delay == 0.5
        assert passive.consulted == 1  # asked first, declined

    def test_double_attach_is_idempotent(self):
        site = InjectionSite("x")
        injector = FixedInjector(PROCEED)
        site.attach(injector)
        site.attach(injector)
        assert len(site.injectors) == 1


class TestRecording:
    def test_recording_captures_declarations(self):
        registry = SiteRegistry()
        with recording(registry):
            a = sites.declare("redo.ship", owner="s1")
            b = sites.declare("redo.ship", owner="s2")
            c = sites.declare("redo.receive")
        assert registry.sites("redo.ship") == [a, b]
        assert registry.sites("redo.receive") == [c]
        assert sorted(registry._sites) == ["redo.receive", "redo.ship"]
        # recording closed: new declarations float free again
        assert sites.declare("redo.ship") not in registry.sites("redo.ship")

    def test_install_attaches_to_every_matching_site(self):
        registry = SiteRegistry()
        with recording(registry):
            a = sites.declare("redo.ship")
            b = sites.declare("redo.ship")
        injector = FixedInjector(Decision(Action.DROP))
        attached = registry.install("redo.ship", injector)
        assert attached == [a, b]
        assert a.consult("e").action is Action.DROP
        assert b.consult("e").action is Action.DROP

    def test_install_where_filter(self):
        registry = SiteRegistry()
        with recording(registry):
            a = sites.declare("redo.ship", owner="keep")
            b = sites.declare("redo.ship", owner="skip")
        injector = FixedInjector(Decision(Action.DROP))
        attached = registry.install(
            "redo.ship", injector, where=lambda s: s.owner == "keep"
        )
        assert attached == [a]
        assert b.injectors is None

    def test_pending_install_attaches_at_declare_time(self):
        """Faults can target sites that do not exist yet (db.failover is
        declared only when failover() actually runs)."""
        registry = SiteRegistry()
        injector = FixedInjector(Decision(Action.DELAY, delay=0.1))
        assert registry.install("db.failover", injector) == []
        with recording(registry):
            site = sites.declare("db.failover")
        assert site.consult("begin").action is Action.DELAY

    def test_uninstall_clears_sites_and_pending(self):
        registry = SiteRegistry()
        with recording(registry):
            a = sites.declare("redo.ship")
        injector = FixedInjector(Decision(Action.DROP))
        registry.install("redo.ship", injector)
        registry.install("db.failover", injector)  # pending
        registry.uninstall(injector)
        assert a.injectors is None
        with recording(registry):
            late = sites.declare("db.failover")
        assert late.injectors is None  # pending entry was cleared too


class TestKnownSites:
    def test_deployment_declares_the_stock_sites(self):
        from repro.db import Deployment
        from tests.db.conftest import small_config

        registry = SiteRegistry()
        with recording(registry):
            Deployment.build(config=small_config())
        declared = set(registry._sites)
        # db.failover appears only when failover() runs; rac.message only
        # with a standby cluster -- everything else is wired at build time
        assert {
            "redo.ship",
            "redo.receive",
            "adg.apply_worker",
            "adg.queryscn_publish",
            "flush.worklink",
        } <= declared

    def test_known_sites_constant_lists_the_wired_names(self):
        assert "db.failover" in sites.KNOWN_SITES
        assert "rac.message" in sites.KNOWN_SITES
