"""repro.chaos -- the injection sites pipeline components declare.

:mod:`repro.chaos.sites` is the only part of fault injection the system
carries: named sites, zero-cost no-ops until a fault is installed.  The
harness that drives and judges a run -- faults, plans, invariants, the
scenarios and their CLI (``python -m tests.chaos``) -- lives in
``tests/chaos/``.
"""
