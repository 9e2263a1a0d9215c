"""bench_e2e: the repo's one end-to-end benchmark (see README.md here).

Drives the real two-node ``Deployment`` -- primary DML -> redo -> ship ->
merge -> apply + mining -> journal/commit table -> chop/flush -> QuerySCN
publication -> population -> standby columnar scan -- from one process and
one thread, on four workloads, and reports the metrics ``BENCHMARK.json``
names.  Nothing in here is imported by ``src/repro``.
"""
