"""``repro.obs`` — end-to-end tracing, metrics, events, cost, and SLOs.

Dependency-free observability for the whole assistant: hierarchical
spans over supervisor steps, graph nodes, SQL, sandbox runs, retrieval
and LLM exchanges (:mod:`repro.obs.tracer`); mergeable process-local
counters/gauges/histograms (:mod:`repro.obs.metrics`); a bounded-queue
streaming event bus with pluggable subscribers
(:mod:`repro.obs.events`); the per-session cost ledger with attribution
and hard token budgets (:mod:`repro.obs.cost`); a sampling profiler
with flamegraph output (:mod:`repro.obs.profiler`); declarative SLO
gates (:mod:`repro.obs.slo`); shared span-name/attribute constants
(:mod:`repro.obs.names`); JSONL + Chrome-trace exporters and trace
analyzers (:mod:`repro.obs.export`); and the single ``repro`` logging
hierarchy (:mod:`repro.obs.logsetup`).

Import the module you need: the package re-exports nothing, so a command
that only logs (``repro --help``) loads ``logsetup`` and none of the rest.
"""
