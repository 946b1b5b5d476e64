"""``repro.obs`` — end-to-end tracing, metrics, events, and SLOs.

Dependency-free observability for the whole assistant: hierarchical
spans over supervisor steps, graph nodes, SQL, sandbox runs, retrieval
and LLM exchanges (:mod:`repro.obs.tracer`), whose attributes are the
one record of each unit of work; mergeable process-local counters, kept
only where a live or cross-process reader needs them
(:mod:`repro.obs.metrics`); a trace's live listener, which hears each
finished span as it ends, and its ``--live`` renderer
(:mod:`repro.obs.events`); a sampling profiler with flamegraph output
(:mod:`repro.obs.profiler`); declarative SLO gates
(:mod:`repro.obs.slo`); shared span-name/attribute constants
(:mod:`repro.obs.names`); JSONL + Chrome-trace exporters and trace
analyzers (:mod:`repro.obs.export`), LLM spend among them: each
``llm.chat`` span carries its exchange's tokens and price, and its
ancestor spans say whose spend it was; and the single ``repro`` logging
hierarchy (:mod:`repro.obs.logsetup`).

Import the module you need: the package re-exports nothing, so a command
that only logs (``repro --help``) loads ``logsetup`` and none of the rest.
"""
