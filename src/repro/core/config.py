"""InferA configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import FaultProfile
from repro.llm.errors import ErrorModel


@dataclass
class InferAConfig:
    """All knobs of the assistant in one place.

    Defaults reproduce the paper's evaluation protocol: five revision
    attempts, 1-100 QA scoring thresholded at 50, limited per-agent
    context with a short supervisor history, documentation agent on, and
    the calibrated generation-error model.
    """

    seed: int = 0
    max_revisions: int = 5
    qa_mode: str = "score"               # 'score' | 'binary' (the §4.2.4 ablation)
    limited_context: bool = True         # per-agent context isolation (§4.2.5)
    supervisor_history: int | None = 6   # messages of history the supervisor sees
    enable_documentation: bool = True
    # stateful branching (§4.2.1): every graph node checkpoints under
    # "<workdir>/<session>/checkpoints", so a restarted process can
    # resume or branch
    use_checkpointer: bool = False
    parallel_viz: bool = False           # parallel viz execution (§5 future work)
    error_model: ErrorModel = field(default_factory=ErrorModel)
    llm_latency_s: float = 1.2           # simulated per-invocation latency
    # where the shared retrieval-artifact cache (corpus embedding matrix,
    # see repro.rag.cache) lives; None -> "<workdir>/.retrieval_cache".
    # The evaluation harness points every run at one shared directory so
    # worker processes mmap a single matrix instead of re-embedding.
    retrieval_cache_dir: str | None = None
    # on-disk tier of the semantic query-result cache (repro.db.cache);
    # None -> "<workdir>/.query_cache".  The harness points every run and
    # worker process at one shared directory so a result executed once is
    # mmap-served everywhere else.
    query_cache_dir: str | None = None
    # when set, generated code executes on a remote sandbox gateway (the
    # paper's ASGI-server deployment) instead of in-process
    sandbox_url: str | None = None
    # warm sandbox fleet (repro.sandbox.fleet); None defers to the
    # REPRO_SANDBOX_WORKERS environment variable, then disabled.  0 means
    # one worker per core.  Routing only ever picks *where* an execution
    # runs, so fleet answers stay byte-identical to single-worker runs
    sandbox_workers: int | None = None
    # how fleet workers materialize: "thread" (in-process servers, cheap
    # to spawn — tests/benchmarks) or "process" (separate interpreters,
    # the production isolation boundary); None -> "thread"
    sandbox_spawn: str | None = None
    # deterministic infrastructure fault injection (repro.faults); None
    # defers to the REPRO_FAULT_PROFILE environment variable, which in
    # turn defaults to off.  Injected faults are absorbed by the
    # resilience layer, so answers stay byte-identical to a fault-free run
    fault_profile: FaultProfile | None = None
    # hard per-session token budget checked at the agent boundary
    # (AgentContext.chat; None = unbounded): crossing it raises a classified
    # BudgetExceeded that ends the session like a resilience failure,
    # putting a ceiling on QA-redo token growth (§4.5)
    token_budget: int | None = None
