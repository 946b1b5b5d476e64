"""Fine-grained provenance tracking (§4.2.1).

Every analytical artifact — intermediate CSVs, executed code, generated
figures, LLM exchanges, QA scores — is recorded in strict sequential
order with byte-exact storage accounting.  The audit trail makes any run
replayable: the recorded code and inputs are sufficient to re-execute
each step and verify its output (:mod:`repro.provenance.audit`, imported
by the callers that verify or replay: it needs the sandbox executor,
which recording a trail does not).
"""

from repro.provenance.tracker import ProvenanceTracker, ArtifactRecord

__all__ = ["ProvenanceTracker", "ArtifactRecord"]
