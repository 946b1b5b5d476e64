"""The seven specialized agents plus the supervisor's routing graph.

Planning (multi-turn, human-in-the-loop), data loading (RAG-guided
column/file selection without full ingestion), SQL programming, Python
programming, visualization, quality assurance (1-100 scoring, threshold
50, five-revision budget) and documentation — orchestrated by the
supervisor exactly as in Fig. 3 of the paper.
"""

from repro.agents.base import AgentContext, StepOutcome
from repro.agents.planner import PlanningAgent, FeedbackProvider, AutoApprove, ScriptedFeedback
from repro.agents.data_loader import DataLoadingAgent, LoadReport
from repro.agents.sql_agent import SQLProgrammingAgent
from repro.agents.python_agent import PythonProgrammingAgent
from repro.agents.viz_agent import VisualizationAgent
from repro.agents.qa_agent import QualityAssuranceAgent, QAVerdict
from repro.agents.documentation import DocumentationAgent
from repro.agents.supervisor import Supervisor, StepResult, RunReport

__all__ = [
    "AgentContext",
    "StepOutcome",
    "PlanningAgent",
    "FeedbackProvider",
    "AutoApprove",
    "ScriptedFeedback",
    "DataLoadingAgent",
    "LoadReport",
    "SQLProgrammingAgent",
    "PythonProgrammingAgent",
    "VisualizationAgent",
    "QualityAssuranceAgent",
    "QAVerdict",
    "DocumentationAgent",
    "Supervisor",
    "StepResult",
    "RunReport",
]
