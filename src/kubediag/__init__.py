"""Experience-guided fault diagnosis for Kubernetes clusters.

The package pairs an episodic/pattern memory with a causal knowledge graph.
A self-calibrating controller routes each incident either straight from
memory (fast) or through graph search (deliberate).  Outcomes feed back into
memory and the controller, and into the graph only as confirmed relations.
"""

from .controller import (
    ControllerState,
    MetaController,
    OptParams,
    Pathway,
    RoutingDecision,
    SessionRecord,
)
from .embedding import Embedder, HashingEmbedder
from .engine import DiagnosisSession, DiagnosticQuery, Engine, Feedback, LearningReport
from .errors import KubeDiagError
from .graph import (
    CausalChain,
    Category,
    GraphEdge,
    GraphNode,
    KnowledgeGraph,
    NodeType,
    Relation,
    SearchConfig,
    classify_document,
    explore,
)
from .memory import (
    Episode,
    MemoryConfig,
    MemoryPool,
    Outcome,
    Pattern,
    Query,
    RetrievalResult,
    make_query,
)
from . import store  # loaded with the pool, whose load and save methods import it late
from .scenarios import (
    DEFAULT_MIX,
    FaultScenario,
    build_world,
    generate_scenarios,
    load_scenarios,
    save_scenarios,
)
from .simulate import (
    AblationResult,
    SimulationConfig,
    SimulationResult,
    evaluate_ablation,
    make_engine,
    run_continuous,
)
from .synthesizer import (
    PromptContext,
    Solution,
    SynthConfig,
    TemplateStubClient,
    build_context,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult",
    "CausalChain",
    "Category",
    "ControllerState",
    "DEFAULT_MIX",
    "DiagnosisSession",
    "DiagnosticQuery",
    "Embedder",
    "Engine",
    "Episode",
    "FaultScenario",
    "Feedback",
    "GraphEdge",
    "GraphNode",
    "HashingEmbedder",
    "KnowledgeGraph",
    "KubeDiagError",
    "LearningReport",
    "MemoryConfig",
    "MemoryPool",
    "MetaController",
    "NodeType",
    "OptParams",
    "Outcome",
    "Pathway",
    "Pattern",
    "PromptContext",
    "Query",
    "Relation",
    "RetrievalResult",
    "RoutingDecision",
    "SearchConfig",
    "SessionRecord",
    "SimulationConfig",
    "SimulationResult",
    "Solution",
    "SynthConfig",
    "TemplateStubClient",
    "build_context",
    "build_world",
    "classify_document",
    "evaluate_ablation",
    "explore",
    "generate_scenarios",
    "load_scenarios",
    "make_engine",
    "make_query",
    "run_continuous",
    "save_scenarios",
    "synthesize",
]
