"""Natural-language deployment intents to validated cluster configurations.

The pipeline: build a prompt under an optimization profile, call the
model, extract and parse the YAML it returns, check it against declarative
assertions, deploy it (simulated by default), and feed any failure back
into the next attempt until the chain resolves or the budget runs out.
"""

from .chain import ChainDeps, ChainOutcome, Stage, run_chain
from .gateway import (
    MockProvider,
    MockScript,
    PromptPayload,
    RawResponse,
    SamplingParams,
    clamp_for_determinism,
)
from .preprocess import ConfigDocument, StructuralError, preprocess_reply, serialize_config
from .prompting import (
    FewShotExample,
    GenerationRequest,
    OptimizationProfile,
    build_prompt,
    verify_alignment,
    with_feedback,
)
from .retrieval import Chunk, RetrievalIndex, build_index, chunk_document, count_tokens, retrieve
from .simulator import (
    ClusterModel,
    NodeSpec,
    ResourceSpec,
    SimulatedDeployer,
    Workload,
    parse_quantity,
    run_workload,
)
from .validation import Assertion, AssertionKind, ValidationReport, complexity, evaluate

__all__ = [
    "Assertion",
    "AssertionKind",
    "ChainDeps",
    "ChainOutcome",
    "Chunk",
    "ClusterModel",
    "ConfigDocument",
    "FewShotExample",
    "GenerationRequest",
    "MockProvider",
    "MockScript",
    "NodeSpec",
    "OptimizationProfile",
    "PromptPayload",
    "RawResponse",
    "ResourceSpec",
    "RetrievalIndex",
    "SamplingParams",
    "SimulatedDeployer",
    "Stage",
    "StructuralError",
    "ValidationReport",
    "Workload",
    "build_index",
    "build_prompt",
    "chunk_document",
    "clamp_for_determinism",
    "complexity",
    "count_tokens",
    "evaluate",
    "parse_quantity",
    "preprocess_reply",
    "retrieve",
    "run_chain",
    "run_workload",
    "serialize_config",
    "verify_alignment",
    "with_feedback",
]

__version__ = "0.1.0"
