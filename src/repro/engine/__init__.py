"""Pass-pipeline decomposition engine and batch orchestrator.

The engine splits the Fig. 5 loop into composable passes over an explicit
:class:`EngineState` (see :mod:`repro.engine.passes`), assembled by a
:class:`Pipeline`.  ``Pipeline.from_options`` reproduces
:func:`repro.core.progressive_decomposition` bit-for-bit; hand-assembled
pipelines express ablations and experiments as pass lists.

On top of the pipeline, :mod:`repro.engine.batch` runs many specifications
concurrently with an on-disk result cache keyed by the canonical spec digest
and the pipeline configuration.
"""

from .batch import (
    BatchJob,
    BatchOrchestrator,
    JobOutcome,
    decompose_cached,
    job_fingerprint,
    map_parallel,
    run_job,
)
from .cache import (
    CacheTelemetry,
    DecompositionCache,
    SynthesisCache,
    cache_key,
    corrupt_record_count,
    decomposition_digest,
    deserialize_decomposition,
    netlist_digest,
    serialize_decomposition,
    synthesis_cache_key,
)
from .passes import (
    BasisExtractionPass,
    GroupingPass,
    IdentityAnalysisPass,
    LinearDependencePass,
    NullspaceMergePass,
    Pass,
    RewritePass,
    SizeReductionPass,
)
from .cost import (
    FamilyCalibration,
    SpecShape,
    estimate_batch_job,
    estimate_cost,
    estimate_from_shape,
    spec_shape,
)
from .pipeline import Pipeline
from .profiling import collecting_pass_timings
from .state import EngineState

__all__ = [
    "BasisExtractionPass",
    "BatchJob",
    "BatchOrchestrator",
    "CacheTelemetry",
    "DecompositionCache",
    "EngineState",
    "FamilyCalibration",
    "JobOutcome",
    "GroupingPass",
    "IdentityAnalysisPass",
    "LinearDependencePass",
    "NullspaceMergePass",
    "Pass",
    "Pipeline",
    "RewritePass",
    "SizeReductionPass",
    "SpecShape",
    "SynthesisCache",
    "cache_key",
    "collecting_pass_timings",
    "corrupt_record_count",
    "decompose_cached",
    "decomposition_digest",
    "deserialize_decomposition",
    "estimate_batch_job",
    "estimate_cost",
    "estimate_from_shape",
    "job_fingerprint",
    "map_parallel",
    "netlist_digest",
    "run_job",
    "serialize_decomposition",
    "spec_shape",
    "synthesis_cache_key",
]
