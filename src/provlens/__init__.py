"""provlens: explainable provenance-based intrusion detection.

Temporal provenance graphs, a compact temporal-graph anomaly model,
windowed detection with alert queues, and three edge-mask explainers
(deterministic, fidelity-scored, and variational), plus reporting and
an evaluation harness.
"""

from .data import (
    LabeledDataset,
    default_scenario,
    generate_scenario,
    load_dataset,
    parse_log,
    render_log,
    save_dataset,
)
from .detect import (
    Alert,
    AttackSubgraph,
    DetectorConfig,
    WindowStats,
    compute_threshold,
    link_queues,
    reconstruct_subgraph,
    score_all_windows,
)
from .gnnexplainer import (
    FidelityMetrics,
    GnnExplainerConfig,
    fidelity,
    gnn_explain_event,
)
from .graph import (
    Event,
    EventContext,
    NodeDescriptor,
    NodeKind,
    Relation,
    TemporalGraph,
    TruthLabel,
    extract_context,
)
from .graphmask import (
    CanonicalEdge,
    GraphMaskConfig,
    graphmask_aggregate,
    graphmask_explain_event,
)
from .harness import (
    AblationResult,
    ablate_edge,
    ablation_csv,
    fidelity_summary,
    measure_runtime,
)
from .model import ModelConfig, TgnModel, score_stream, train
from .pipeline import PipelineConfig, run_pipeline
from .report import (
    ExplanationReport,
    ImportanceBand,
    WindowReport,
    band_of,
    emit_graph_description,
    emit_json,
    emit_markdown,
)
from .vatg import (
    VatgConfig,
    VariationalMaskParams,
    sample_mask,
    vatg_explain_event,
)

__version__ = "0.1.0"
