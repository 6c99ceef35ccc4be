"""Saliency-guided temporal segmentation, retrieval and localization metrics.

The package operates on precomputed per-frame feature matrices: it refines
them with parameter-free sliding-window self-attention, trains a supervised
frame-saliency head on labels derived from event annotations, segments each
video by solving a saliency-aware fused unbalanced optimal-transport problem
against a set of anchor prototypes, retrieves captions per selected segment
from an exact cosine datastore, assembles decoder-input sequences, and
scores localization quality against ground truth.
"""

__version__ = "0.1.0"

from .data import (
    EventAnnotation,
    FrameFeatures,
    PipelineConfig,
    derive_highlight_labels,
    load_annotations,
    load_config,
    load_features,
    save_annotations,
    save_features,
)
from .errors import ConfigError, DataError, NumericalError, OutputError, SalisegError
from .metrics import LocalizationReport, evaluate_corpus, iou, localization_prf, segment_quality
from .prompts import DecoderInput, assemble_input, project_saliency
from .refine import refine_features, window_attention
from .saliency import (
    SaliencyExample,
    SaliencyHead,
    attention_pool,
    init_head,
    load_head,
    saliency_forward,
    saliency_grad,
    saliency_loss,
    saliency_prior,
    save_head,
    train_saliency,
)
from .segments import (
    Segment,
    SegmentSet,
    baseline_kmeans,
    baseline_uniform,
    decode_segments,
    pool_segment_features,
    score_segments,
    select_topk,
)
from .store import (
    Datastore,
    DatastoreEntry,
    build_datastore,
    load_datastore,
    query_topp,
    retrieval_vectors,
    save_datastore,
)
from .synth import SynthCorpus, SynthSpec, generate_corpus, write_corpus
from .transport import (
    OtProblem,
    TransportPlan,
    build_kot_cost,
    build_problem,
    build_structure_costs,
    gw_gradient,
    gw_value,
    init_anchors,
    kl_divergence,
    solve_fugw,
)
