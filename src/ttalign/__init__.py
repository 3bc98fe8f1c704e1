"""Test-time prompt adaptation for a frozen dual-encoder classifier,
combining confidence-filtered entropy minimization with per-layer
token-statistics alignment against precomputed source statistics."""

from .autodiff import Tensor, backward, grad_check, no_grad
from .augment import ViewBatch, generate_views
from .errors import (
    CompatibilityError,
    ConfigurationError,
    ContractError,
    DataError,
    FormatError,
    ShapeError,
    TTAlignError,
)
from .harness import (
    DatasetBundle,
    EvalReport,
    GenConfig,
    ShiftSpec,
    gen_synthetic,
    load_dataset,
    run_ablation,
    run_eval,
    save_dataset,
)
from .model import (
    DualEncoder,
    ModelConfig,
    PromptState,
    classify,
    couple,
    load_checkpoint,
    pretrain_backbone,
    save_checkpoint,
    weights_hash,
)
from .stats import (
    LayerStats,
    SourceStats,
    load_stats,
    save_stats,
    source_stats,
    view_stats,
)
from .tta import (
    EpisodeResult,
    TTAConfig,
    adapt_and_predict,
    align_loss,
    combined_loss,
    confidence_filter,
    entropy_loss,
    gradient_suite,
)

__version__ = "0.1.0"
