"""Group-level matching and counting for weakly labeled detection streams.

The pieces: a stream data model with inflow/outflow weak labels and
similarity partitioning (stream), transport-based contrastive losses with an
analytic gradient and pseudo-trajectory recovery (loss), a minimum-cost
assignment solver with a brute-force oracle (assignment), memory-based count
prediction (counting), counting metrics (metrics), a seeded scene simulator
(simulate), and a JSON Lines file format (streamio). The vicount command
line tool fronts the common workflows.
"""

from .assignment import Assignment, brute_force_assignment, hungarian
from .counting import (
    CountReport,
    McpConfig,
    MemoryState,
    StepRecord,
    TemplateEntry,
    count_video,
    step,
    template_cost,
)
from .errors import DataError, NumericalError, StreamFormatError
from .loss import (
    LossConfig,
    PairMatching,
    PairObjective,
    PseudoTrajectories,
    SoftContrastiveLoss,
    TransportPlan,
    contrastive_similarity,
    frozen_plan_loss,
    group_matching_loss,
    hinge_loss,
    loss_gradient,
    pair_objective,
    pseudo_trajectories,
    round_to_permutation,
    sinkhorn,
    soft_contrastive_loss,
    supervised_contrastive_loss,
)
from .metrics import VideoResult, mae, mse, wrae
from .simulate import (
    SimConfig,
    generate_scene,
    gt_unique_count,
    scene_from_lifespans,
)
from .stream import (
    Detection,
    DetectionStream,
    FrameRecord,
    SimilarityBlocks,
    pair_blocks,
    partition_similarity,
    random_similarity_blocks,
    shared_count,
)
from .streamio import parse_stream, write_stream

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CountReport",
    "DataError",
    "Detection",
    "DetectionStream",
    "FrameRecord",
    "LossConfig",
    "McpConfig",
    "MemoryState",
    "NumericalError",
    "PairMatching",
    "PairObjective",
    "PseudoTrajectories",
    "SimConfig",
    "SimilarityBlocks",
    "SoftContrastiveLoss",
    "StepRecord",
    "StreamFormatError",
    "TemplateEntry",
    "TransportPlan",
    "VideoResult",
    "brute_force_assignment",
    "contrastive_similarity",
    "count_video",
    "frozen_plan_loss",
    "generate_scene",
    "group_matching_loss",
    "gt_unique_count",
    "hinge_loss",
    "hungarian",
    "loss_gradient",
    "mae",
    "mse",
    "pair_blocks",
    "pair_objective",
    "parse_stream",
    "partition_similarity",
    "pseudo_trajectories",
    "random_similarity_blocks",
    "round_to_permutation",
    "scene_from_lifespans",
    "shared_count",
    "sinkhorn",
    "soft_contrastive_loss",
    "step",
    "supervised_contrastive_loss",
    "template_cost",
    "wrae",
    "write_stream",
]
