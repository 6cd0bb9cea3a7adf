"""Spectral collaborative filtering on the user-item bipartite graph.

Latent factors are learned directly in the graph's frequency domain: a
convolution kernel built from the Laplacian eigensystem (or its sparse
closed form) propagates user and item vectors through K sigmoid layers,
all layer outputs are concatenated, and the concatenation is trained
with a pairwise ranking loss on batches of (user, interacted item,
non-interacted item) triples, drawn as index arrays (``Batch``).
"""

from .baselines import bpr_mf_scorer, fit_bpr_mf, popularity_scorer
from .checkpoint import SpectralCheckpoint, load_checkpoint, save_checkpoint
from .data import (
    InteractionSet,
    RawColumns,
    SplitPair,
    load_split,
    load_train,
    parse_interactions,
    save_split,
    split_cold_start,
    split_standard,
    to_implicit,
)
from .errors import (
    DegenerateInterpolationError,
    DimensionError,
    EmptyDatasetError,
    NumericError,
    ParseError,
    SpectralCFError,
    SplitFormatError,
)
from .evaluation import EvalReport, evaluate, map_at_m, recall_at_m, save_report
from .graph import (
    BipartiteGraph,
    ConvKernel,
    SpectralBasis,
    build_graph,
    conv_kernel,
    eigendecompose,
    gft,
    igft,
    spectral_coordinates,
    verify_polynomial_equivalence,
)
from .model import (
    FactorTable,
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    score,
    top_m,
)
from .training import Batch, TrainConfig, bpr_loss, sample_batch, train

__version__ = "0.1.0"
