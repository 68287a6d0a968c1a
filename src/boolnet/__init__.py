"""Deep Boolean gate networks: training with a candidate-set learnable
interconnect, hardening to pure logic circuits, and compression passes."""

__version__ = "0.1.0"

from .bitmatrix import BitMatrix
from .encoding import ThermometerEncoder, encode, fit_thresholds
from .errors import (
    BoolnetError,
    ConfigError,
    IngestionError,
    OversizedConeError,
    StructuralError,
    UsageError,
)
from .interconnect import (
    GradientGuidedSampler,
    RandomSampler,
    RefreshEvent,
    refresh_candidates,
    sample_gradient_guided,
    sample_random,
)
from .model import (
    HardCircuit,
    HardLayer,
    LayerParams,
    NetworkModel,
    estimate_interconnect_memory,
    eval_circuit,
    format_bytes,
    group_logits,
    harden,
    random_network,
)
from .pruning import (
    ActivationProfile,
    ConeFunction,
    PruneReport,
    cone_of,
    greedy_prune,
    logic_equivalence_prune,
    profile_activations,
    similarity_prune,
    trivial_prune,
)
from .serialize import (
    load_checkpoint,
    load_netlist,
    save_checkpoint,
    save_netlist,
)
from .training import (
    BatchGradients,
    EncodedSplits,
    TrainConfig,
    backward,
    forward_soft,
    train,
)

__all__ = [
    "BitMatrix",
    "ThermometerEncoder",
    "encode",
    "fit_thresholds",
    "BoolnetError",
    "ConfigError",
    "IngestionError",
    "OversizedConeError",
    "StructuralError",
    "UsageError",
    "GradientGuidedSampler",
    "RandomSampler",
    "RefreshEvent",
    "refresh_candidates",
    "sample_gradient_guided",
    "sample_random",
    "HardCircuit",
    "HardLayer",
    "LayerParams",
    "NetworkModel",
    "estimate_interconnect_memory",
    "eval_circuit",
    "format_bytes",
    "group_logits",
    "harden",
    "random_network",
    "ActivationProfile",
    "ConeFunction",
    "PruneReport",
    "cone_of",
    "greedy_prune",
    "logic_equivalence_prune",
    "profile_activations",
    "similarity_prune",
    "trivial_prune",
    "load_checkpoint",
    "load_netlist",
    "save_checkpoint",
    "save_netlist",
    "BatchGradients",
    "EncodedSplits",
    "TrainConfig",
    "backward",
    "forward_soft",
    "train",
]
