"""Graph-geometry toolkit: localized hyperbolicity profiles of weighted graphs
and a joint Euclidean/hyperbolic graph neural network whose per-node space
selection is aligned to the geometric profile."""

from .graphs import (
    DistanceMatrix,
    EdgeSplitSpec,
    SplitSpec,
    WeightedGraph,
    generate_combined,
    generate_lattice,
    generate_tree,
    k_hop_subgraph,
    load_edge_list,
    reference_combined_graph,
    shortest_paths,
    split_edges,
    split_nodes,
)
from .hyperbolicity import (
    HyperbolicityProfile,
    delta_inf,
    delta_one_exact,
    delta_one_sampled,
    histogram,
    local_profile,
)
from .layers import JointSpaceGNN
from .objectives import (
    LossWeights,
    fermi_dirac_prob,
    non_uniformity_loss,
    normalize_delta,
    overall_loss,
    wasserstein_1d,
)
from .poincare import (
    BallPoint,
    exp_origin,
    hyp_distance,
    log_origin,
    mobius_add,
    project_to_ball,
)
from .training import (
    RunReport,
    TrainConfig,
    evaluate_lp,
    evaluate_nc,
    train,
)

__version__ = "0.1.0"
