"""Rank-based network generation, distance learning, and re-creation toolkit."""

from .distance import (
    AggregateDistance,
    CentralityDistance,
    CosineDistance,
    DistanceContext,
    DistanceFunction,
    Euclidean1D,
    Euclidean2D,
    HierarchicalMixDistance,
    LinearRegressionDistance,
    NaiveBayesDistance,
    RandomDistance,
    TrainingSet,
    build_training_set,
    fit_linear_regression_distance,
    fit_naive_bayes_distance,
    spec_from_json_dict,
)
from .generate import (
    DegreeSpec,
    gen_barabasi_albert,
    gen_disassortative,
    gen_dorogovtsev_goltsev_mendes,
    gen_erdos_renyi,
    gen_forest_fire,
    gen_watts_strogatz,
    priority_rank_generate,
)
from .graph import (
    AttributeColumn,
    AttributeTable,
    Graph,
    GraphFormatError,
    load_attributes,
    load_edge_list,
    save_attributes,
    save_edge_list,
    symmetrize,
)
from .metrics import (
    ConvergenceError,
    NetworkProfile,
    betweenness_centrality,
    pagerank_centrality,
)
from .ranking import selection_probabilities
from .recreate import (
    ComparisonRecord,
    RecreateConfig,
    RecreationReport,
    compare_networks,
    generate_synthetic_attributes,
    recreate,
)
from .stats import (
    KsResult,
    RngStream,
    ks_two_sample,
)

__version__ = "0.1.0"
