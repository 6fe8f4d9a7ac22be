"""Consensus land-cover mapping from multiple probabilistic classifications.

Fuses per-investigator class-probability rasters into a single map by
Dirichlet-conjugate updating, with optional investigator confidence
weighting and entropy-based grouping of like-minded investigators, plus
the assessment tooling (stratified Monte Carlo accuracy, paired t-tests,
interspersion index) needed to judge the result.
"""

from .accuracy import (Accuracy, accuracy_report, confusion, monte_carlo_assess,
                       paired_t_test, stratified_samples)
from .clustering import (ClusterModel, EntropyFeatureMatrix, adjusted_rand_index,
                         entropy_features, entropy_map, kmeans_cluster,
                         kmedoids_cluster)
from .fusion import fuse, fused_label_map
from .grids import (MAX_CLASSES, NODATA, GridShape, LabelRaster, ProbabilityRaster,
                    common_shape, hard_classify, pair_counts, regularize)
from .landscape import EdgeTable, edge_table, iji
from .pipeline import PipelineConfig, plurality_baseline, run_pipeline
from .synth import (InvestigatorSpec, SceneSpec, generate_investigator,
                    generate_scene, style_kernel, two_style_scenario,
                    uniform_kernel)
from .weights import WeightEstimate, estimate_weights

__version__ = "0.1.0"
