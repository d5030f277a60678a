"""regrow: restoration-progress analytics from annual embedding vectors.

Scores forest-restoration sites by the cosine similarity of their annual
embeddings to stable secondary-forest references, classifies reference
points as stable or changing, ranks label outliers against class
centroids, and runs the two prediction tasks (future similarity,
restoration strategy) under spatial cross-validation.
"""

from .core import (
    CovariateSet,
    EmbeddingVector,
    LULCClass,
    ReferencePoint,
    SiteRecord,
    SpectralIndices,
    Stability,
    StabilityKind,
    Strategy,
    YearMap,
    cosine_similarities,
    cosine_similarity,
    parse_strategy,
    validate_embedding,
)
from .cluster import FoldAssignment, KMeansResult, kmeans, spatial_kfold
from .ingest import (Dataset, FilterReport, YearTable, filter_sites, load_dataset,
                     load_embeddings)
from .prediction import FeatureSet, ModelKind, PredictionTaskResult, Task, evaluate
from .projection import ProjectionModel, fit_projection, project, silhouette_score
from .references import (
    OutlierReport,
    ReferenceSet,
    ReferenceYearPolicy,
    build_reference_set,
    classify_stability,
    detect_outliers,
    find_local_reference,
)
from .synthetic import GroundTruth, SynthConfig, generate_world
from .trajectories import (
    BaselineBand,
    ClassTrajectory,
    GroupBy,
    ReferenceKind,
    SimilarityTrajectory,
    aggregate_trajectories,
    build_trajectory,
    classify_trajectory,
    compute_baselines,
    improvement_score,
    spectral_trajectory,
)

__version__ = "0.1.0"
