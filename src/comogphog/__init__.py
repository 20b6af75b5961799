"""Alignment-free protein structure similarity.

CA distance matrices rendered as grayscale images, brought to a fixed
128x128 working size, and summarized by oriented-gradient statistics: a
16x16 orientation co-occurrence block plus quad-tree orientation
histograms.  Every structure becomes a 1024-entry descriptor, so comparing
two structures is a single Euclidean distance, independent of their sizes.
"""

from .distmat import distance_matrix, to_gray
from .evalstats import (
    PairScores,
    Polarity,
    auc,
    mcc_curve,
    pvalue_curve,
    read_score_file,
    roc_curve,
    score_pairs,
    write_curve_csv,
)
from .featuredb import (
    FeatureStore,
    ingest_dir,
    load_store,
    save_store,
)
from .features import (
    FEATURE_LENGTH,
    MAX_RESIDUES,
    FeatureConfig,
    FeatureVector,
    QuantizedOrientations,
    TooManyResiduesError,
    comograd,
    extract_features,
    phog,
    quantize_orientations,
)
from .imageops import (
    GradientField,
    gradient_field,
    haar_downsample,
    normalize_size,
)
from .scoring import score, search
from .structure_io import (
    CaTrace,
    ScopLabel,
    parse_scop_label,
    parse_structure,
    read_label_table,
)

__version__ = "0.1.0"

__all__ = [
    "CaTrace",
    "FEATURE_LENGTH",
    "FeatureConfig",
    "FeatureStore",
    "FeatureVector",
    "GradientField",
    "MAX_RESIDUES",
    "PairScores",
    "Polarity",
    "QuantizedOrientations",
    "ScopLabel",
    "TooManyResiduesError",
    "auc",
    "comograd",
    "distance_matrix",
    "extract_features",
    "gradient_field",
    "haar_downsample",
    "ingest_dir",
    "load_store",
    "mcc_curve",
    "normalize_size",
    "parse_scop_label",
    "parse_structure",
    "phog",
    "pvalue_curve",
    "quantize_orientations",
    "read_label_table",
    "read_score_file",
    "roc_curve",
    "save_store",
    "score",
    "score_pairs",
    "search",
    "to_gray",
    "write_curve_csv",
]
