import comogphog

PUBLIC_NAMES = [
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


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 36
    assert sorted(comogphog.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in comogphog.__all__:
        assert hasattr(comogphog, name), name
