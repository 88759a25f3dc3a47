"""Concept-space features for cross-lingual text categorization.

Documents in any language are mapped onto a shared space of ontology
concepts via per-language TF-IDF interpreters built from concept support
documents; a linear classifier trained on those features transfers across
languages. Includes hierarchical meta-features, virtual support documents
synthesized from hierarchy ancestors, and an experiment pipeline for the
four cross-lingual training/testing setups.
"""

from .corpus import (
    FilterConfig,
    LabeledDocument,
    SupportArticle,
    filter_articles,
    load_labeled_dataset,
    load_support_corpus,
    tokenize,
)
from .features import (
    BinaryFeatureVector,
    FeatureSpace,
    build_feature_space,
    enrich_with_meta,
    filter_meta_features,
    information_gain,
    project_documents,
    select_features,
)
from .interpreter import (
    SemanticInterpreter,
    build_interpreter,
    generate_basic_features,
    interpret,
    top_k_features,
)
from .learner import EvalReport, LinearModel, evaluate, predict, train
from .ontology import (
    Hierarchy,
    SupportIndex,
    ancestors,
    merge_hierarchies,
    retained_concepts,
    support_multiset,
)
from .pipeline import ExperimentConfig, Hyperparams, ablation, run_experiment, run_seeds
from .synth import SyntheticCorpusSpec, generate_synthetic_corpus
from .virtualdocs import (
    TermCountTable,
    construct_virtual_document,
    find_ancestor_depth,
    prominent_terms,
)

__version__ = "0.1.0"
