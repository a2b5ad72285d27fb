"""Video container forensics from box structure alone.

Parse an ISO base media file into its atom tree, convert the tree to a
symbol multiset, filter symbols by class-discriminative log-likelihood
ratio, and classify the file's processing history with an explainable
decision tree.
"""

from .bmff import (
    AtomNode,
    BoxHeader,
    ContainerTree,
    decode_known_box,
    dump_tree,
    parse_container,
    parse_file,
)
from .errors import BoxtraceError, DataError, ParseError
from .evaluate import (
    DatasetManifest,
    EvaluationReport,
    Scenario,
    balanced_accuracy,
    derive_labels,
    get_scenario,
    load_manifest,
    lodo_folds,
    run_scenario,
)
from .fixtures import DeviceProfile, FixtureSpec, generate_corpus
from .llr import (
    ClassFrequencyTable,
    FilterConfig,
    LLRReport,
    class_frequency,
    filter_vocabulary,
    llr,
)
from .modelfile import (
    ModelFile,
    classify_tree,
    dumps_model,
    load_model,
    loads_model,
    save_model,
    train_model,
)
from .symbols import default_blacklist, dump_symbols, extract_symbols
from .tree import (
    DecisionTreeModel,
    SplitCandidate,
    TreeNode,
    TreeParams,
    best_split,
    compute_class_weights,
    decision_path,
    gini,
    grow,
    predict,
    prune,
    replay_path,
    to_dot,
    train_tree,
)
from .vectorize import FeatureVector, Vocabulary, build_vocabulary, vectorize

__version__ = "0.1.0"
