"""Video container forensics from box structure alone.

Parse an ISO base media file into its atom tree, convert the tree to a
symbol multiset, filter symbols by class-discriminative log-likelihood
ratio, and classify the file's processing history with an explainable
decision tree.

The names below are the pipeline's entry points; everything else is
imported from its module (`boxtrace.tree`, `boxtrace.vectorize`, ...).
"""

from .bmff import parse_container, parse_file
from .errors import BoxtraceError, DataError, ParseError
from .evaluate import get_scenario, load_manifest, run_scenario
from .fixtures import FixtureSpec, generate_corpus
from .modelfile import classify_tree, load_model, save_model, train_model
from .symbols import default_blacklist, extract_symbols

__version__ = "0.1.0"
