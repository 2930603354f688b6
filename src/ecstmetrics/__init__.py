"""ecstmetrics: language-independent source code metrics over enriched
concrete syntax trees.

Source files are parsed into trees whose interior nodes form a small
universal vocabulary (COMPILATION_UNIT, FUNCTION_DECL, LOOP_STATEMENT,
BRANCH_STATEMENT, BRANCH, CONDITION) while every source token survives
as a leaf.  Metrics then run against that vocabulary alone, so the
same algorithms serve every supported language.
"""

from .frontends import parse_file, parse_source
from .metrics import LocBundle, MetricsReport, measure_tree
from .tree import EcstTree, SourceSpan, UniversalKind
from .xmlio import parse_tree_xml, serialize_metrics, serialize_tree

__version__ = "0.1.0"

__all__ = [
    "EcstTree",
    "SourceSpan",
    "UniversalKind",
    "LocBundle",
    "MetricsReport",
    "parse_source",
    "parse_file",
    "measure_tree",
    "serialize_tree",
    "parse_tree_xml",
    "serialize_metrics",
    "__version__",
]
