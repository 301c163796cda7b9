"""Benchmark harness for summarizability processing in XML data warehouses.

Generates XML warehouses whose dimension hierarchies scale in complexity
(incomplete, non-strict, or both), runs a group-by workload over them under
two summarizability strategies (static preprocessing versus query-time
resolution), and reports response-time and aggregation-correctness metrics.
"""

from .engine_pedersen import (
    TransformReport,
    make_covering,
    make_strict,
    transform_warehouse,
)
from .engine_qbs import OTHER, component_label
from .errors import (
    BenchmarkError,
    ConfigurationError,
    DocumentError,
    EligibilityError,
    QueryError,
    ReferentialError,
    StructuralError,
)
from .generator import (
    GeneratorConfig,
    gen_complex,
    gen_incomplete,
    gen_nonstrict,
    generate_warehouse,
    select_targets,
)
from .harness import (
    CorrectnessReport,
    DatasetSpec,
    RunReport,
    check_correctness,
    cubes_match,
    oracle_cube,
    qbs_view_of_pedersen,
    run_campaign,
    standard_matrix,
)
from .model import (
    DimensionInstance,
    DimensionSchema,
    DwModel,
    FactRecord,
    HierarchyKind,
    Warehouse,
    classify_instance,
    default_model,
)
from .workload import (
    Query,
    QueryTiming,
    ResultCube,
    aggregate_step,
    load_workload,
    parse_workload,
    run_query,
    standard_workload,
)
from .xmlio import read_metadata, write_metadata

__version__ = "0.1.0"

__all__ = [
    "BenchmarkError", "ConfigurationError", "CorrectnessReport",
    "DatasetSpec", "DimensionInstance", "DimensionSchema", "DocumentError",
    "DwModel", "EligibilityError", "FactRecord", "GeneratorConfig",
    "HierarchyKind", "OTHER", "Query",
    "QueryError", "QueryTiming", "ReferentialError", "ResultCube", "RunReport",
    "StructuralError", "TransformReport", "Warehouse",
    "aggregate_step", "check_correctness", "classify_instance", "component_label",
    "cubes_match", "default_model", "gen_complex", "gen_incomplete",
    "gen_nonstrict", "generate_warehouse", "load_workload", "parse_workload",
    "make_covering", "make_strict", "oracle_cube", "qbs_view_of_pedersen",
    "read_metadata", "run_campaign", "run_query", "select_targets",
    "standard_matrix", "standard_workload", "transform_warehouse",
    "write_metadata",
]
