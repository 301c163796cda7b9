"""Exception types shared across the benchmark package."""


class BenchmarkError(Exception):
    """Base class for all benchmark-specific failures."""


class ConfigurationError(BenchmarkError):
    """Invalid generator configuration, or an engine/warehouse mismatch."""


class StructuralError(BenchmarkError):
    """A dimension instance does not conform to its schema."""


class EligibilityError(BenchmarkError):
    """Non-strict generation requested on a dimension that forbids it."""


class DocumentError(BenchmarkError):
    """A warehouse document is malformed or violates the expected grammar."""


class ReferentialError(BenchmarkError):
    """A fact references a dimension instance that does not exist."""


class QueryError(BenchmarkError):
    """A query references unknown dimensions, levels, or measures."""
