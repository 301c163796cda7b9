"""Shared fixtures: hand-built reference warehouses and the dataset grids."""

from __future__ import annotations

import pathlib
import re
from collections import Counter

import pytest

from xwbench import xmlio
from xwbench.engine_pedersen import transform_warehouse
from xwbench.harness import DatasetSpec, ensure_dataset, standard_matrix
from xwbench.model import (
    F_QUANTITY,
    F_TOTALAMOUNT,
    DimensionInstance,
    DimensionSchema,
    FactRecord,
    HierarchyKind,
    Warehouse,
    default_model,
)
from xwbench.xmlio import write_warehouse


def edit(path, old, new):
    """Replace `old` (a str, or a compiled pattern) by `new` in the document
    at `path`, which must change, and return the text before and after.  It
    is written back with surrogate escapes, so an edit can leave UTF-8."""
    path = pathlib.Path(path)
    text = path.read_text(encoding="utf-8")
    edited = old.sub(new, text) if isinstance(old, re.Pattern) else text.replace(old, new)
    assert edited != text, f"{old!r} is not in {path.name}"
    path.write_bytes(edited.encode("utf-8", "surrogateescape"))
    return text, edited


def assert_reads_back(in_dir, warehouse):
    """The program's readers read the layout in `in_dir` as `warehouse`: the
    metadata, every dimension's full rows (load_dimensions), each sale's
    measures and reference ordinals (load_facts) and its id (iter_facts'
    text column), all in document order."""
    model = xmlio.read_metadata(in_dir)
    assert model == warehouse.model
    assert xmlio.load_dimensions(in_dir, model, dict.fromkeys(model.dimension_ids)) \
        == warehouse.instances
    facts = warehouse.facts
    columns = xmlio.load_facts(in_dir, model, model.dimension_ids)
    assert list(columns.measures[F_QUANTITY]) == [fact.f_quantity for fact in facts]
    assert list(columns.measures[F_TOTALAMOUNT]) == [fact.f_totalamount for fact in facts]
    for dim_id, ordinals in columns.ordinals.items():
        assert list(ordinals) == [int(fact.dim_refs[dim_id].removeprefix(f"{dim_id}#"))
                                  for fact in facts], dim_id
    assert [sale_id for chunk in xmlio.iter_facts(in_dir, model) for sale_id in chunk[0]] \
        == [fact.fact_id for fact in facts]


def make_instance(dim: str, rows: list[dict[str, str]], ordinal: int = 1) -> DimensionInstance:
    return DimensionInstance(f"{dim}#{ordinal}", tuple(dict(r) for r in rows))


def instance_kind(inst: DimensionInstance, schema: DimensionSchema) -> HierarchyKind:
    """An instance's regime by the one rule, HierarchyKind.of: several rows
    make it non-strict, a hole makes it incomplete."""
    return HierarchyKind.of(len(inst.rows) > 1, inst.has_absent_cell(schema))


def all_instances(warehouse: Warehouse) -> list[tuple[DimensionSchema, DimensionInstance]]:
    """Each (schema, instance) of `warehouse`, dimension by dimension, in
    document order."""
    return [(schema, inst) for schema in warehouse.model.dimensions
            for inst in warehouse.instances[schema.id]]


def single_sale_warehouse(part_rows, customer_rows, supplier_rows, date_rows,
                          quantity=100, amount=280000) -> Warehouse:
    model = default_model()
    instances = {
        "part": [make_instance("part", part_rows)],
        "customer": [make_instance("customer", customer_rows)],
        "supplier": [make_instance("supplier", supplier_rows)],
        "date": [make_instance("date", date_rows)],
    }
    fact = FactRecord("sale#1", quantity, amount,
                      {d: f"{d}#1" for d in model.dimension_ids})
    return Warehouse(model, [fact], instances)


def reference_sale_warehouse() -> Warehouse:
    """The running example: customer from the USA bought 100 parts costing
    2,800 from a supplier located in France, Europe, on 1998-06-25."""
    return single_sale_warehouse(
        part_rows=[{"type3": "LARGE", "type2": "ANODIZED", "type1": "TIN"}],
        customer_rows=[{"nation": "UNITED STATES", "region": "AMERICA"}],
        supplier_rows=[{"nation": "FRANCE", "region": "EUROPE"}],
        date_rows=[{"day": "1998-06-25", "month": "1998-06", "year": "1998"}],
    )


# A 4-row supplier array: two suppliers, each with branches in France and
# Germany; fusing or resolving its nation must yield only {FRANCE, GERMANY}.
FOUR_ROW_SUPPLIER = [
    {"nation": "FRANCE", "region": "EUROPE"},
    {"nation": "GERMANY", "region": "EUROPE"},
    {"nation": "FRANCE", "region": "EUROPE"},
    {"nation": "GERMANY", "region": "EUROPE"},
]

# A 4-row supplier array spanning two regions, with one region and one
# nation value deleted: the canonical complex instance.
COMPLEX_SUPPLIER = [
    {"nation": "FRANCE"},
    {"nation": "GERMANY", "region": "EUROPE"},
    {"region": "ASIA"},
    {"nation": "INDIA", "region": "ASIA"},
]


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture()
def reference_dir(tmp_path):
    """The single-sale reference warehouse written to disk."""
    warehouse = reference_sale_warehouse()
    out = tmp_path / "reference"
    write_warehouse(warehouse, str(out))
    return str(out)


@pytest.fixture()
def parse_counts(monkeypatch):
    """Counts xmlio.iter_instances calls per dimension, xmlio.iter_facts
    calls under "facts" and xmlio.read_metadata calls under "metadata",
    while the test runs."""
    parses = Counter()
    real_instances, real_facts = xmlio.iter_instances, xmlio.iter_facts
    real_metadata = xmlio.read_metadata

    def counting_instances(in_dir, schema, keep=None):
        parses[schema.id] += 1
        return real_instances(in_dir, schema, keep)

    def counting_facts(in_dir, model, dim_ids=None):
        parses["facts"] += 1
        return real_facts(in_dir, model, dim_ids)

    def counting_metadata(in_dir):
        parses["metadata"] += 1
        return real_metadata(in_dir)

    monkeypatch.setattr(xmlio, "iter_instances", counting_instances)
    monkeypatch.setattr(xmlio, "iter_facts", counting_facts)
    monkeypatch.setattr(xmlio, "read_metadata", counting_metadata)
    return parses


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("datasets"))


@pytest.fixture(scope="session")
def grid_1k(data_root):
    """The seven-regime grid at 1,000 facts: {dataset id: (spec, dir)}."""
    return {spec.id: (spec, ensure_dataset(spec, data_root))
            for spec in standard_matrix(facts=1000, seed=42)}


@pytest.fixture(scope="session")
def pedersen_1k(grid_1k):
    """Transformed twins of the grid: {dataset id: (dir, TransformReport)}."""
    out = {}
    for dataset_id, (spec, d) in grid_1k.items():
        out[dataset_id] = (d + "-pedersen", transform_warehouse(d, d + "-pedersen"))
    return out


@pytest.fixture(scope="session")
def complex_300(data_root):
    """A small complex warehouse with its generation log, for unit tests."""
    spec = DatasetSpec("complex50-300", 300, incomplete=50, nonstrict=50,
                       nonstrict_number=4, seed=7)
    from xwbench.generator import generate_warehouse

    out_dir = f"{data_root}/{spec.id}"
    warehouse = generate_warehouse(spec.config(out_dir))
    return spec, out_dir, warehouse
