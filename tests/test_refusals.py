"""One corpus of refused inputs, each run through every entry point it reaches.

A row is one bad input: an edit of the single-sale reference warehouse, or
the text of a workload or of a campaign matrix (a surrogate escape stands
for a byte that is not UTF-8).  For each entry point the row gives the
outcome: OK, or the error class and the whole message, less the input's
directory, so a row giving two entry points one message pins that they
refuse alike.  run_cell records the message in its row, and the CLI prints
it on one line and exits 2: both keep the message alone, so for them the
class goes unchecked.  What each entry point reads is in the README, "What
each entry point refuses".  The reference warehouse carries no stamp, so
a row where `run --query D1` answers a bad part, customer or supplier
document pins that a stampless warehouse, too, is read per query.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import edit, reference_sale_warehouse
from xwbench import xmlio
from xwbench.cli import main
from xwbench.engine_pedersen import transform_warehouse
from xwbench.errors import (BenchmarkError, ConfigurationError, DocumentError, QueryError,
                            ReferentialError)
from xwbench.harness import (CHECK_COLUMNS, REPORT_COLUMNS, DatasetSpec, load_matrix,
                             oracle_cube, run_campaign, run_cell)
from xwbench.workload import get_query, load_workload, plan_query

OK = None
METADATA, FACTS = xmlio.METADATA_FILE, "f_sale.xml"
WORKLOAD_FILE, MATRIX_FILE = "x.workload", "m.json"


# --- entry points -------------------------------------------------------------
# Each takes the row's directory and refuses by raising, or returns the
# message a cell recorded or the CLI printed (a str), or answers (any other).


def _plan(query_id, engine="qbs"):
    return lambda home: plan_query(get_query(query_id), home, engine)


def _recorded(home, engine, query):
    """The error a cell records, its checks then reading ERR; None if they pass."""
    report = run_cell(DatasetSpec("row", 1), home, engine, query, "hash", repeats=1, warmup=0)
    checks = {report.row()[REPORT_COLUMNS.index(col)] for col in CHECK_COLUMNS}
    assert checks == ({"1"} if report.error is None else {"ERR"})
    return report.error


def _cli(*argv, query=""):
    """`xwbench argv`, {home} standing for the row's directory: None on exit
    0, the one line printed on exit 2, less its command and query prefix."""
    def call(home):
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([arg.format(home=home) for arg in argv])
        err = err.getvalue()
        if code == 0 and not err:
            return None
        assert code == 2 and err.count("\n") == 1 and err.endswith("\n"), (code, err)
        return err[:-1].removeprefix(f"xwbench {argv[0]}: ").removeprefix(f"{query}: ")
    return call


def _workload_query(home):
    (query,) = load_workload(os.path.join(home, WORKLOAD_FILE))
    return query


ENTRY_POINTS = {
    # an edit of the reference warehouse
    "plan_D1": _plan("D1"),
    "plan_D4": _plan("D4"),
    "plan_Q21": _plan("Q21"),
    "oracle_D1": lambda home: oracle_cube(home, get_query("D1")),
    "oracle_D4": lambda home: oracle_cube(home, get_query("D4")),
    "transform": lambda home: transform_warehouse(home, home + "-pedersen"),
    "cli_transform": _cli("transform", "--in", "{home}", "--out", "{home}-cli"),
    "read": xmlio.read_warehouse,
    "cell_D4": lambda home: _recorded(home, "qbs", get_query("D4")),
    "cli_run_D1": _cli("run", "--in", "{home}", "--query", "D1", "--strict", query="D1"),
    "cli_oracle_D1": _cli("oracle", "--in", "{home}", "--query", "D1"),
    # the same under pedersen
    "pedersen_D4": _plan("D4", "pedersen"),
    "pedersen_Q21": _plan("Q21", "pedersen"),
    "pedersen_cell_D4": lambda home: _recorded(home, "pedersen", get_query("D4")),
    "cli_pedersen_D4": _cli("run", "--in", "{home}", "--engine", "pedersen", "--query", "D4",
                            "--strict", query="D4"),
    # a workload file in the reference warehouse's directory, holding query X
    "workload": lambda home: load_workload(os.path.join(home, WORKLOAD_FILE)),
    "plan_X": lambda home: plan_query(_workload_query(home), home),
    "oracle_X": lambda home: oracle_cube(home, _workload_query(home)),
    "cell_X": lambda home: _recorded(home, "qbs", _workload_query(home)),
    "cli_run_X": _cli("run", "--in", "{home}", "--workload", f"{{home}}/{WORKLOAD_FILE}",
                      "--strict", query="X"),
    # a campaign matrix file, alone in its directory
    "campaign": lambda home: run_campaign(load_matrix(os.path.join(home, MATRIX_FILE)),
                                          os.path.join(home, "r.csv")),
    "cli_campaign": _cli("campaign", "--matrix", f"{{home}}/{MATRIX_FILE}",
                         "--report", "{home}/r.csv"),
}
WAREHOUSE_COLUMNS = ("plan_D1", "plan_D4", "plan_Q21", "oracle_D1", "oracle_D4", "transform",
                     "cli_transform", "read", "cell_D4", "cli_run_D1", "cli_oracle_D1")

# Entry points that read no dimension document but d_date.xml.
D1_ALONE = ("plan_D1", "cli_run_D1")
# Entry points that read no sale: they copy f_sale.xml.
TRANSFORMS = ("transform", "cli_transform")
# Entry points that join no part, customer or supplier reference.
UNJOINED = (*D1_ALONE, "oracle_D1", "cli_oracle_D1", *TRANSFORMS, "read")
# Stated only by the unedited row and by rows about untransformed input.
PEDERSEN_COLUMNS = ("pedersen_D4", "pedersen_Q21", "pedersen_cell_D4", "cli_pedersen_D4")
# Per document, the entry points that answer whatever it holds; D1_ALONE
# for the other dimension documents.
UNREAD = {METADATA: (), "d_date.xml": (), FACTS: TRANSFORMS}


# --- rows -----------------------------------------------------------------------
# A row's parameter writes its input under a directory and returns the
# outcome it expects of each entry point.


def _write_reference(home):
    xmlio.write_warehouse(reference_sale_warehouse(), home)


def sub(document, old, new):
    """An edit of one document: `old`, a str or a compiled pattern, to `new`."""
    return lambda home: edit(os.path.join(home, document), old, new)


def remove(document, then=lambda path: None):
    """The document gone, then `then` called on its path."""
    def change(home):
        os.remove(os.path.join(home, document))
        then(os.path.join(home, document))
    return change


def _outcomes(fails, ok=(), **columns):
    return {**{col: OK if col in ok else fails for col in WAREHOUSE_COLUMNS}, **columns}


def warehouse(row_id, *edits, fails=OK, ok=(), **columns):
    """The reference warehouse after `edits`: every entry point but those
    in `ok` and `columns` refuses it as `fails` says."""
    def setup(home):
        _write_reference(home)
        for change in edits:
            change(home)
        return _outcomes(fails, ok, **columns)
    return pytest.param(setup, id=row_id)


def at_line(row_id, document, old, new, line, problem=None):
    """An edit of `document` refused at `line`, naming the problem and the
    line's text: by default, the line is not in the written form, or, in a
    sale or an instance, one the writers write but not in their order."""
    def setup(home):
        _write_reference(home)
        text, edited = edit(os.path.join(home, document), old, new)
        found = edited.split("\n")[line - 1]
        said = problem or ("lines not in the written order"
                           if document != METADATA and found in text.split("\n")
                           else "not in the written form")
        fails = (DocumentError, f"{document}: line {line}: {said}"
                                + (f": {found!r}" if found else ""))
        return _outcomes(fails, UNREAD.get(document, D1_ALONE))
    return pytest.param(setup, id=row_id)


def workload(row_id, text, fails, parsed=False):
    """A workload file beside the reference warehouse, holding query X: its
    reader refuses it, and X's entry points are never reached, or, `parsed`,
    they refuse X."""
    def setup(home):
        _write_reference(home)
        pathlib.Path(home, WORKLOAD_FILE).write_text(text, "utf-8", "surrogateescape")
        reached = ("plan_X", "oracle_X", "cell_X", "cli_run_X") if parsed else ("cli_run_X",)
        return {"workload": OK if parsed else fails, **dict.fromkeys(reached, fails)}
    return pytest.param(setup, id=row_id)


BASE_MATRIX = {"datasets": [{"id": "ok", "facts": 10}], "engines": ["qbs"],
               "queries": ["D1"], "repeats": 1, "warmup": 0}


def matrix(row_id, change, message):
    """A campaign matrix: `change` over BASE_MATRIX, or the file's whole
    text.  Both entry points refuse it with ConfigurationError, and write
    nothing in its directory or the working one, where datasets would go."""
    def setup(home):
        os.mkdir(home)
        pathlib.Path(home, MATRIX_FILE).write_text(
            change if isinstance(change, str) else json.dumps({**BASE_MATRIX, **change}),
            "utf-8", "surrogateescape")
        return dict.fromkeys(("campaign", "cli_campaign"), (ConfigurationError, message))
    return pytest.param(setup, id=row_id)


def _bad(**spec):
    """A matrix change adding the dataset `spec` to a good one."""
    return {"datasets": [{"id": "ok", "facts": 10}, {"id": "bad", **spec}]}


QUANTITY = "<f_quantity>100</f_quantity>"
AMOUNT = "<f_totalamount>2800.00</f_totalamount>"
DATE_REF = "<dimref dim='date' idref='date#1'/>"
PART_REF = "idref='part#1'"
FRENCH_ROW, GERMAN_ROW = (f"    <row>\n      <nation>{nation}</nation>\n"
                          "      <region>EUROPE</region>\n    </row>\n"
                          for nation in ("FRANCE", "GERMANY"))
BEYOND_64_BITS = (DocumentError, "f_sale.xml: sale 'sale#1' holds a number beyond 64 bits")
EMPTY_CHAIN = "dimension 'part' has levels (), not one or more XML names"


def _raw(row_id, change, instance, level):
    """Raw data grouped by `level` under pedersen: its plan and its cell
    refuse the warehouse, naming the instance, and Q21, grouping no level,
    answers.  Every qbs entry point answers it."""
    refused = (ConfigurationError, f"instance {instance!r} is not one row holding {level!r}; "
                                   "this warehouse is not the output of transform_warehouse")
    return warehouse(row_id, change,
                     **dict.fromkeys(PEDERSEN_COLUMNS, refused) | {"pedersen_Q21": OK})


def _dangling(ref, dim):
    return ReferentialError, f"f_sale.xml: dangling dimref {ref!r} for dimension {dim!r}"


def _malformed(ref, dim="part"):
    """`ref`, no ordinal as written, in place of `dim#1`: refused alike
    wherever `dim` is joined."""
    return warehouse(ref, sub(FACTS, f"idref='{dim}#1'", f"idref='{ref}'"),
                     fails=_dangling(ref, dim), ok=UNJOINED)


def _missing(ref, dim="part"):
    """`ref`, past the instance count, in place of `dim#1`: refused wherever
    `dim` is joined, by the engines and the oracle in their own words."""
    date = dim == "date"
    return warehouse(
        ref, sub(FACTS, f"idref='{dim}#1'", f"idref='{ref}'"),
        fails=(ReferentialError, f"f_sale.xml: sale 1 references missing instance {ref!r}"),
        ok=(*TRANSFORMS, "read") if date else UNJOINED,
        **dict.fromkeys(("oracle_D1", "cli_oracle_D1", "oracle_D4") if date else ("oracle_D4",),
                        _dangling(ref, dim)))


CORPUS = [
    warehouse("unedited", **dict.fromkeys(PEDERSEN_COLUMNS, OK)),

    # The metadata: every entry point reads it first.
    warehouse("no-directory", shutil.rmtree,
              fails=(DocumentError, "dw-model.xml: missing document")),
    warehouse("metadata-a-directory", remove(METADATA, os.mkdir),
              fails=(DocumentError, "dw-model.xml: cannot read: Is a directory")),
    *[at_line(f"metadata-{row_id}", METADATA, *edit_at) for row_id, *edit_at in [
        ("id-not-plain", "idref='part'", "idref='a&apos;b'", 4,
         "'a&apos;b' is not a plain attribute value"),
        ("path-not-plain", "path='d_date.xml'", "path='d&#9;date.xml'", 7,
         "'d&#9;date.xml' is not a plain attribute value"),
        ("declared-twice", "idref='supplier'", "idref='customer'", 6,
         "dimension 'customer' declared twice"),
        ("measure-missing", "    <measure id='f_totalamount'/>\n", "", 9,
         "measures must include 'f_quantity' and 'f_totalamount'"),
        ("double-quotes", "id='sale' path='f_sale.xml'", 'id="sale" path="f_sale.xml"', 3),
        ("comment", "<dw-model>\n", "<dw-model>\n  <!-- sales -->\n", 3),
        ("blank-line", "<dw-model>\n", "<dw-model>\n\n", 3),
        ("chain-whitespace", "<nation><region/></nation>", "<nation> <region/> </nation>", 5),
        ("level-attribute", "<type1/>", "<type1 kind='metal'/>", 4,
         "dimension 'part' has levels ('type3', 'type2', \"type1 kind='metal'\"), "
         "not one or more XML names"),
        ("empty-chain", "<type3><type2><type1/></type2></type3>", "", 4, EMPTY_CHAIN),
        ("unclosed-level", "<type1/>", "<type1>", 4),
        ("fact-without-path", " path='f_sale.xml'", "", 3),
        ("trailing-text", "</dw-model>\n", "</dw-model>\n<!-- end -->\n", 12),
        ("no-final-line-end", "</dw-model>\n", "</dw-model>", 11),
        ("truncated", "</fact>\n</dw-model>\n", "</fact>\n", 11, "document ends early"),
        ("cut-in-a-tag", re.compile(r"(?<=<dw-model>\n).*", re.S), "  <fact\n", 3),
        ("not-utf-8", "'d_part.xml'", "'d_p\udcffrt.xml'", 4,
         "'d_p\\udcffrt.xml' is not a plain attribute value"),
    ]],
    # A path the metadata names is read as given, relative to the warehouse.
    warehouse("dimension-path-to-nothing",
              sub(METADATA, "path='d_part.xml'", "path='d_parts.xml'"),
              fails=(DocumentError, "d_parts.xml: missing document"), ok=D1_ALONE),
    warehouse("fact-path-to-nothing", sub(METADATA, "path='f_sale.xml'", "path='f_sales.xml'"),
              fails=(DocumentError, "f_sales.xml: missing document")),
    # No level has a written form, even where the rows would read as written.
    warehouse("empty-chain-and-empty-row",
              sub(METADATA, "<type3><type2><type1/></type2></type3>", ""),
              sub("d_part.xml", re.compile("    <row>.*</row>\n", re.S), "    <row/>\n"),
              fails=(DocumentError, f"dw-model.xml: line 4: {EMPTY_CHAIN}: \"    <dimension "
                                    "idref='part' path='d_part.xml'></dimension>\"")),

    # A dimension document: read by what groups or joins its dimension.
    warehouse("no-d_part", remove("d_part.xml"),
              fails=(DocumentError, "d_part.xml: missing document"), ok=D1_ALONE),
    warehouse("no-d_customer", remove("d_customer.xml"),
              fails=(DocumentError, "d_customer.xml: missing document"), ok=D1_ALONE),
    warehouse("no-d_date", remove("d_date.xml"),
              fails=(DocumentError, "d_date.xml: missing document")),
    warehouse("d_date-a-directory", remove("d_date.xml", os.mkdir),
              fails=(DocumentError, "d_date.xml: cannot read: Is a directory")),
    *[at_line(*row) for row in [
        ("part-out-of-sequence", "d_part.xml", "id='part#1'", "id='part#7'", 3,
         "instance id 'part#7' out of sequence (expected 'part#1')"),
        ("customer-out-of-sequence", "d_customer.xml", "id='customer#1'", "id='customer#2'",
         3, "instance id 'customer#2' out of sequence (expected 'customer#1')"),
        ("raw-apostrophe", "d_part.xml", "LARGE", "LAR'GE", 5),
        ("renamed-dimension", "d_part.xml", "<dimension id='part'>", "<dimension id='parts'>", 2),
        ("undeclared-level", "d_part.xml", "<type2>ANODIZED</type2>", "<color>RED</color>", 6),
        ("mismatched-end-tag", "d_part.xml", "<type3>LARGE</type3>", "<type3>LARGE</type2>", 5),
        ("renamed-root", "d_supplier.xml", "dimension", "dim", 2),
        ("element-in-a-value", "d_customer.xml", "<nation>UNITED STATES</nation>",
         "<nation>UNITED<b/>STATES</nation>", 5),
        # Text holds "'" only as &apos;, the one spelling the writers use.
        ("quotes-in-a-value", "d_customer.xml", "<nation>UNITED STATES</nation>",
         "<nation>UNITED'S \"STATES\"</nation>", 5),
        ("no-row", "d_date.xml", re.compile(r"<row>.*</row>", re.S), "", 4),
        ("instance-without-row", "d_part.xml", re.compile(r"    <row>.*</row>\n", re.S), "", 3),
        ("instance-twice", "d_part.xml", re.compile(r"  <instance.*</instance>\n", re.S),
         r"\g<0>\g<0>", 10, "instance id 'part#1' out of sequence (expected 'part#2')"),
        ("double-quoted-declaration", "d_part.xml", "version='1.0' encoding='UTF-8'",
         'version="1.0" encoding="UTF-8"', 1),
        ("byte-order-mark", "d_part.xml", "<?xml", "\ufeff<?xml", 1),
        ("empty-document", "d_part.xml", re.compile(".+", re.S), "", 1,
         "document ends before '</dimension>'"),
    ]],
    _raw("multi-row-supplier", sub("d_supplier.xml", "  </instance>",
                                   GERMAN_ROW + "  </instance>"), "supplier#1", "nation"),
    _raw("part-without-type3", sub("d_part.xml", "      <type3>LARGE</type3>\n", ""),
         "part#1", "type3"),
    _raw("unreferenced-multi-row-supplier",
         sub("d_supplier.xml", "</dimension>", "  <instance id='supplier#2'>\n" + FRENCH_ROW
             + GERMAN_ROW + "  </instance>\n</dimension>"), "supplier#2", "nation"),

    # A sale: read by every entry point but the transform, which copies it
    # unread; a document it cannot open, it refuses as the readers do.
    warehouse("no-f_sale", remove(FACTS), fails=(DocumentError, "f_sale.xml: missing document")),
    warehouse("f_sale-a-directory", remove(FACTS, os.mkdir),
              fails=(DocumentError, "f_sale.xml: cannot read: Is a directory")),
    *[at_line(row_id, FACTS, *edit_at) for row_id, *edit_at in [
        ("no-end-tag", "</sales>", "", 11, "not in the written form"),
        ("unknown-dimref", "dim='supplier'", "dim='shop'", 8),
        ("missing-dimref", DATE_REF, "", 9),
        ("unparsable-quantity", QUANTITY, "<f_quantity>many</f_quantity>", 4),
        # One spelling per number: no leading zero, as the writers write none.
        ("quantity-leading-zero", QUANTITY, "<f_quantity>0100</f_quantity>", 4),
        ("amount-leading-zero", AMOUNT, "<f_totalamount>02800.00</f_totalamount>", 5),
        ("missing-amount", AMOUNT, "", 5),
        ("nested-quantity", QUANTITY, "<f_quantity><n>100</n></f_quantity>", 4),
        # Measures must be spelled as written, not as int() or float() read.
        *[(f"quantity-{name}", QUANTITY, f"<f_quantity>{q}</f_quantity>", 4)
          for name, q in [("negative", "-5"), ("underscored", "1_000"), ("spaced", " 7 "),
                          ("signed", "+100")]],
        *[(f"amount-{name}", AMOUNT, f"<f_totalamount>{a}</f_totalamount>", 5)
          for name, a in [("nan", "nan"), ("inf", "inf"), ("exponent", "1e3"),
                          ("three-decimals", "2800.000"), ("one-decimal", "2800.0"),
                          ("no-decimals", "2800"), ("negative", "-2800.00")]],
        ("renamed-amount", "f_totalamount>", "f_total>", 5),
        ("repeated-dimref", DATE_REF, DATE_REF * 2, 9),
        ("shop-dimref", DATE_REF, DATE_REF + "<dimref dim='shop' idref='shop#1'/>", 9),
        # A sale is (f_quantity, f_totalamount, dimref+): a measure read twice
        # or after a dimref is not silently taken.
        ("repeated-quantity", QUANTITY, QUANTITY + "<f_quantity>7</f_quantity>", 4),
        ("undeclared-child", AMOUNT, AMOUNT + "<foo>1</foo>", 5),
        ("double-quoted-ref", PART_REF, 'idref="part#1"', 6),
        ("escaped-ref", PART_REF, "idref='part#1&amp;'", 6),
        ("unclosed-dimref", "idref='part#1'/>", "idref='part#1'>", 6),
        # Every line is one the writers write, out of order: the error names
        # the sale's first line.
        ("quantity-after-dimrefs",
         re.compile(r"(    <f_quantity>100</f_quantity>\n)(.*)(  </sale>)", re.S), r"\2\1\3", 3),
        ("swapped-measures", f"{QUANTITY}\n    {AMOUNT}", f"{AMOUNT}\n    {QUANTITY}", 3),
        ("measures-after-a-dimref", f"{QUANTITY}\n    {AMOUNT}\n    <dimref dim='part' "
         f"{PART_REF}/>", f"<dimref dim='part' {PART_REF}/>\n    {QUANTITY}\n    {AMOUNT}", 3),
        ("swapped-dimrefs",
         re.compile(r"(    <dimref dim='part'[^\n]*\n)(    <dimref dim='customer'[^\n]*\n)"),
         r"\2\1", 3),
    ]],
    # Numbers beyond a fact column's 64 bits: measures are refused wherever
    # the sales are read, a reference wherever it is joined.
    warehouse("huge-quantity", sub(FACTS, "<f_quantity>100<", "<f_quantity>99999999999999999999<"),
              fails=BEYOND_64_BITS, ok=TRANSFORMS),
    warehouse("amount-of-2**63-cents",
              sub(FACTS, "<f_totalamount>2800.00<", "<f_totalamount>92233720368547758.08<"),
              fails=BEYOND_64_BITS, ok=TRANSFORMS),
    warehouse("huge-ref", sub(FACTS, PART_REF, "idref='part#99999999999999999999'"),
              fails=BEYOND_64_BITS, ok=UNJOINED,
              oracle_D4=_dangling("part#99999999999999999999", "part")),

    # A reference: refused wherever its dimension is joined, and only there.
    *[_missing(ref) for ref in ["part#2", "part#99"]],
    _missing("date#99999", "date"),
    *[_malformed(ref) for ref in ["part#01", "part#+1", "part#1_0", "part# 1", "part#١",
                                  "part#", "part#0"]],
    _malformed("customer#01", "customer"),

    # A query: the workload reader refuses a line it cannot split, the
    # engines and the oracle one the metadata cannot answer, alike.
    *[workload(row_id, f"X {line}\n", (QueryError, message), parsed=True)
      for row_id, line, message in [
          ("unknown-level", "SUM f_quantity part.type9", "dimension 'part' has no level 'type9'"),
          ("level-of-another-dimension", "SUM f_quantity part.nation",
           "dimension 'part' has no level 'nation'"),
          ("unknown-dimension", "SUM f_quantity store.city", "unknown dimension 'store'"),
          ("dimension-twice", "SUM f_quantity part.type3,part.type2",
           "query 'X' groups dimension 'part' twice"),
          ("instance-and-level", "SUM f_quantity part,part.type3",
           "query 'X' groups dimension 'part' twice"),
          ("unknown-aggregate", "MEDIAN f_quantity part.type3", "unknown aggregate 'MEDIAN'"),
          ("unknown-measure", "SUM margin -", "unknown measure 'margin'"),
          ("measure-twice", "SUM f_quantity,f_quantity part.type3",
           "query 'X' selects a measure twice"),
          ("empty-measure", "SUM , part.type3", "unknown measure ''"),
      ]],
    # An aggregate in any case: sum reads as SUM.
    workload("lower-case-aggregate", "X sum f_quantity part.type3\n", OK, parsed=True),
    *[workload(row_id, text, (QueryError, message)) for row_id, text, message in [
        ("three-fields", "X SUM f_quantity\n",
         "workload line needs 4 fields, got 3: 'X SUM f_quantity'"),
        ("five-fields", "X SUM f_quantity - date.day\n",
         "workload line needs 4 fields, got 5: 'X SUM f_quantity - date.day'"),
        ("level-without-dimension", "X SUM f_quantity .day\n",
         "bad grouping token '.day' in line 'X SUM f_quantity .day'"),
        ("trailing-comma", "X SUM f_quantity part.type3,\n",
         "bad grouping token '' in line 'X SUM f_quantity part.type3,'"),
        ("repeated-id", "X SUM f_quantity -\nX SUM f_quantity date.day\n",
         "query id 'X' is used twice in the workload"),
    ]],
    workload("workload-not-utf-8", "X SUM f_quantity date.year\udcff\n",
             (ConfigurationError, f"{WORKLOAD_FILE}: 'utf-8' codec can't decode byte 0xff in "
                                  "position 26: invalid start byte")),

    # A campaign matrix.
    *[matrix(*row) for row in [
        ("dataset-facts", _bad(facts=-1), "fact_number must be >= 0, got -1"),
        ("dataset-id", _bad(id="a/b", facts=10), "dataset id 'a/b' must name one directory"),
        ("dataset-nonstrict-number", _bad(facts=10, nonstrict=50),
         "nonstrict_percentage > 0 requires nonstrict_number >= 2 (a non-strict instance has "
         "at least two rows), got nonstrict_number=0"),
        ("dataset-nonstrict-number-negative", _bad(facts=5, nonstrict_number=-7),
         "nonstrict_number must be >= 0, got -7"),
        ("dataset-unknown-key", _bad(fact=10),
         "bad campaign matrix: DatasetSpec.__init__() got an unexpected keyword argument 'fact'"),
        ("dataset-facts-text", _bad(facts="100"), "fact_number must be an integer, got '100'"),
        ("dataset-incomplete", _bad(facts=10, incomplete=101),
         "incomplete_percentage must be in [0, 100], got 101"),
        ("dataset-nonstrict", _bad(facts=10, nonstrict=-1),
         "nonstrict_percentage must be in [0, 100], got -1"),
        ("dataset-seed", _bad(facts=10, seed=-1),
         "seed must be an unsigned 64-bit integer, got -1"),
        ("dataset-without-id", {"datasets": [{"facts": 10}]},
         "bad campaign matrix: DatasetSpec.__init__() missing 1 required positional argument: "
         "'id'"),
        ("dataset-facts-bool", _bad(facts=True), "fact_number must be an integer, got True"),
        ("dataset-id-number", _bad(id=7, facts=10), "dataset id 7 must name one directory"),
        ("dataset-id-nul", _bad(id="a\0b", facts=10),
         "dataset id 'a\\x00b' must name one directory"),
        ("dataset-seed-float", _bad(facts=10, seed=1.5), "seed must be an integer, got 1.5"),
        ("dataset-nonstrict-number-float", _bad(facts=10, nonstrict=50, nonstrict_number=2.5),
         "nonstrict_number must be an integer, got 2.5"),
        ("repeats", {"repeats": 0}, "repeats must be an integer of at least 1, got 0"),
        ("repeats-text", {"repeats": "two"},
         "repeats must be an integer of at least 1, got 'two'"),
        ("repeats-bool", {"repeats": True}, "repeats must be an integer of at least 1, got True"),
        ("repeats-float", {"repeats": 2.7}, "repeats must be an integer of at least 1, got 2.7"),
        ("repeats-null", {"repeats": None}, "repeats must be an integer of at least 1, got None"),
        ("warmup", {"warmup": -1}, "warmup must be an integer of at least 0, got -1"),
        ("warmup-text", {"warmup": "1"}, "warmup must be an integer of at least 0, got '1'"),
        ("engine", {"engines": ["qbs", "bogus"]}, "unknown engine 'bogus' in the matrix"),
        ("matching", {"matching": ["scan", "bogus"]}, "unknown matching 'bogus' in the matrix"),
        ("query", {"queries": ["D1", "Q99"]}, "unknown query 'Q99' in the matrix"),
        ("queries-number", {"queries": 7}, "query names in the matrix are not a list of strings"),
        ("queries-text", {"queries": "D1"}, "query names in the matrix are not a list of strings"),
        ("engines-text", {"engines": "qbs"},
         "engine names in the matrix are not a list of strings"),
        ("matching-number", {"matching": ["hash", 1]},
         "matching names in the matrix are not a list of strings"),
        ("data-dir-number", {"data_dir": 7}, "data_dir must be a string, got 7"),
        ("misspelt-keys", {"matchings": ["scan"], "query": ["D1"]},
         "unknown keys in the matrix: ['matchings', 'query']"),
        ("not-json", '{"datasets": [', "m.json: Expecting value: line 1 column 15 (char 14)"),
        ("cut-short", '{"datasets": [\n  {"id": "t",\n',
         "m.json: Expecting property name enclosed in double quotes: line 3 column 1 (char 29)"),
        ("not-an-object", "[1, 2]", "m.json: the matrix is not a JSON object"),
        ("matrix-not-utf-8", '{"datasets": [], "x": "\udcff"}',
         "m.json: 'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"),
        ("long-integer", '{"repeats": ' + "1" * 5000 + "}",
         "m.json: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
         "digits; use sys.set_int_max_str_digits() to increase the limit"),
        # Two datasets of one campaign never share a directory: a second `x`
        # would be measured on the first's data, and `x`'s transform would
        # overwrite a dataset `x-pedersen`.
        ("same-dataset-id", {"datasets": [{"id": "x", "facts": 10}, {"id": "x", "facts": 20}]},
         "two datasets of the matrix write to 'x'"),
        ("id-of-a-transform",
         {"datasets": [{"id": "x-pedersen", "facts": 10},
                       {"id": "x", "facts": 20, "incomplete": 50, "nonstrict": 50,
                        "nonstrict_number": 4}], "engines": ["qbs", "pedersen"]},
         "two datasets of the matrix write to 'x-pedersen'"),
        # A name listed twice would run its cells twice, into identical rows.
        ("engine-twice", {"engines": ["qbs", "qbs"]},
         "engine 'qbs' is listed twice in the matrix"),
        ("matching-twice", {"matching": ["hash", "hash"]},
         "matching 'hash' is listed twice in the matrix"),
        ("query-twice", {"queries": ["D1", "D1"]}, "query 'D1' is listed twice in the matrix"),
    ]],
]


def _observe(entry, home):
    try:
        message = entry(home)
    except (BenchmarkError, OSError) as exc:
        return type(exc), str(exc).replace(home + os.sep, "")
    if not isinstance(message, str):
        return OK
    return None, message.replace(home + os.sep, "")


@pytest.mark.parametrize("setup", CORPUS)
def test_each_entry_point_answers_as_its_row_says(tmp_path, monkeypatch, setup):
    monkeypatch.chdir(tmp_path)
    home = str(tmp_path / "home")
    expect = setup(home)
    problems = []
    for column, want in expect.items():
        got = _observe(ENTRY_POINTS[column], home)
        if got != want and got != (None, want and want[1]):
            problems.append(f"{column}: expected {want}, got {got}")
    assert not problems, "\n".join(problems)
    if "campaign" in expect:
        assert os.listdir(home) == [MATRIX_FILE] and os.listdir() == ["home"]
