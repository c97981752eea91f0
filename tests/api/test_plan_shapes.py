"""Golden ``explain()`` texts and results, one per stage shape.

Each shape is a query over the same table; its optimized plan, its logical
plan and a digest of its result (row count, each column's dtype and a hash
of its bytes, each scalar's type and repr) are pinned as text, so a change
to how plans are built, rewritten or executed that moves any of them shows
here, not as a drift in some benchmark cell.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Dataset, col, count, dataset, lit
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture(scope="module")
def lineitem():
    rng = np.random.default_rng(42)
    n = 20_000
    data = {
        "ship_date": np.sort(rng.integers(0, 500, n)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, n)) + 10_000).astype(np.int64),
        "quantity": rng.integers(1, 64, n).astype(np.int64),
        "discount": rng.integers(0, 8, n).astype(np.int64),
        "weight": rng.normal(10.0, 2.0, n),
    }
    table = Table.from_pydict(
        data,
        schemes={
            "ship_date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=128),
            "quantity": NullSuppression(),
            "discount": DictionaryEncoding(),
        },
        chunk_size=2048,
    )
    return dataset(table, "lineitem")


SHAPES = {

    "residual filter above an aggregate": lambda ds: (
        ds.filter(col("ship_date") < 250).group_by("discount")
        .agg(col("quantity").sum().alias("q"), count())
        .filter((col("q") > 1000) & (col("discount") >= 2))),
    "filter blocked above a limit": lambda ds: (
        ds.select("price", "quantity").limit(500).filter(col("quantity") > 30)),
    "false constant through a limit": lambda ds: (
        ds.select("quantity").limit(3).filter((lit(1) > 2) & (col("quantity") >= 0))),
    "select below sort": lambda ds: (
        ds.filter(col("discount") == 3).sort("price", descending=True)
        .select("price", "discount")),
    "select held above sort": lambda ds: ds.sort("quantity").select("price"),
    "selects below two sorts": lambda ds: (
        ds.sort("quantity").select("quantity", "discount", "price")
        .sort("discount").select("discount", "quantity")),
    "top-k": lambda ds: (
        ds.with_column("revenue", col("price") * col("quantity"))
        .sort("revenue", descending=True).limit(5).select("revenue", "ship_date")),
    "sort on two keys then limit": lambda ds: (
        ds.select("discount", "quantity").sort("discount", "quantity", descending=[True, False])
        .limit(9)),
    "with_column, select, group_by": lambda ds: (
        ds.with_column("revenue", col("price") * col("quantity"))
        .select("revenue", (col("discount") % 4).alias("d4"))
        .group_by("d4").agg(col("revenue").sum().alias("total"), col("revenue").max())),
    "with_column above a limit": lambda ds: (
        ds.limit(100).with_column("x", col("quantity") * col("discount"))
        .filter(col("x") > 20).select("x")),
    "aggregate that materialises": lambda ds: (
        ds.filter(col("quantity") > 8).agg(col("weight").sum().alias("w"), col("price").mean())),
    "aggregate over an aggregate": lambda ds: (
        ds.group_by("discount").agg(count().alias("n"))
        .group_by((col("n") > 2500).alias("big")).agg(col("discount").max())),
    "aggregate over a top-k": lambda ds: (
        ds.sort("price", descending=True).limit(10).agg(col("quantity").sum())),
    "always-empty scan": lambda ds: (
        ds.filter((lit(1) > 2) & (col("quantity") >= 0)).select("quantity", "price")
        .sort("price")),
    "from_result chain": lambda ds: (
        Dataset.from_result(
            ds.filter(col("ship_date") < 200).select("discount", "price").collect(), "first")
        .filter(col("discount") >= 4).group_by("discount").agg(col("price").sum())),
    "the README query": lambda ds: (
        ds.filter(col("ship_date").between(100, 400)
                  & ((col("quantity") > 30) | ~col("discount").isin([0, 1])))
        .with_column("revenue", col("price") * col("quantity"))
        .group_by("discount")
        .agg(col("revenue").sum().alias("total"), count())
        .sort("total", descending=True)
        .limit(5)
        .with_backend("process", workers=4)),
    "from_result of a grouped result": lambda ds: (
        Dataset.from_result(
            ds.group_by("discount").agg(col("quantity").sum().alias("q")).collect(), "groups")
        .filter(col("q") > 40_000).select((col("q") // 1000).alias("kq"), "discount")
        .sort("kq")),
}


#: shape -> (optimized explain(), logical explain(), result digest)
GOLDEN = {
    'residual filter above an aggregate': (
        'Filter((q > 1000))\n'
        '  Aggregate(keys=[discount])\n'
        '    agg group by discount [compressed]\n'
        '    agg q [compressed]\n'
        '    agg count(*) [compressed]\n'
        '    Scan(lineitem: 20000 rows, materialize=[discount, quantity]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '      note: projection pruned to 2 of 5 base columns\n'
        '      where (ship_date < 250)  [native, compressed, est. sel 0.504]\n'
        '      where (discount >= 2)  [native, compressed, est. sel 0.750]',
        'Filter(((q > 1000) AND (discount >= 2)))\n'
        '  Aggregate(keys=[discount])\n'
        '    Filter((ship_date < 250))\n'
        '      Scan(lineitem)',
        (6, {'discount': ('int64', 'bbbbfb83b9b651dd'), 'q': ('int64', '225a6baaae6b891c'), 'count(*)': ('int64', '9a6336a84c31599f')}, {})),
    'filter blocked above a limit': (
        'Filter((quantity > 30))\n'
        '  Limit(500)\n'
        '    Scan(lineitem: 20000 rows, materialize=[price, quantity]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '      note: projection pruned to 2 of 5 base columns',
        'Filter((quantity > 30))\n'
        '  Limit(500)\n'
        '    Project(price, quantity)\n'
        '      Scan(lineitem)',
        (271, {'price': ('int64', 'b04c5fc2be6f873d'), 'quantity': ('int64', '527f4cdeb1132395')}, {})),
    'false constant through a limit': (
        'Filter((quantity >= 0))\n'
        '  Limit(3)\n'
        '    Scan(lineitem: 20000 rows, materialize=[quantity]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '      note: constant conjunct (1 > 2) is false — scan folded to empty\n'
        '      note: projection pruned to 1 of 5 base columns',
        'Filter(((1 > 2) AND (quantity >= 0)))\n'
        '  Limit(3)\n'
        '    Project(quantity)\n'
        '      Scan(lineitem)',
        (0, {'quantity': ('int64', 'e3b0c44298fc1c14')}, {})),
    'select below sort': (
        'Sort(price DESC)\n'
        '  Scan(lineitem: 20000 rows, materialize=[price, discount]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '    note: projection pruned to 2 of 5 base columns\n'
        '    where (discount == 3)  [native, compressed, est. sel 0.125]',
        'Project(price, discount)\n'
        '  Sort(price DESC)\n'
        '    Filter((discount == 3))\n'
        '      Scan(lineitem)',
        (2470, {'price': ('int64', '107426863d6556ad'), 'discount': ('int64', '30c6090bebddb619')}, {})),
    'select held above sort': (
        'Project(price)\n'
        '  Sort(quantity)\n'
        '    Scan(lineitem: 20000 rows, materialize=[price, quantity]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '      note: projection pruned to 2 of 5 base columns',
        'Project(price)\n'
        '  Sort(quantity)\n'
        '    Scan(lineitem)',
        (20000, {'price': ('int64', 'e5653f3d2d9814e1')}, {})),
    'selects below two sorts': (
        'Sort(discount)\n'
        '  Project(discount, quantity)\n'
        '    Sort(quantity)\n'
        '      Scan(lineitem: 20000 rows, materialize=[discount, quantity]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '        note: projection pruned to 2 of 5 base columns',
        'Project(discount, quantity)\n'
        '  Sort(discount)\n'
        '    Project(quantity, discount, price)\n'
        '      Sort(quantity)\n'
        '        Scan(lineitem)',
        (20000, {'discount': ('int64', 'c84cb116da0af23d'), 'quantity': ('int64', '7031be2e91252ca2')}, {})),
    'top-k': (
        'Project(revenue, ship_date)\n'
        '  Limit(5)\n'
        '    Sort(revenue DESC)\n'
        '      Scan(lineitem: 20000 rows, materialize=[ship_date]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '        note: projection pruned to 1 of 5 base columns\n'
        '        derive revenue = (price * quantity)',
        'Project(revenue, ship_date)\n'
        '  Limit(5)\n'
        '    Sort(revenue DESC)\n'
        '      WithColumn(revenue = (price * quantity))\n'
        '        Scan(lineitem)',
        (5, {'revenue': ('int64', '3796f392dd2a4c3b'), 'ship_date': ('int64', 'cf97abf90dd6482e')}, {})),
    'sort on two keys then limit': (
        'Limit(9)\n'
        '  Sort(discount DESC, quantity)\n'
        '    Scan(lineitem: 20000 rows, materialize=[discount, quantity]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '      note: projection pruned to 2 of 5 base columns',
        'Limit(9)\n'
        '  Sort(discount DESC, quantity)\n'
        '    Project(discount, quantity)\n'
        '      Scan(lineitem)',
        (9, {'discount': ('int64', 'b01a9e00224b695b'), 'quantity': ('int64', 'df070c0849900928')}, {})),
    'with_column, select, group_by': (
        'Aggregate(keys=[d4])\n'
        '  agg group by d4 [decompress]\n'
        '  agg total [decompress]\n'
        '  agg max(revenue) [decompress]\n'
        '  Scan(lineitem: 20000 rows, materialize=[]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '    note: projection pruned to 0 of 5 base columns\n'
        '    derive d4 = (discount % 4)\n'
        '    derive revenue = (price * quantity)',
        'Aggregate(keys=[d4])\n'
        '  Project(revenue, d4)\n'
        '    WithColumn(revenue = (price * quantity))\n'
        '      Scan(lineitem)',
        (20000, {'d4': ('int64', 'a1e03200f1f82ad2'), 'total': ('int64', '11bce9d78e289852'), 'max(revenue)': ('int64', '9b22ff8c223c6bac')}, {})),
    'with_column above a limit': (
        'Project(x)\n'
        '  WithColumn(x = (quantity * discount))\n'
        '    Filter(((quantity * discount) > 20))\n'
        '      Limit(100)\n'
        '        Scan(lineitem: 20000 rows, materialize=[quantity, discount]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '          note: projection pruned to 2 of 5 base columns',
        'Project(x)\n'
        '  Filter((x > 20))\n'
        '    WithColumn(x = (quantity * discount))\n'
        '      Limit(100)\n'
        '        Scan(lineitem)',
        (73, {'x': ('int64', 'f89d65b010ffc293')}, {})),
    'aggregate that materialises': (
        'Aggregate(scalar)\n'
        '  note: materialises its input (a float sum depends on the order of its addends)\n'
        '  agg w [decompress]\n'
        '  agg mean(price) [decompress]\n'
        '  Scan(lineitem: 20000 rows, materialize=[weight, price]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '    note: projection pruned to 2 of 5 base columns\n'
        '    where (quantity > 8)  [native, compressed, est. sel 0.873]',
        'Aggregate(scalar)\n'
        '  Filter((quantity > 8))\n'
        '    Scan(lineitem)',
        (17490, {}, {'w': ('float', '174404.24450899148'), 'mean(price)': ('float', '10205.32287021155')})),
    'aggregate over an aggregate': (
        'Aggregate(keys=[big])\n'
        '  Aggregate(keys=[discount])\n'
        '    agg group by discount [compressed]\n'
        '    agg n [compressed]\n'
        '    Scan(lineitem: 20000 rows, materialize=[discount]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '      note: projection pruned to 1 of 5 base columns',
        'Aggregate(keys=[big])\n'
        '  Aggregate(keys=[discount])\n'
        '    Scan(lineitem)',
        (8, {'big': ('bool', 'b413f47d13ee2fe6'), 'max(discount)': ('int64', '6b2e10cb2111114c')}, {})),
    'aggregate over a top-k': (
        'Aggregate(scalar)\n'
        '  Limit(10)\n'
        '    Sort(price DESC)\n'
        '      Scan(lineitem: 20000 rows, materialize=[quantity, price]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '        note: projection pruned to 2 of 5 base columns',
        'Aggregate(scalar)\n'
        '  Limit(10)\n'
        '    Sort(price DESC)\n'
        '      Scan(lineitem)',
        (10, {}, {'sum(quantity)': ('int', '272')})),
    'always-empty scan': (
        'Sort(price)\n'
        '  Scan(lineitem: 20000 rows, materialize=[quantity, price]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '    note: constant conjunct (1 > 2) is false — scan folded to empty\n'
        '    note: projection pruned to 2 of 5 base columns\n'
        '    where (quantity >= 0)  [native, decompress, est. sel 1.000]',
        'Sort(price)\n'
        '  Project(quantity, price)\n'
        '    Filter(((1 > 2) AND (quantity >= 0)))\n'
        '      Scan(lineitem)',
        (0, {'quantity': ('int64', 'e3b0c44298fc1c14'), 'price': ('int64', 'e3b0c44298fc1c14')}, {})),
    'from_result chain': (
        'Aggregate(keys=[discount])\n'
        '  agg group by discount [decompress]\n'
        '  agg sum(price) [decompress]\n'
        '  Scan(first: 8076 rows, materialize=[discount, price]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '    where (discount >= 4)  [native, compressed, est. sel 0.500]',
        'Aggregate(keys=[discount])\n'
        '  Filter((discount >= 4))\n'
        '    Scan(first)',
        (4037, {'discount': ('int64', '97da16b117bfaed9'), 'sum(price)': ('int64', 'f1f8c77ebb712e6d')}, {})),
    'the README query': (
        'Limit(5)\n'
        '  Sort(total DESC)\n'
        '    Aggregate(keys=[discount])\n'
        '      agg group by discount [decompress]\n'
        '      agg total [decompress]\n'
        '      agg count(*) [decompress]\n'
        '      Scan(lineitem: 20000 rows, materialize=[discount]) [backend=serial (process[4] requested; table is not backed by a single packed file), workers=4, pushdown=on, zone-maps=on]\n'
        '        note: projection pruned to 1 of 5 base columns\n'
        '        where (ship_date BETWEEN 100 AND 400)  [native, compressed, est. sel 0.604]\n'
        '        where ((quantity > 30) OR (NOT (discount IN (0, 1))))  [rows, decompress]\n'
        '        derive revenue = (price * quantity)',
        'Limit(5)\n'
        '  Sort(total DESC)\n'
        '    Aggregate(keys=[discount])\n'
        '      WithColumn(revenue = (price * quantity))\n'
        '        Filter(((ship_date BETWEEN 100 AND 400) AND ((quantity > 30) OR (NOT (discount IN (0, 1))))))\n'
        '          Scan(lineitem)',
        (5, {'discount': ('int64', '00822d4f0048170f'), 'total': ('int64', 'ef8eb77a2bc316f9'), 'count(*)': ('int64', 'd2b0b2933e6166eb')}, {})),
    'from_result of a grouped result': (
        'Sort(kq)\n'
        '  Scan(groups: 8 rows, materialize=[discount]) [backend=serial, workers=1, pushdown=on, zone-maps=on]\n'
        '    note: projection pruned to 1 of 2 base columns\n'
        '    where (q > 40000)  [native, decompress, est. sel 1.000]\n'
        '    derive kq = (q // 1000)',
        'Sort(kq)\n'
        '  Project(kq, discount)\n'
        '    Filter((q > 40000))\n'
        '      Scan(groups)',
        (8, {'kq': ('int64', 'dfa3956c785fb047'), 'discount': ('int64', 'a950e7769330e9b1')}, {})),
}


def _digest(result):
    columns = {name: (str(column.values.dtype),
                      hashlib.sha256(column.values.tobytes()).hexdigest()[:16])
               for name, column in result.columns.items()}
    scalars = {name: (type(value).__name__, repr(value))
               for name, value in result.scalars.items()}
    return result.row_count, columns, scalars


@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_stage_shape_explains_and_answers_as_pinned(lineitem, shape):
    query = SHAPES[shape](lineitem)
    optimized, logical, digest = GOLDEN[shape]
    assert query.explain() == optimized
    assert query.explain(optimized=False) == logical
    assert _digest(query.collect()) == digest
