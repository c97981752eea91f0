"""A TPC-H-flavoured synthetic workload (the paper's shipped-orders table).

The paper's motivating example is "a table holds shipped order details, with
a date column"; the closest public stand-in is the TPC-H ``lineitem`` /
``orders`` pair.  This module generates a small, self-contained slice of
that shape — enough structure for every column to exercise a different
scheme (dates → RLE∘DELTA, keys → DELTA/NS, quantities → DICT/NS, prices →
FOR, flags → RLE/DICT) and for the aggregate examples and the E9/E10
query benchmarks to run against something recognisable.

No TPC-H data or generator code is used; distributions are simple synthetic
approximations chosen only to preserve the compressibility structure the
experiments depend on (see DESIGN.md's substitution note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..columnar.column import Column
from ..errors import ReproError
from .generators import DATE_EPOCH_OFFSET, _rng


@dataclass
class OrdersWorkload:
    """The generated workload: two tables of columns plus generation metadata."""

    orders: Dict[str, Column]
    lineitem: Dict[str, Column]
    num_orders: int
    num_lineitems: int
    date_range: range


def generate_orders_workload(num_orders: int = 50_000,
                             lines_per_order_max: int = 7,
                             num_days: int = 2_000,
                             num_customers: int = 5_000,
                             num_parts: int = 20_000,
                             seed: int = 0) -> OrdersWorkload:
    """Generate the shipped-orders workload.

    ``orders`` columns: ``order_id`` (monotone), ``customer_id`` (zipf-ish),
    ``order_date`` (non-decreasing, long runs), ``total_price``.

    ``lineitem`` columns: ``order_id`` (foreign key, runs), ``part_id``,
    ``quantity`` (1–50), ``price``, ``discount`` (few distinct values),
    ``ship_date`` (order date plus a small lag — still run-heavy and nearly
    sorted), ``status`` (tiny domain).
    """
    if num_orders <= 0:
        raise ReproError("num_orders must be positive")
    rng = _rng(seed)

    # --- orders ---------------------------------------------------------- #
    order_id = 1_000_000 + np.arange(num_orders, dtype=np.int64)
    # Orders arrive in date order; the number of orders per day is Poisson.
    per_day = np.maximum(1, rng.poisson(num_orders / num_days, num_days))
    while per_day.sum() < num_orders:
        per_day[rng.integers(0, num_days)] += 1
    day_of_order = np.repeat(np.arange(num_days, dtype=np.int64), per_day)[:num_orders]
    order_date = DATE_EPOCH_OFFSET + day_of_order
    customer_weights = (np.arange(1, num_customers + 1) ** -1.1)
    customer_weights /= customer_weights.sum()
    customer_id = rng.choice(num_customers, size=num_orders, p=customer_weights).astype(np.int64)
    total_price = rng.integers(1_000, 500_000, num_orders, dtype=np.int64)

    orders = {
        "order_id": Column(order_id, name="order_id"),
        "customer_id": Column(customer_id, name="customer_id"),
        "order_date": Column(order_date, name="order_date"),
        "total_price": Column(total_price, name="total_price"),
    }

    # --- lineitem --------------------------------------------------------- #
    lines_per_order = rng.integers(1, lines_per_order_max + 1, num_orders)
    num_lineitems = int(lines_per_order.sum())
    li_order_id = np.repeat(order_id, lines_per_order)
    li_order_day = np.repeat(day_of_order, lines_per_order)
    ship_lag = rng.integers(1, 30, num_lineitems)
    ship_date = DATE_EPOCH_OFFSET + li_order_day + ship_lag
    # Re-sort by ship date so the stored column has the paper's
    # monotone-with-runs shape (a clustered date column).
    order_by_ship = np.argsort(ship_date, kind="stable")

    part_id = rng.integers(0, num_parts, num_lineitems, dtype=np.int64)
    quantity = rng.integers(1, 51, num_lineitems, dtype=np.int64)
    price = rng.integers(100, 100_000, num_lineitems, dtype=np.int64)
    discount = rng.choice(np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], dtype=np.int64),
                          size=num_lineitems)
    status = rng.choice(np.array([0, 1, 2], dtype=np.int64), size=num_lineitems,
                        p=[0.5, 0.3, 0.2])

    lineitem = {
        "order_id": Column(li_order_id[order_by_ship], name="order_id"),
        "part_id": Column(part_id[order_by_ship], name="part_id"),
        "quantity": Column(quantity[order_by_ship], name="quantity"),
        "price": Column(price[order_by_ship], name="price"),
        "discount": Column(discount[order_by_ship], name="discount"),
        "ship_date": Column(ship_date[order_by_ship], name="ship_date"),
        "status": Column(status[order_by_ship], name="status"),
    }

    return OrdersWorkload(
        orders=orders,
        lineitem=lineitem,
        num_orders=num_orders,
        num_lineitems=num_lineitems,
        date_range=range(DATE_EPOCH_OFFSET, DATE_EPOCH_OFFSET + num_days + 30),
    )
