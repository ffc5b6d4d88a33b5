"""Extension bench — cross-layer consistency sweep.

Prints the agreement matrix between the functional, driver and temporal
views of the same HMVP jobs (see `repro.hw.validation`): the regression
artifact that keeps the three layers from drifting apart.
"""

import pytest
from conftest import print_table

from repro.hw.validation import sweep, validate_consistency


def test_consistency_sweep_table():
    reports = sweep()
    rows = []
    for r in reports:
        rows.append(
            (
                f"{r.rows}x{r.col_tiles}t",
                r.dot_products,
                r.reductions,
                r.aggregations,
                f"{r.cycles:,}",
                "OK" if r.consistent else "; ".join(r.mismatches),
            )
        )
    print_table(
        "Cross-layer consistency (ISA = pipeline = tree)",
        ["job", "dots", "reductions", "aggs", "cycles", "status"],
        rows,
    )
    assert all(r.consistent for r in reports)


def test_functional_layer_in_the_loop(bench_scheme, rng):
    from repro.core.batch import BatchedHmvp

    a = rng.integers(-10, 10, (16, 128))
    v = rng.integers(-10, 10, 128)
    result = BatchedHmvp.once(bench_scheme, a, [bench_scheme.encrypt_vector(v)])
    report = validate_consistency(16, 1, functional_ops=result.ops)
    assert report.consistent, report.mismatches


@pytest.mark.benchmark(group="validation")
def test_perf_validation_sweep(benchmark):
    benchmark(sweep)
