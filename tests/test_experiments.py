"""Tests for the experiment runner, tables, figures, and headline."""

import pytest

from repro.experiments import SuiteRunner, render_table
from repro.experiments import (
    figures,
    headline,
    paper_values,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.report import TableData, mean, std_dev

TINY = 0.05
NAMES = ("wc", "tee", "cmp")   # a fast subset for table plumbing tests


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return SuiteRunner(scale=TINY, runs=2, cache_dir=cache)


def test_run_produces_artifacts(runner):
    run = runner.run("wc")
    assert run.stats.branches > 0
    assert run.profile.runs == 2
    assert len(run.fs_program) > 0
    predictions = run.predictions()
    assert set(predictions) == {"SBTB", "CBTB", "FS"}
    for stats in predictions.values():
        assert 0.0 < stats.accuracy <= 1.0


def test_run_is_memoised(runner):
    assert runner.run("wc") is runner.run("wc")


def test_disk_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    first = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    fresh = first.run("tee")
    second = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    cached = second.run("tee")
    assert list(cached.trace.records()) == list(fresh.trace.records())
    assert cached.trace.total_instructions == fresh.trace.total_instructions
    assert cached.profile.branch_execs == fresh.profile.branch_execs
    # Cached artifacts yield identical predictions.
    for scheme in ("SBTB", "CBTB", "FS"):
        assert (cached.predictions()[scheme].accuracy
                == fresh.predictions()[scheme].accuracy)


def test_cache_disabled(tmp_path):
    runner = SuiteRunner(scale=TINY, runs=1, cache_dir=False)
    assert runner.cache_dir is None
    run = runner.run("cmp")
    assert run.stats.branches > 0


def test_expansions_cover_slot_counts(runner):
    expansions = runner.run("wc").expansions()
    assert sorted(expansions) == [1, 2, 4, 8]
    fractions = [expansions[n].expansion_fraction for n in (1, 2, 4, 8)]
    assert fractions == sorted(fractions)
    # Expansion is linear in slot count.
    assert abs(fractions[3] - 8 * fractions[0]) < 1e-9


# --- tables -----------------------------------------------------------------


def test_table1(runner):
    data = table1.compute(runner, NAMES)
    assert len(data.rows) == len(NAMES)
    text = render_table(data)
    assert "Table 1" in text
    assert "wc" in text


def test_table2_percentages_consistent(runner):
    data = table2.compute(runner, NAMES)
    for row in data.rows[:-1]:   # skip the Average row
        assert abs(row[1] + row[2] - 100.0) < 0.2
        assert abs(row[3] + row[4] - 100.0) < 0.2


def test_table3_ranges(runner):
    data = table3.compute(runner, NAMES)
    for row in data.rows:
        if row[0] in ("Average", "Std. dev."):
            continue
        rho_s, a_s, rho_c, a_c, a_fs = row[1:6]
        assert 0.0 <= rho_s <= 1.0
        assert 0.0 <= rho_c <= rho_s  # CBTB misses far less than SBTB
        for accuracy in (a_s, a_c, a_fs):
            assert 0.0 <= accuracy <= 100.0


def test_table3_average_accuracies(runner):
    accuracies = table3.average_accuracies(runner, NAMES)
    assert set(accuracies) == {"SBTB", "CBTB", "FS"}
    for value in accuracies.values():
        assert 0.5 < value <= 1.0


def test_table4_costs_derive_from_accuracy(runner):
    data = table4.compute(runner, NAMES)
    for row in data.rows:
        if row[0] in ("Average", "Std. dev."):
            continue
        # cost at k+l=3 exceeds cost at k+l=2 for the same scheme.
        assert row[4] >= row[1]
        assert row[5] >= row[2]
        assert row[6] >= row[3]
        for cost in row[1:7]:
            assert 1.0 <= cost <= 5.0


def test_table4_scaling_increase(runner):
    increases = table4.scaling_increase(runner, NAMES)
    for scheme, value in increases.items():
        assert 0.0 <= value <= 40.0


def test_table5_linear_in_slots(runner):
    data = table5.compute(runner, NAMES)
    for row in data.rows:
        if row[0] in ("Average", "Std. dev."):
            continue
        one, two, four, eight = row[1:5]
        assert abs(two - 2 * one) < 0.1
        assert abs(eight - 8 * one) < 0.3


def test_figures_shapes(runner):
    data = figures.compute(runner, NAMES)
    assert sorted(data) == [1, 2, 4, 8]
    for k, series in data.items():
        for scheme, points in series.items():
            costs = [cost for _, cost in points]
            assert costs == sorted(costs)       # linear growth
        # Deeper fetch pipe costs more at the same l+m.
    for lm_index in range(3):
        assert (data[8]["SBTB"][lm_index][1]
                >= data[1]["SBTB"][lm_index][1])


def test_headline(runner):
    results = headline.compute(runner, NAMES)
    assert set(results) == {"5-stage", "11-stage"}
    for row in results.values():
        assert row["FS"] >= 1.0
        assert row["best-hardware"] >= 1.0
        assert row["best-hardware-scheme"] in ("SBTB", "CBTB")
    assert results["11-stage"]["FS"] > results["5-stage"]["FS"]


def test_render_functions_return_text(runner):
    for module in (table1, table2, table3, table4, table5, figures,
                   headline):
        text = module.render(runner, NAMES)
        assert isinstance(text, str)
        assert len(text) > 50


# --- report helpers ------------------------------------------------------------


def test_render_table_alignment():
    data = TableData("T", ["A", "B"], [["x", 1.5], ["yy", 22]],
                     notes=["a note"])
    text = render_table(data)
    assert "T" in text
    assert "note: a note" in text


def test_mean_and_std():
    assert mean([1, 2, 3]) == 2
    assert mean([]) == 0.0
    assert std_dev([5]) == 0.0
    assert abs(std_dev([2, 4]) - 1.0) < 1e-12


def test_paper_values_cover_all_benchmarks():
    for table in (paper_values.TABLE1, paper_values.TABLE2,
                  paper_values.TABLE3, paper_values.TABLE4_KL2,
                  paper_values.TABLE4_KL3):
        assert set(table) == set(paper_values.BENCHMARKS)
    assert set(paper_values.TABLE5) == set(paper_values.TABLE5_BENCHMARKS)


def test_series_plot_renders():
    from repro.experiments.report import render_series_plot
    text = render_series_plot(
        {"SBTB": [(0, 1.0), (1, 1.5)], "FS": [(0, 1.0), (1, 1.2)]},
        title="t")
    assert "S" in text and "F" in text
    assert render_series_plot({}) == "(no data)\n"


def test_storage_table(runner):
    from repro.experiments import storage
    data = storage.compute(runner, NAMES)
    assert len(data.rows) == 4            # k+l = 1, 2, 4, 8
    on_chip_sbtb = [row[1] for row in data.rows]
    assert on_chip_sbtb == sorted(on_chip_sbtb)   # grows with k
    for row in data.rows:
        # FS instruction-memory cost is far below BTB silicon.
        assert row[3] < row[1]
    text = storage.render(runner, NAMES)
    assert "Storage cost" in text


def test_parallel_warm(tmp_path):
    cache = tmp_path / "pcache"
    parallel = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    runs = parallel.run_all(["wc", "tee", "cmp"], workers=3)
    assert set(runs) == {"wc", "tee", "cmp"}
    # The parallel-warmed cache yields the same traces as serial.
    serial = SuiteRunner(scale=TINY, runs=1, cache_dir=tmp_path / "scache")
    for name in ("wc", "tee"):
        assert (list(runs[name].trace.records())
                == list(serial.run(name).trace.records()))


def test_parallel_warm_without_cache_falls_back(tmp_path):
    runner = SuiteRunner(scale=TINY, runs=1, cache_dir=False)
    runs = runner.run_all(["wc"], workers=4)
    assert runs["wc"].stats.branches > 0


def test_summary_report(runner):
    from repro.experiments import summary
    text = summary.generate(runner, NAMES)
    assert text.startswith("# Reproduction report")
    for heading in ("Table 1", "Table 5", "Figures", "Storage"):
        assert heading in text


def test_sweeps(runner):
    from repro.experiments import sweeps
    capacity = sweeps.capacity_sweep(runner, NAMES, capacities=(16, 256))
    assert len(capacity.rows) == 2
    # Accuracy (weakly) improves with capacity for both schemes.
    assert capacity.rows[1][1] >= capacity.rows[0][1] - 0.01
    assert capacity.rows[1][2] >= capacity.rows[0][2] - 0.01

    assoc = sweeps.associativity_sweep(runner, NAMES, ways=(1, None))
    assert assoc.rows[1][0] == "full"
    assert assoc.rows[1][1] >= assoc.rows[0][1] - 0.01

    counters = sweeps.counter_sweep(
        runner, NAMES, configurations=((1, 1), (2, 2)))
    assert all(0.0 <= row[1] <= 1.0 for row in counters.rows)

    text = sweeps.render(runner, NAMES)
    assert "capacity sweep" in text
    assert "associativity sweep" in text
    assert "counter geometry" in text


def test_corrupt_cache_falls_back_to_execution(tmp_path):
    cache = tmp_path / "corrupt"
    first = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    fresh = first.run("wc")
    # Corrupt every cache file.
    for path in cache.iterdir():
        path.write_bytes(b"garbage")
    second = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    recovered = second.run("wc")
    assert (list(recovered.trace.records())
            == list(fresh.trace.records()))


def test_cache_key_includes_source_hash(tmp_path):
    runner = SuiteRunner(scale=TINY, runs=1, cache_dir=tmp_path)
    spec_source = "int main() { return 0; }"
    path_a, _ = runner._cache_paths("x", 1, spec_source)
    path_b, _ = runner._cache_paths("x", 1, spec_source + " ")
    assert path_a != path_b
