"""Tests for the longitudinal benchmark history and its regression
report (BENCH_history.jsonl, ``repro-branches bench-history``)."""

import json

import pytest

from repro.telemetry.history import (
    DEFAULT_WINDOW,
    HISTORY_FILENAME,
    HISTORY_SCHEMA,
    MIN_BASELINE,
    append_record,
    find_regressions,
    flatten_bench_reports,
    history_path,
    load_history,
    render_history,
    rolling_baseline,
)


def _fill(path, rates, start=0):
    """Append one record per rates dict, with synthetic timestamps."""
    for index, metrics in enumerate(rates):
        append_record(path, metrics, git_sha="c0ffee%02d" % index,
                      scale=0.1, ts="2026-08-%02dT00:00:00+00:00"
                      % (start + index + 1))


def test_append_and_load_roundtrip(tmp_path):
    path = history_path(tmp_path)
    assert path.name == HISTORY_FILENAME
    record = append_record(path, {"vm_instructions_per_second": 1e6},
                           git_sha="a" * 40, scale=0.1)
    assert record["schema"] == HISTORY_SCHEMA
    assert record["ts"].endswith("+00:00")
    loaded = load_history(path)
    assert len(loaded) == 1
    assert loaded[0]["metrics"] == {"vm_instructions_per_second": 1e6}
    assert loaded[0]["git_sha"] == "a" * 40


def test_load_history_tolerates_torn_and_foreign_lines(tmp_path):
    path = history_path(tmp_path)
    append_record(path, {"rate": 1.0})
    with open(path, "a") as handle:
        handle.write('{"schema": 1, "metrics": {"rate": 2.0')  # torn
        handle.write("\n")
        handle.write('{"no_metrics": true}\n')                 # foreign
    append_record(path, {"rate": 3.0})
    rates = [record["metrics"]["rate"]
             for record in load_history(path)]
    assert rates == [1.0, 3.0]


def test_flatten_bench_reports():
    telemetry = {"rates": {"vm_instructions_per_second": 2e6,
                           "predictor_records_per_second": 5e5},
                 "stages": {"trace": 1.0}}
    kernels = {"workload": {"records": 100},
               "schemes": {"fs": {"vector_records_per_second": 3e6,
                                  "speedup": 8.0}},
               "headline": {"vector_records_per_second": 2.5e6}}
    metrics = flatten_bench_reports(telemetry, kernels)
    assert metrics == {
        "vm_instructions_per_second": 2e6,
        "predictor_records_per_second": 5e5,
        "kernel_fs_vector_records_per_second": 3e6,
        "kernel_fs_speedup": 8.0,
        "kernel_headline_vector_records_per_second": 2.5e6,
    }
    assert flatten_bench_reports(None, None) == {}


def test_rolling_baseline_is_windowed_median():
    records = [{"metrics": {"rate": float(value)}}
               for value in (100, 1, 2, 3, 4, 5)]
    assert rolling_baseline(records, "rate", window=5) == 3.0
    assert rolling_baseline(records, "rate", window=6) == 3.5
    assert rolling_baseline(records, "missing") is None


def test_synthetic_thirty_percent_drop_is_flagged(tmp_path):
    """Acceptance: a 30% rate drop against a stable baseline is
    reported as a regression at the default 20% threshold."""
    path = history_path(tmp_path)
    steady = [{"steady_rate": 1000.0, "dropping_rate": 1000.0}
              for _ in range(5)]
    _fill(path, steady)
    append_record(path, {"steady_rate": 990.0, "dropping_rate": 700.0},
                  ts="2026-08-09T00:00:00+00:00")
    records = load_history(path)
    regressions = find_regressions(records)
    assert len(regressions) == 1
    flagged = regressions[0]
    assert flagged["metric"] == "dropping_rate"
    assert flagged["baseline"] == 1000.0
    assert flagged["latest"] == 700.0
    assert flagged["drop"] == pytest.approx(0.3)

    text, rendered = render_history(records)
    assert rendered == regressions
    assert "REGRESSION: dropping_rate dropped 30%" in text
    assert "steady_rate" in text and "-1.0%" in text


def test_small_drop_not_flagged():
    records = [{"metrics": {"rate": 100.0}} for _ in range(5)]
    records.append({"metrics": {"rate": 85.0}})    # -15% < 20%
    assert find_regressions(records) == []


def test_regression_needs_min_baseline_observations():
    records = [{"metrics": {"rate": 100.0}}
               for _ in range(MIN_BASELINE - 1)]
    records.append({"metrics": {"rate": 1.0}})     # huge drop, thin base
    assert find_regressions(records) == []
    records.insert(0, {"metrics": {"rate": 100.0}})
    assert find_regressions(records)               # now thick enough


def test_baseline_window_excludes_latest_record():
    # A slow leak: each record 10% below the last.  The windowed
    # median must come from the *preceding* records only.
    records = [{"metrics": {"rate": 1000.0 * (0.9 ** index)}}
               for index in range(DEFAULT_WINDOW + 1)]
    flagged = find_regressions(records, threshold=0.2)
    baseline = rolling_baseline(records[:-1], "rate")
    assert flagged and flagged[0]["baseline"] == baseline


def test_render_history_empty():
    text, regressions = render_history([])
    assert "no benchmark history yet" in text
    assert regressions == []


def test_bench_history_cli(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / HISTORY_FILENAME
    _fill(path, [{"rate": 1000.0} for _ in range(4)])

    assert main(["bench-history", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bench history: 4 records" in out
    assert "no regressions" in out

    append_record(path, {"rate": 500.0},
                  ts="2026-08-09T00:00:00+00:00")
    assert main(["bench-history", "--file", str(path)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION: rate dropped 50%" in out


def test_bench_history_cli_threshold_and_window(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / HISTORY_FILENAME
    _fill(path, [{"rate": 1000.0} for _ in range(4)])
    append_record(path, {"rate": 900.0},
                  ts="2026-08-09T00:00:00+00:00")
    # -10% passes the default 20% threshold but fails a 5% one.
    assert main(["bench-history", "--file", str(path)]) == 0
    capsys.readouterr()
    assert main(["bench-history", "--file", str(path),
                 "--threshold", "0.05"]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_history_cli_validates_options(tmp_path, capsys):
    from repro.cli import EXIT_BAD_ARGUMENT, main

    assert main(["bench-history", "--threshold", "1.5"]) \
        == EXIT_BAD_ARGUMENT
    assert main(["bench-history", "--window", "0"]) == EXIT_BAD_ARGUMENT


def test_records_are_single_sorted_json_lines(tmp_path):
    path = history_path(tmp_path)
    append_record(path, {"b": 2.0, "a": 1.0})
    line = path.read_text().strip()
    assert "\n" not in line
    parsed = json.loads(line)
    assert list(parsed) == sorted(parsed)
    assert parsed["metrics"] == {"a": 1.0, "b": 2.0}


def test_history_survives_a_retired_kernel_report(tmp_path, capsys):
    """A BENCH_kernels.json without the retired ``chunked`` entry
    flattens cleanly, and bench-history neither flags nor crashes on
    metrics that older records carry and the latest one lacks."""
    from repro.cli import main

    rates = {"vector_records_per_second": 1e7, "speedup": 20.0}
    old = {"schemes": {"CBTB": dict(rates),
                       "chunked": {"scaling_1_to_4": 1.1,
                                   "workers1_seconds": 0.3}},
           "headline": dict(rates)}
    new = {"schemes": {"CBTB": dict(rates)}, "headline": dict(rates)}
    flattened = flatten_bench_reports(None, new)
    assert not any("chunked" in metric for metric in flattened)
    assert set(flattened) == {
        "kernel_CBTB_vector_records_per_second", "kernel_CBTB_speedup",
        "kernel_headline_vector_records_per_second",
        "kernel_headline_speedup"}

    path = tmp_path / HISTORY_FILENAME
    _fill(path, [flatten_bench_reports(None, old) for _ in range(4)]
          + [flattened])
    assert find_regressions(load_history(path)) == []
    assert main(["bench-history", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bench history: 5 records" in out
    assert "chunked" not in out
    assert "no regressions" in out
