"""Tests for shard specs: validation, keys, and pure execution."""

import pytest

from repro.characterize.probes import chain_trace
from repro.predictors import GShare, SimpleBTB
from repro.predictors.base import simulate
from repro.service.errors import SpecError
from repro.service.shards import (
    ShardSpec,
    canonical_config,
    execute_shard,
    make_predictor,
    probe_label,
    scheme_label,
    stats_from_dict,
    trace_from_payload,
    trace_to_payload,
    validate_probe,
)


def test_canonical_config_fills_defaults():
    config = canonical_config({"scheme": "SBTB"})
    assert config == {"scheme": "SBTB", "entries": 256,
                      "associativity": None}


def test_canonical_config_rejects_unknown_scheme():
    with pytest.raises(SpecError, match="unknown scheme"):
        canonical_config({"scheme": "Tournament"})


def test_canonical_config_rejects_unknown_field():
    with pytest.raises(SpecError, match="history_bits"):
        canonical_config({"scheme": "SBTB", "history_bits": 4})


def test_canonical_config_rejects_non_integer():
    with pytest.raises(SpecError, match="entries"):
        canonical_config({"scheme": "SBTB", "entries": "big"})
    with pytest.raises(SpecError, match="entries"):
        canonical_config({"scheme": "SBTB", "entries": True})


def test_scheme_label_marks_nondefault_capacity():
    assert scheme_label(canonical_config({"scheme": "SBTB"})) == "SBTB"
    assert scheme_label(canonical_config(
        {"scheme": "SBTB", "entries": 64})) == "SBTB[64]"
    assert scheme_label(canonical_config(
        {"scheme": "CBTB", "label": "mine"})) == "mine"


def test_validate_probe_families_and_records():
    probe = validate_probe({"family": "chain", "m": 4, "stride": 1,
                            "laps": 6})
    assert probe["family"] == "chain"
    with pytest.raises(SpecError, match="family"):
        validate_probe({"family": "spiral", "m": 4})
    with pytest.raises(SpecError, match="needs field"):
        validate_probe({"family": "chain", "m": 4})
    explicit = validate_probe(
        {"records": [[0, 1, True, 4, 2], [4, 1, False, 8, 2]]})
    assert explicit["total_instructions"] == 2
    with pytest.raises(SpecError, match="record"):
        validate_probe({"records": [[1, 2]]})


def test_trace_payload_roundtrip():
    trace = chain_trace(4, 1, 6)
    copy = trace_from_payload(trace_to_payload(trace))
    assert list(copy.records()) == list(trace.records())
    assert copy.total_instructions == trace.total_instructions


def test_identical_specs_share_a_key():
    probe = {"family": "chain", "m": 4, "stride": 1, "laps": 6}
    one = ShardSpec("probe", canonical_config({"scheme": "SBTB"}),
                    probe=validate_probe(probe))
    two = ShardSpec("probe", canonical_config({"scheme": "SBTB"}),
                    probe=validate_probe(dict(probe)))
    assert one.key == two.key


def test_key_varies_with_config_trace_and_flush():
    probe = validate_probe({"family": "chain", "m": 4, "stride": 1,
                            "laps": 6})
    base = ShardSpec("probe", canonical_config({"scheme": "SBTB"}),
                     probe=probe)
    other_config = ShardSpec(
        "probe", canonical_config({"scheme": "SBTB", "entries": 64}),
        probe=probe)
    other_trace = ShardSpec(
        "probe", canonical_config({"scheme": "SBTB"}),
        probe=validate_probe({"family": "chain", "m": 4, "stride": 1,
                              "laps": 7}))
    other_flush = ShardSpec("probe",
                            canonical_config({"scheme": "SBTB"}),
                            probe=probe, flush_interval=8)
    keys = {base.key, other_config.key, other_trace.key,
            other_flush.key}
    assert len(keys) == 4


def test_sweep_key_tracks_runner_parameters():
    config = canonical_config({"scheme": "SBTB"})
    base = ShardSpec("sweep", config, benchmark="wc", scale=0.02)
    scaled = ShardSpec("sweep", config, benchmark="wc", scale=0.05)
    static = ShardSpec("sweep", config, benchmark="wc", scale=0.02,
                       profile_source="static")
    assert base.key != scaled.key
    assert base.key != static.key
    assert "+static" in static.content_stem()


def test_shard_spec_dict_roundtrip_preserves_key():
    spec = ShardSpec("probe", canonical_config({"scheme": "GShare"}),
                     probe=validate_probe({"family": "disagree",
                                           "periods": 4}),
                     flush_interval=16)
    copy = ShardSpec.from_dict(spec.to_dict())
    assert copy.key == spec.key
    assert copy.row == spec.row
    assert copy.column == spec.column


def test_breaker_groups_split_by_kind():
    config = canonical_config({"scheme": "SBTB"})
    sweep = ShardSpec("sweep", config, benchmark="wc")
    probe = ShardSpec("probe", config,
                      probe=validate_probe({"family": "disagree",
                                            "periods": 4}))
    assert sweep.breaker_group == "benchmark:wc"
    assert probe.breaker_group == "probe:SBTB"


def test_make_predictor_matches_direct_construction():
    trace = chain_trace(8, 1, 6)
    direct = simulate(SimpleBTB(64, None), trace)
    via = simulate(make_predictor(canonical_config(
        {"scheme": "SBTB", "entries": 64})), trace)
    assert via.as_dict() == direct.as_dict()
    gshare = simulate(GShare(history_bits=4, table_bits=8), trace)
    via_gshare = simulate(make_predictor(canonical_config(
        {"scheme": "GShare", "history_bits": 4, "table_bits": 8})),
        trace)
    assert via_gshare.as_dict() == gshare.as_dict()


def test_execute_shard_matches_direct_simulation():
    probe = validate_probe({"family": "chain", "m": 4, "stride": 1,
                            "laps": 6})
    spec = ShardSpec("probe", canonical_config({"scheme": "SBTB",
                                                "entries": 64}),
                     probe=probe, flush_interval=None)
    result = execute_shard(spec)
    direct = simulate(SimpleBTB(64, None), chain_trace(4, 1, 6))
    assert result["accuracy"] == direct.accuracy
    assert result["stats"] == direct.as_dict()
    rebuilt = stats_from_dict(result["stats"])
    assert rebuilt.as_dict() == direct.as_dict()
    assert probe_label(probe).startswith("chain(")


def test_execute_shard_engines_are_bit_identical():
    """The engine field must never change a shard's answer.

    Every scheme, flushed or not, gives the same result dict under
    each engine, so dedup keys and cached results stay
    engine-agnostic.
    """
    probe = validate_probe({"family": "chain", "m": 6, "stride": 1,
                            "laps": 8})
    for scheme, flush_interval in (({"scheme": "GShare"}, None),
                                   ({"scheme": "CBTB"}, None),
                                   ({"scheme": "FS"}, None),
                                   ({"scheme": "CBTB"}, 7)):
        config = canonical_config(dict(scheme))
        results = [execute_shard(ShardSpec("probe", config, probe=probe,
                                           flush_interval=flush_interval,
                                           engine=engine))["stats"]
                   for engine in ("auto", "scalar", "vector")]
        assert results[0] == results[1] == results[2], scheme
