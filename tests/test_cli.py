import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skillzip import QuantConfig, Skillpack, compile_layer, read_archive, read_skillpack
from skillzip.cli import main
from skillzip.packio import serialize_skillpack
from skillzip.pipeline import PipelineConfig
from skillzip.prng import Prng
from mutate import HOSTILE_VALUES, byte_ops, leaf_paths, mutate_bytes, substitute


@pytest.fixture()
def fixture_dir(tmp_path):
    out = tmp_path / "fixtures"
    rc = main(
        [
            "gen-synth",
            "--out", str(out),
            "--seed", "5",
            "--tasks", "2",
            "--layers", "2",
            "--channels", "48",
            "--tokens", "12",
            "--outliers", "2",
        ]
    )
    assert rc == 0
    return out


def test_gen_synth_writes_archives(fixture_dir):
    names = {p.name for p in fixture_dir.iterdir()}
    assert {"base.ftz", "math.ftz", "code.ftz", "calib.ftz", "eval.ftz"} <= names
    base = dict(read_archive(fixture_dir / "base.ftz"))
    assert set(base) == {"layer0", "layer1"}


def test_compress_eval_bench_diag_round(fixture_dir, tmp_path):
    out = tmp_path / "packs"
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        PipelineConfig(rank_mode="fixed", rank_value=4, n_candidates=2, seed=9).to_canonical_json()
    )
    rc = main(
        [
            "compress",
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--tuned", str(fixture_dir / "code.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--config", str(config_path),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "backbone.ftz").exists()
    assert (out / "math.skz").exists()
    assert (out / "math.skz.manifest.json").exists()
    pack = read_skillpack(out / "math.skz")
    assert set(pack.layers) == {"layer0", "layer1"}

    report_json = tmp_path / "eval.json"
    rc = main(
        [
            "eval",
            "--backbone", str(out / "backbone.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--pack", str(out / "math.skz"),
            "--activations", str(fixture_dir / "eval.ftz"),
            "--json", str(report_json),
        ]
    )
    assert rc == 0
    body = json.loads(report_json.read_text())
    assert body["method"] == "skillzip"
    assert 0 <= body["aggregate_rel_error"] < 1.0

    # Bench over a small inline request stream.
    stream = tmp_path / "requests.jsonl"
    row = [0.1] * 48
    lines = [
        json.dumps({"task": "math", "x": [row, row]}),
        json.dumps({"task": "code", "x": row}),
        json.dumps({"task": "math", "x": "eval.ftz::layer0"}),
    ]
    stream.write_text("\n".join(lines) + "\n")
    os.link(fixture_dir / "eval.ftz", tmp_path / "eval.ftz")
    bench_json = tmp_path / "bench.json"
    outputs = tmp_path / "outputs.ftz"
    rc = main(
        [
            "bench",
            "--backbone", str(out / "backbone.ftz"),
            "--pack", str(out / "math.skz"),
            "--pack", str(out / "code.skz"),
            "--stream", str(stream),
            "--repeats", "2",
            "--out", str(outputs),
            "--json", str(bench_json),
        ]
    )
    assert rc == 0
    bench_body = json.loads(bench_json.read_text())
    assert bench_body["requests"] == 3
    assert bench_body["latency_ms_per_token"] > 0
    produced = dict(read_archive(outputs))
    assert set(produced) == {"0", "1", "2"}

    diag_json = tmp_path / "diag.json"
    rc = main(
        [
            "diag",
            "--delta-a", str(fixture_dir / "math.ftz"),
            "--delta-b", str(fixture_dir / "math.ftz"),
            "--base", str(fixture_dir / "base.ftz"),
            "--json", str(diag_json),
        ]
    )
    assert rc == 0
    diag_body = json.loads(diag_json.read_text())
    assert diag_body["cosine"] == pytest.approx(1.0, abs=1e-9)
    assert diag_body["sign_consistency"] == pytest.approx(1.0)


def test_compress_deterministic_files(fixture_dir, tmp_path):
    args = lambda out: [
        "compress",
        "--base", str(fixture_dir / "base.ftz"),
        "--tuned", str(fixture_dir / "math.ftz"),
        "--tuned", str(fixture_dir / "code.ftz"),
        "--calib", str(fixture_dir / "calib.ftz"),
        "--seed", "4",
        "--out", str(out),
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args(out1)) == 0
    assert main(args(out2)) == 0
    for name in ("backbone.ftz", "math.skz", "code.skz"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_baseline_command(fixture_dir, tmp_path):
    report_json = tmp_path / "b.json"
    rc = main(
        [
            "baseline",
            "--method", "bitdelta",
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--activations", str(fixture_dir / "eval.ftz"),
            "--json", str(report_json),
        ]
    )
    assert rc == 0
    assert json.loads(report_json.read_text())["method"] == "bitdelta"


def test_empty_stream_reports_and_succeeds(fixture_dir, tmp_path, capsys):
    out = tmp_path / "packs"
    assert (
        main(
            [
                "compress",
                "--base", str(fixture_dir / "base.ftz"),
                "--tuned", str(fixture_dir / "math.ftz"),
                "--calib", str(fixture_dir / "calib.ftz"),
                "--out", str(out),
                "--seed", "1",
            ]
        )
        == 0
    )
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    rc = main(
        [
            "bench",
            "--backbone", str(out / "backbone.ftz"),
            "--pack", str(out / "math.skz"),
            "--stream", str(stream),
        ]
    )
    assert rc == 0
    assert "empty" in capsys.readouterr().out


def test_validation_error_exit_code(fixture_dir, tmp_path):
    rc = main(
        [
            "baseline",
            "--method", "bitdelta",
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "base.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--activations", str(fixture_dir / "calib.ftz"),  # wrong shapes for eval? still fine
            "--json", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 0  # zero delta is legal
    # Unknown file -> IO error -> 3
    rc = main(
        [
            "eval",
            "--backbone", str(fixture_dir / "does-not-exist.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--pack", str(fixture_dir / "nope.skz"),
            "--activations", str(fixture_dir / "eval.ftz"),
        ]
    )
    assert rc == 3


def test_format_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ftz"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    rc = main(
        [
            "diag",
            "--delta-a", str(bad),
            "--delta-b", str(bad),
        ]
    )
    assert rc == 3


def test_routing_error_exit_code(fixture_dir, tmp_path):
    out = tmp_path / "packs"
    main(
        [
            "compress",
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--out", str(out),
            "--seed", "1",
        ]
    )
    stream = tmp_path / "s.jsonl"
    stream.write_text(json.dumps({"task": "unregistered", "x": [[0.0] * 48]}) + "\n")
    rc = main(
        [
            "bench",
            "--backbone", str(out / "backbone.ftz"),
            "--pack", str(out / "math.skz"),
            "--stream", str(stream),
        ]
    )
    assert rc == 2


def test_gen_synth_too_many_outliers_exit_code(tmp_path, capsys):
    rc = main(["gen-synth", "--out", str(tmp_path / "f"), "--channels", "8", "--outliers", "9"])
    assert rc == 2
    assert "outlier channel count" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_bad_config_exit_code(fixture_dir, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"toggles": {"merge": "no"}}')
    rc = main(
        [
            "compress",
            "--config", str(config),
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--out", str(tmp_path / "packs"),
        ]
    )
    assert rc == 2
    assert "config.toggles.merge" in capsys.readouterr().err
    assert not (tmp_path / "packs").exists()


def test_bench_crafted_pack_exit_code(fixture_dir, tmp_path, capsys):
    """A CRC-valid pack whose task id is not UTF-8: exit 3, no traceback."""
    rng = Prng(40)
    layer = compile_layer(
        "layer0", np.ones(48, dtype=np.float32), rng.uniform_matrix(48, 2, -1, 1), rng.uniform_matrix(2, 48, -1, 1),
        QuantConfig(), mid_scale=1.0,
    )
    body = serialize_skillpack(Skillpack("math", {"layer0": layer}))[:-4].replace(b"math", b"\xffath", 1)
    bad = tmp_path / "bad.skz"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    stream = tmp_path / "s.jsonl"
    stream.write_text(json.dumps({"task": "math", "x": [[0.0] * 48]}) + "\n")
    rc = main(["bench", "--backbone", str(fixture_dir / "base.ftz"), "--pack", str(bad), "--stream", str(stream)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "sidecar",
    ["{not json", '{"task_id": "t"}', None],
    ids=["not-json", "no-layers", "layer-without-name"],
)
def test_malformed_manifest_exit_code(fixture_dir, tmp_path, capsys, sidecar):
    """eval and bench --pack on a pack whose manifest sidecar is malformed:
    exit 3 and no traceback."""
    out = tmp_path / "packs"
    rc = main(
        [
            "compress",
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--out", str(out),
            "--seed", "1",
        ]
    )
    assert rc == 0
    manifest = out / "math.skz.manifest.json"
    if sidecar is None:
        body = json.loads(manifest.read_text())
        del body["layers"][0]["name"]
        sidecar = json.dumps(body)
    manifest.write_text(sidecar)
    stream = tmp_path / "s.jsonl"
    stream.write_text(json.dumps({"task": "math", "x": [[0.0] * 48]}) + "\n")
    capsys.readouterr()
    commands = (
        ["eval", "--backbone", str(out / "backbone.ftz"), "--tuned", str(fixture_dir / "math.ftz"),
         "--pack", str(out / "math.skz"), "--activations", str(fixture_dir / "eval.ftz")],
        ["bench", "--backbone", str(out / "backbone.ftz"), "--pack", str(out / "math.skz"), "--stream", str(stream)],
    )
    for argv in commands:
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "manifest" in err and "Traceback" not in err
@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_non_finite_fixed_rank_exit_code(fixture_dir, tmp_path, capsys, value):
    config = tmp_path / "rank.json"
    config.write_text(f'{{"rank": {{"mode": "fixed", "value": {value}}}}}')
    rc = main(
        [
            "compress",
            "--config", str(config),
            "--base", str(fixture_dir / "base.ftz"),
            "--tuned", str(fixture_dir / "math.ftz"),
            "--calib", str(fixture_dir / "calib.ftz"),
            "--out", str(tmp_path / "packs"),
        ]
    )
    assert rc == 2
    assert "config.rank.value" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    """A 16x16 two-task fixture set, its compressed packs, and the compress
    and bench command lines that use them."""
    root = tmp_path_factory.mktemp("tiny")
    gen = ["gen-synth", "--out", str(root), "--seed", "2", "--tasks", "2", "--channels", "16", "--tokens", "8"]
    assert main(gen + ["--outliers", "2"]) == 0
    args = ["--base", str(root / "base.ftz"), "--tuned", str(root / "math.ftz"), "--tuned", str(root / "code.ftz")]
    compress_argv = ["compress", *args, "--calib", str(root / "calib.ftz")]
    assert main(compress_argv + ["--out", str(root / "packs")]) == 0
    packs = ["--pack", str(root / "packs" / "math.skz"), "--pack", str(root / "packs" / "code.skz")]
    bench_argv = ["bench", "--backbone", str(root / "packs" / "backbone.ftz"), *packs, "--repeats", "1"]
    return {"root": root, "compress": compress_argv, "bench": bench_argv}


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_bench_repeats_exit_code(tiny_suite, tmp_path, capsys, repeats):
    """Rejected before any dispatch, so no outputs are written either."""
    stream = tmp_path / "s.jsonl"
    stream.write_text(json.dumps({"task": "math", "x": [[0.0] * 16]}) + "\n")
    out = tmp_path / "outputs.ftz"
    argv = tiny_suite["bench"] + ["--stream", str(stream), "--out", str(out), "--repeats", repeats]
    assert main(argv) == 2
    assert "--repeats" in capsys.readouterr().err
    assert not out.exists()


def test_gen_synth_zero_tokens_exit_code(tmp_path, capsys):
    """The FTZ writer refuses the 0-row calibration archive that every later
    command would reject, and gen-synth checks every archive before it
    writes any, so nothing is left behind."""
    out = tmp_path / "f"
    assert main(["gen-synth", "--out", str(out), "--channels", "16", "--tokens", "0"]) == 2
    assert "empty shape" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body",
    [
        '{"rank": {"mode": "bogus"}}',
        '{"rank": {"mode": "energy", "value": 1.5}}',
        '{"n_candidates": -1, "toggles": {"rotate": false}}',
        '{"n_candidates": 1000000000}',
    ],
    ids=["rank-mode", "energy", "negative-candidates", "huge-candidates"],
)
def test_out_of_range_config_exit_code(tiny_suite, tmp_path, capsys, body):
    """Refused when the config is read: exit 2 and no output directory."""
    (tmp_path / "cfg.json").write_text(body)
    out = tmp_path / "packs"
    assert main(tiny_suite["compress"] + ["--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


_CLI_CONFIG = json.loads(PipelineConfig(rank_mode="fixed", rank_value=2, n_candidates=2).to_canonical_json())
_CLI_LEAVES = sorted(leaf_paths(_CLI_CONFIG))


# capsys is read and cleared in every example.
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mutation=st.one_of(
        st.tuples(st.just("substitute"), st.sampled_from(_CLI_LEAVES), st.sampled_from(HOSTILE_VALUES)), byte_ops
    )
)
@example(mutation=("substitute", ("rank", "value"), float("inf")))
@example(mutation=("substitute", ("rank", "value"), 10**400))
@example(mutation=("flip", 0.5, b"\x80"))
def test_compress_mutated_config_exit_code(tiny_suite, tmp_path_factory, capsys, mutation):
    op, where, what = mutation
    if op == "substitute":
        data = substitute(_CLI_CONFIG, where, what).encode()
    else:
        data = mutate_bytes(json.dumps(_CLI_CONFIG).encode(), op, where, what)
    work = tmp_path_factory.mktemp("cfg")
    (work / "cfg.json").write_bytes(data)
    rc = main(tiny_suite["compress"] + ["--config", str(work / "cfg.json"), "--out", str(work / "packs")])
    assert rc in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


_CLI_STREAM = [{"task": "math", "x": [[0.5] * 16, [0.25] * 16]}, {"task": "code", "x": [1.0] * 16}]


# capsys is read and cleared in every example.
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mutation=st.one_of(
        st.tuples(st.just("substitute"), st.sampled_from([(i, k) for i in range(2) for k in ("task", "x")]),
                  st.sampled_from(HOSTILE_VALUES + ["calib.ftz::layer0", "nope.ftz::layer0"])),
        byte_ops,
    )
)
@example(mutation=("flip", 0.1, b"\x80"))
@example(mutation=("substitute", (1, "x"), 10**400))
def test_bench_mutated_stream_exit_code(tiny_suite, capsys, mutation):
    op, where, what = mutation
    lines = [json.dumps(line) for line in _CLI_STREAM]
    if op == "substitute":
        lines[where[0]] = substitute(_CLI_STREAM[where[0]], where[1:], what)
    data = "\n".join(lines).encode()
    if op != "substitute":
        data = mutate_bytes(data, op, where, what)
    stream = tiny_suite["root"] / "stream.jsonl"  # next to calib.ftz, which substituted references name
    stream.write_bytes(data)
    rc = main(tiny_suite["bench"] + ["--stream", str(stream)])
    assert rc in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


