import json
import os
import struct
import zlib

import numpy as np
import pytest

from skillzip import QuantConfig, Skillpack, compile_layer, read_archive, read_skillpack
from skillzip.cli import main
from skillzip.packio import serialize_skillpack
from skillzip.pipeline import PipelineConfig
from skillzip.prng import Prng


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
