"""The paired-benchmark scripts keep their output directory usable.

scripts/bench_pair.py writes its two bench files only after its last pair,
through scripts/bench_file.py, so an --out directory that is missing or not
writable must be dealt with before the first run, not after all of them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def record(code_hash):
    """One untraced tiny runs.jsonl record of one solve call."""
    prov = {"code_hash": code_hash, "git_sha": "0123456789abcdef", "nproc": 2,
            "numpy": "2", "scipy": "1", "python": "3"}
    return {"provenance": prov, "time": "t", "loadavg_before": [0.5, 0.5, 0.5],
            "args": {"workload": "solve", "size": "tiny", "trace": 0},
            "calls": [{"seed": 1000, "ok": True, "wall_s": 1.5, "steps": 10,
                       "peak_rss_mb": 50.0}],
            "setups_s": [0.25]}


def test_bench_file_makes_a_missing_out_directory(tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps(record("feed")) + "\n")
    out = tmp_path / "missing" / "nested"
    assert load("bench_file").main(["--code-hash", "feed", "--size", "tiny",
                                    "--runs", str(runs), "--out", str(out)]) == 0
    bench = json.loads((out / "BENCH_0123456.json").read_text())
    assert bench["workloads"]["solve"]["metrics"]["wall_s"]["median"] == 1.5


class Started(Exception):
    pass


def test_bench_pair_makes_out_before_the_first_run(tmp_path, monkeypatch):
    pair = load("bench_pair")
    out = tmp_path / "missing" / "nested"

    def git(*args):  # the first step after the check
        assert out.is_dir()
        raise Started

    monkeypatch.setattr(pair, "git", git)
    with pytest.raises(Started):
        pair.main(["HEAD", "HEAD", "--out", str(out)])


def test_bench_pair_rejects_an_unusable_out_before_the_first_run(
        tmp_path, monkeypatch):
    pair = load("bench_pair")
    blocker = tmp_path / "file"
    blocker.write_text("")

    def git(*args):
        raise AssertionError("started before checking --out")

    monkeypatch.setattr(pair, "git", git)
    with pytest.raises(SystemExit, match="cannot make --out"):
        pair.main(["HEAD", "HEAD", "--out", str(blocker / "sub")])
