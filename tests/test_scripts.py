"""Smoke test of the cold-start reporting script on a tiny input."""

import importlib.util
import math
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_cold_start_benchmark.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_cold_start_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_start_script_reports_each_p(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lines = [f"u{u}\ti{i}\t{rng.integers(1, 6)}"
             for u in range(12) for i in rng.choice(10, size=int(rng.integers(4, 8)), replace=False)]
    raw = tmp_path / "ratings.tsv"
    raw.write_text("\n".join(lines) + "\n")
    report = tmp_path / "bench.tsv"
    code = load_script().main(["--input", str(raw), "--epochs", "2", "--p-values", "1,2",
                               "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("P\t")
    assert [line.split("\t")[0] for line in out[1:]] == ["1", "2"]
    rows = [line.split("\t") for line in report.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "2"]
    for row in rows:
        metrics = [float(v) for v in row[1:5]]
        assert all(0.0 <= v <= 1.0 and math.isfinite(v) for v in metrics)
