import json
import math

import pytest

from flowtree.cli import main


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_kernel_table_row_count_and_determinism(capsys):
    argv = ["kernel", "--q", "2,3", "--t", "1,4", "--d", "0,1,2,3"]
    code, out1 = _run(capsys, argv)
    assert code == 0
    code, out2 = _run(capsys, argv)
    assert out1 == out2
    data_lines = [l for l in out1.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 1 + 2 * 2 * 4  # header + |q| * |t| * |d|


def test_kernel_single_entry_matches_library(capsys):
    code, out = _run(capsys, ["kernel", "--q", "2", "--t", "1", "--d", "0"])
    assert code == 0
    row = [l for l in out.splitlines() if l and not l.startswith("#")][1]
    value = float(row.split(",")[5])
    from flowtree.heat import KernelQuery, kernel
    from flowtree.tree import Rel, TreeParams

    assert value == pytest.approx(kernel(KernelQuery(1.0, 0, 0, Rel.EQUAL), TreeParams(2)))


def test_sums_json_output(capsys):
    code, out = _run(capsys, ["sums", "--q", "2", "--t", "1,4,16,64",
                              "--eps", "0", "--format", "json", "--tol", "1e-9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "sums"
    assert len(doc["cells"]) == 4 * 4 * 2
    assert all(isinstance(c["k_stop"], int) and c["k_stop"] >= 1 for c in doc["cells"])
    assert "H/none" in doc["summary"]


def test_verify_subset_passes(capsys):
    code, out = _run(capsys, ["verify", "--criteria", "8"])
    assert code == 0
    assert "PASS criterion  8" in out


def test_verify_negative_control_fails(capsys):
    code, out = _run(capsys, ["verify", "--criteria", "5", "--claimed-power-h", "1.0"])
    assert code == 1
    assert "FAIL criterion  5" in out


def test_spectrum_command(capsys):
    code, out = _run(capsys, ["spectrum", "--q", "2", "--radius", "6"])
    assert code == 0
    assert "radial_flow_bounds" in out
    assert "dense_flow_extremes" in out


def test_walk_command_deterministic(capsys):
    argv = ["walk", "--q", "2", "--t", "2", "--walks", "5000", "--seed", "3"]
    code, out1 = _run(capsys, argv)
    assert code == 0
    _, out2 = _run(capsys, argv)
    assert out1 == out2
    assert "seed=3" in out1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--rel", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # walk runs one configuration; a list must not shrink to its head
    for option in ("--q", "--t"):
        with pytest.raises(SystemExit) as exc:
            main(["walk", option, "2,3"])
        assert exc.value.code == 2


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("walks=2000\nseed=9\n")
    code, out = _run(capsys, ["walk", "--config", str(cfg)])
    assert code == 0
    assert "walks=2000" in out and "seed=9" in out


def test_kernel_config_file_list_values(tmp_path, capsys):
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text("q=2,3\nt=1.0,2.0\nlevel-sum=2\n")
    code, out = _run(capsys, ["kernel", "--config", str(cfg), "--d", "0,2"])
    assert code == 0
    assert "# q=[2, 3]" in out and "# t=[1.0, 2.0]" in out and "# level_sum=2" in out
    data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 1 + 2 * 2 * 2


def test_kernel_large_time_is_finite(capsys):
    code, out = _run(capsys, ["kernel", "--t", "1e6"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 9
    for row in rows:
        values = [float(v) for v in row.split(",")[5:]]
        assert all(math.isfinite(v) for v in values)
        assert values[0] > 0.0


def test_version_strings_agree(capsys):
    import flowtree

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == flowtree.__version__
    _, out = _run(capsys, ["kernel", "--d", "0"])
    assert out.splitlines()[0] == f"# flowtree={flowtree.__version__}"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main(["kernel", "--q", "2", "--t", "1", "--d", "0,1",
                 "--output", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("# flowtree=")
    assert "q,t,d" in text
