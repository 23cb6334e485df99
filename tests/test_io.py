import numpy as np
import pytest

from sktlab import io


def test_config_hash_stable_and_order_free():
    h1 = io.config_hash({"a": 1.0, "b": 2})
    h2 = io.config_hash({"b": 2, "a": 1.0})
    assert h1 == h2
    assert len(h1) == 16
    assert io.config_hash({"a": 1.0000001, "b": 2}) != h1


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    io.write_csv(str(path), {"x": [0.5, 1.5], "y": [1.0 / 3.0, 2.0]},
                 "solve", {"k": 1}, metadata={"note": "z", "val": 2.5})
    lines = path.read_text().splitlines()
    assert lines[0] == f"# sktlab {io.VERSION}"
    assert lines[1] == "# command: solve"
    assert any(l == "# note: z" for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "x,y"
    # full precision round trip
    assert float(data[1].split(",")[1]) == 1.0 / 3.0


def test_write_csv_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        io.write_csv(str(tmp_path / "bad.csv"), {"x": [1.0], "y": [1.0, 2.0]},
                     "solve", {})


def test_write_metadata(tmp_path):
    path = tmp_path / "meta.txt"
    io.write_metadata(str(path), "bounds", {"k": 1}, {"u_bound": 12.5})
    text = path.read_text()
    assert "u_bound = 12.5" in text
    assert text.startswith("# sktlab")


def _data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("values", [
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1.0 / 3.0, 1e300],
    np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, -2.5e-17, 1.7976931348623157e308]),
    [1, -2, 0, 12345678901234567890],
    ["a", "b c", "%s", "%.17g"],
    [True, False, True, False],
    [1, 2.5, "x", True, float("nan"), -0.0, None, np.float64(0.1)],
    np.array([3, -4, 5], dtype=np.int64),
    np.array([True, False]),
    [np.float64(0.1), np.float64(-0.0), np.float64(np.inf)],
])
def test_write_csv_cells_match_per_cell_fmt(tmp_path, values):
    # the writer formats whole rows; every cell must be what _fmt writes
    path = tmp_path / "c.csv"
    io.write_csv(str(path), {"a": values, "b": list(range(len(values)))}, "t", {})
    rows = _data_lines(path)[1:]
    assert rows == [f"{io._fmt(v)},{i}" for i, v in enumerate(list(values))]


def test_write_csv_float_cells_round_trip(tmp_path):
    vals = np.random.default_rng(3).standard_normal(257) * 10.0 ** np.arange(-128, 129)
    path = tmp_path / "f.csv"
    io.write_csv(str(path), {"v": vals}, "t", {})
    rows = _data_lines(path)[1:]
    assert rows == [format(v, ".17g") for v in vals.tolist()]
    assert np.array_equal(np.array([float(r) for r in rows]), vals)


def test_write_csv_ignores_stale_tmp_path(tmp_path):
    # a directory sitting at the old fixed temp name does not block the write
    (tmp_path / "out.csv.tmp").mkdir()
    io.write_csv(str(tmp_path / "out.csv"), {"x": [1.0]}, "t", {})
    io.write_metadata(str(tmp_path / "meta.txt"), "t", {}, {"k": 1.0})
    assert _data_lines(tmp_path / "out.csv") == ["x", "1"]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["meta.txt", "out.csv", "out.csv.tmp"]


def test_write_csv_failed_rename_leaves_no_tmp(tmp_path):
    (tmp_path / "dir.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        io.write_csv(str(tmp_path / "dir.csv"), {"x": [1.0]}, "t", {})
    assert [p.name for p in tmp_path.iterdir()] == ["dir.csv"]


def test_version_is_package_version():
    import sktlab
    assert io.VERSION == sktlab.__version__
