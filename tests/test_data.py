import numpy as np
import pytest

from logdetreg import gen_series
from logdetreg.data import CsvFormatError, Dataset, load_csv, save_csv

from conftest import csv_oracle, oracle_recipes

EDGE_VALUES = Dataset(
    np.array([[-0.0, 1e-300], [5e20, 0.1], [-1.5e-7, 2.0**-1074]]),
    np.array([[5e20], [-0.0], [1e-300]]),
)

DATASETS = [*oracle_recipes(), "edge_values"]


def dataset(name):
    return EDGE_VALUES if name == "edge_values" else gen_series(oracle_recipes()[name])


def write(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "header", ["y1,z1", "z2,z1,y1", "z1,y2,y1", "z1,z3,y1", "z1,y1,z2", "z1,x1", "z1,z2"]
)
def test_header_must_be_ordered_z_then_y(tmp_path, header):
    width = header.count(",") + 1
    path = write(tmp_path, header + "\n" + ",".join(["1.0"] * width) + "\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_csv(path)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_field_names_line(tmp_path, field):
    path = write(tmp_path, f"z1,y1\n1.0,2.0\n\n3.0,{field}\n")
    with pytest.raises(CsvFormatError, match="line 4"):
        load_csv(path)


@pytest.mark.parametrize("name", DATASETS)
def test_save_csv_bytes_equal_to_oracle(tmp_path, name):
    ds = dataset(name)
    save_csv(tmp_path / "got.csv", ds)
    csv_oracle(tmp_path / "want.csv", ds)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == ds.n + 1


@pytest.mark.parametrize("name", DATASETS)
def test_save_load_round_trip_is_exact(tmp_path, name):
    ds = dataset(name)
    save_csv(tmp_path / "d.csv", ds)
    back = load_csv(tmp_path / "d.csv")
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert back.outputs.tobytes() == ds.outputs.tobytes()
