import numpy as np
import pytest

from logdetreg import gen_series
from logdetreg.data import _BLOCK_ROWS, CsvFormatError, Dataset, load_csv, save_csv
from logdetreg.errors import DimensionMismatch

from conftest import csv_oracle, oracle_recipes

EDGE_VALUES = Dataset(
    np.array([[-0.0, 1e-300], [5e20, 0.1], [-1.5e-7, 2.0**-1074]]),
    np.array([[5e20], [-0.0], [1e-300]]),
)


def lagged_series(n, d=2, exogenous=0, seed=0):
    """A dataset whose first d inputs are the previous row's outputs, bit
    for bit, as in a simulated NAR series."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, d))
    z = np.empty((n, d + exogenous))
    z[0, :d] = rng.standard_normal(d)
    z[1:, :d] = y[:-1]
    z[:, d:] = rng.uniform(-1.0, 1.0, size=(n, exogenous))
    return z, y


def broken_lag(row):
    z, y = lagged_series(600)
    z[row, 0] = np.nextafter(z[row, 0], np.inf)
    return Dataset(z, y)


def signed_zero_lag(state, lagged_copy):
    z, y = lagged_series(300)
    y[100] = state
    z[101] = lagged_copy
    return Dataset(z, y)


def strided(n):
    """Lagged inputs and outputs as views with strides of two elements."""
    z, y = lagged_series(n, exogenous=1)
    zbig = np.zeros((n, 2 * z.shape[1]))
    ybig = np.zeros((2 * n, y.shape[1]))
    zbig[:, ::2] = z
    ybig[::2] = y
    return Dataset(zbig[:, ::2], ybig[::2])


WRITER_EDGE_CASES = {
    # -0.0 is not a lagged copy of 0.0, nor 0.0 of -0.0; -0.0 of -0.0 is
    "negative_zero_after_zero": lambda: signed_zero_lag(0.0, -0.0),
    "zero_after_negative_zero": lambda: signed_zero_lag(-0.0, 0.0),
    "negative_zero_after_negative_zero": lambda: signed_zero_lag(-0.0, -0.0),
    "lag_broken_at_row_1": lambda: broken_lag(1),
    "lag_broken_at_block_boundary": lambda: broken_lag(_BLOCK_ROWS),
    "lag_broken_at_last_row": lambda: broken_lag(599),
    "n_1": lambda: Dataset(*lagged_series(1)),
    "n_block": lambda: Dataset(*lagged_series(_BLOCK_ROWS)),
    "n_block_plus_1": lambda: Dataset(*lagged_series(_BLOCK_ROWS + 1)),
    "d_1": lambda: Dataset(*lagged_series(700, d=1)),
    "exogenous": lambda: Dataset(*lagged_series(700, exogenous=2)),
    "iid": lambda: Dataset(*(np.random.default_rng(1).standard_normal((700, k)) for k in (3, 2))),
    "fortran_order": lambda: Dataset(*map(np.asfortranarray, lagged_series(700, exogenous=1))),
    "strided": lambda: strided(700),
}


DATASETS = [*oracle_recipes(), "edge_values", *WRITER_EDGE_CASES]


def dataset(name):
    if name == "edge_values":
        return EDGE_VALUES
    if name in WRITER_EDGE_CASES:
        return WRITER_EDGE_CASES[name]()
    return gen_series(oracle_recipes()[name])


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


@pytest.mark.parametrize(
    "text, line",
    [("", "line 1: empty file"), ("z1,y1\n1.0,2.0\n1.0\n", "line 3: expected 2 fields, got 1"),
     ("z1,y1\n\n", "line 2: no data rows")],
    ids=["empty_file", "wrong_field_count", "no_data_rows"],
)
def test_malformed_file_names_line(tmp_path, text, line):
    with pytest.raises(CsvFormatError, match=line):
        load_csv(write(tmp_path, text))


@pytest.mark.parametrize(
    "inputs, outputs", [(np.ones((3, 2)), np.ones((2, 1))), (np.ones(3), np.ones((3, 1)))],
    ids=["row_counts", "one_dimensional"],
)
def test_dataset_rejects_inconsistent_shapes(inputs, outputs):
    with pytest.raises(DimensionMismatch, match="inconsistent"):
        Dataset(inputs, outputs)


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


@pytest.mark.parametrize("column", ["inputs", "outputs"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_csv_rejects_non_finite_before_opening(tmp_path, column, value):
    z, y = lagged_series(300)
    (z if column == "inputs" else y)[257, 0] = value
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"z1,z2,y1,y2\r\n1.0,2.0,3.0,4.0\r\n")
    with pytest.raises(DimensionMismatch, match="finite"):
        save_csv(existing, Dataset(z, y))
    assert existing.read_bytes() == b"z1,z2,y1,y2\r\n1.0,2.0,3.0,4.0\r\n"
    with pytest.raises(DimensionMismatch, match="finite"):
        save_csv(tmp_path / "new.csv", Dataset(z, y))
    assert not (tmp_path / "new.csv").exists()


def test_save_csv_rejects_no_rows_before_opening(tmp_path):
    # load_csv rejects a header without rows, so none is written
    empty = Dataset(np.empty((0, 2)), np.empty((0, 2)))
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"z1,z2,y1,y2\r\n1.0,2.0,3.0,4.0\r\n")
    with pytest.raises(DimensionMismatch, match="rows"):
        save_csv(existing, empty)
    assert existing.read_bytes() == b"z1,z2,y1,y2\r\n1.0,2.0,3.0,4.0\r\n"
    with pytest.raises(DimensionMismatch, match="rows"):
        save_csv(tmp_path / "new.csv", empty)
    assert not (tmp_path / "new.csv").exists()
