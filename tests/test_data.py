import pytest

from logdetreg.data import CsvFormatError, load_csv


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
