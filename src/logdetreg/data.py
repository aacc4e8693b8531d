"""Dataset container and CSV round trip.

The on-disk format is a plain comma-separated UTF-8 file: a mandatory
header ``z1..z{d'},y1..y{d}`` (in that order), then one row per
observation, z fields before y fields, with dot decimals and finite
numeric fields only.  ``save_csv`` ends every line, the header's too, with
CRLF (``\\r\\n``) and writes each float as its Python ``repr``, the shortest
string that reads back to the same double, so ``load_csv(save_csv(ds))``
is exact.  ``load_csv`` accepts LF or CRLF line endings.

``save_csv`` raises DimensionMismatch for a dataset with no rows or a
non-finite value before it opens the file, so it never writes a file that
``load_csv`` rejects.  It formats blocks of rows column by column; when
the first d inputs repeat the previous row's outputs bit for bit, as in a
NAR series, each state is formatted once and its text serves as y in row
t and as z in row t + 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_BLOCK_ROWS = 256


class CsvFormatError(ValueError):
    """Malformed CSV; message names the offending line."""


@dataclass(frozen=True)
class Dataset:
    """n rows of (z_t, y_t) pairs."""

    inputs: np.ndarray   # (n, d')
    outputs: np.ndarray  # (n, d)

    def __post_init__(self):
        z = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if z.ndim != 2 or y.ndim != 2 or z.shape[0] != y.shape[0]:
            raise DimensionMismatch(f"inconsistent dataset shapes {z.shape}, {y.shape}")
        object.__setattr__(self, "inputs", z)
        object.__setattr__(self, "outputs", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[1]


def save_csv(path, ds: Dataset) -> None:
    z, y = ds.inputs, ds.outputs
    if ds.n == 0:
        raise DimensionMismatch("dataset must have rows to be saved")
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        raise DimensionMismatch("dataset must be finite to be saved")
    d = ds.output_dim
    header = [f"z{i + 1}" for i in range(ds.input_dim)]
    header += [f"y{i + 1}" for i in range(d)]
    # a NAR series holds every state twice, as y in row t and as z in row
    # t + 1; when the first d inputs repeat the previous outputs bit for bit
    # (a uint64 view, so -0.0 never stands in for 0.0) each state's text is
    # made once and the z text is the y text one row down
    lagged = ds.n > 1 and np.array_equal(z[1:, :d].view(np.uint64), y[:-1].view(np.uint64))
    state = [repr(v) for v in z[0, :d].tolist()] if lagged else None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # a block of rows at a time, neither a copy of the whole dataset nor
        # every row as a list held at once, formatted column by column: the
        # repr of each Python float of the block's transposed lists (numpy
        # 2's repr of an np.float64 is "np.float64(...)"), then one line per
        # row.  Lagged, only the first row's state is formatted on its own
        for start in range(0, ds.n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            ycols = [list(map(repr, col)) for col in y[rows].T.tolist()]
            if lagged:
                zcols = [[s, *col[:-1]] for s, col in zip(state, ycols)]
                zcols += [list(map(repr, col)) for col in z[rows, d:].T.tolist()]
                state = [col[-1] for col in ycols]
            else:
                zcols = [list(map(repr, col)) for col in z[rows].T.tolist()]
            fh.write("\r\n".join(map(",".join, zip(*zcols, *ycols))) + "\r\n")


def load_csv(path) -> Dataset:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file, header required") from None
        names = [name.strip() for name in header]
        din = sum(1 for name in names if name.startswith("z"))
        dout = len(names) - din
        expected = [f"z{i + 1}" for i in range(din)] + [f"y{i + 1}" for i in range(dout)]
        if din < 1 or dout < 1 or names != expected:
            raise CsvFormatError(f"line 1: header must be z1..z{{d'}},y1..y{{d}}, got {header}")
        zs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != din + dout:
                raise CsvFormatError(f"line {lineno}: expected {din + dout} fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-numeric field") from None
            if not all(map(math.isfinite, vals)):
                raise CsvFormatError(f"line {lineno}: non-finite field")
            zs.append(vals[:din])
            ys.append(vals[din:])
    if not zs:
        raise CsvFormatError("line 2: no data rows")
    return Dataset(np.asarray(zs), np.asarray(ys))
