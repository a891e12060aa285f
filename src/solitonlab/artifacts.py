"""Run artifacts: field snapshots, observable tables, plot scripts.

One snapshot format per dimensionality. 1D snapshots are plain text: a
single '#' header line declaring the grid, the time, the transform
convention, and the physical parameters, then a CSV table with columns
x, re_psi, im_psi, phi. 3D snapshots keep the same header line (plus an
explicit axis-ordering declaration) and follow it with the three field
arrays flattened in C order as little-endian float64, since a 3D CSV
would be both huge and ambiguous.

Observable tables are RFC-4180-style CSV with a header row; floats are
written with repr so a round trip through the file is exact.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields
from operator import attrgetter
from typing import Sequence, get_type_hints

import numpy as np

from .diagnostics import ObservableRecord
from .model import FieldState, PhysicalParams, make_grid

SNAPSHOT_MAGIC = "solitonlab-snapshot"
_BINARY_DTYPE = "<f8"  # little endian, explicit on every platform
# rows of a 1D snapshot formatted per write: about 20 kB of text, where
# the whole n = 4096 table is 0.4 MB (1.1 MB traced with its floats)
_SNAPSHOT_BLOCK = 256


def _header_line(state: FieldState) -> str:
    g, p = state.grid, state.params
    fields = [
        SNAPSHOT_MAGIC,
        f"dim={g.dim}",
        f"n={g.n}",
        f"length={g.length!r}",
        f"spacing={g.spacing!r}",
        f"t={float(state.t)!r}",
        "transform=unitary-norm fft (forward 1/N)",
        f"M={p.M!r}", f"m={p.m!r}", f"v={p.v!r}",
    ]
    if g.transverse_mode is not None:
        gam, eps = g.transverse_mode
        fields.append(f"transverse=gamma:{gam!r},eps:{eps!r}")
    if g.dim == 3:
        fields.append(f"layout=C-order axes (x,y,z), arrays "
                      f"re_psi,im_psi,phi concatenated, dtype {_BINARY_DTYPE}")
    else:
        fields.append("columns=x,re_psi,im_psi,phi")
    return "# " + " | ".join(fields)


def write_snapshot(path: str, state: FieldState) -> None:
    """Write a field snapshot; format is chosen by the grid dimension."""
    header = _header_line(state)
    if state.grid.dim == 1:
        # the bytes csv.writer gives for these rows (no field needs
        # quoting, CRLF row ends), formatted from Python floats and
        # written _SNAPSHOT_BLOCK rows at a time, so the text of the whole
        # table is never held
        columns = [np.asarray(a, dtype=float)
                   for a in (state.grid.axis, state.psi.real,
                             state.psi.imag, state.phi)]
        with open(path, "w", newline="") as fh:
            fh.write(f"{header}\nx,re_psi,im_psi,phi\r\n")
            for i in range(0, state.grid.n, _SNAPSHOT_BLOCK):
                rows = zip(*(c[i:i + _SNAPSHOT_BLOCK].tolist()
                             for c in columns))
                fh.write("".join(f"{x!r},{re!r},{im!r},{ph!r}\r\n"
                                 for x, re, im, ph in rows))
        return
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for arr in (state.psi.real, state.psi.imag, state.phi):
            fh.write(np.ascontiguousarray(arr, dtype=_BINARY_DTYPE).tobytes())


def _parse_header(line: str) -> dict[str, str]:
    body = line.lstrip("#").strip()
    parts = [p.strip() for p in body.split("|")]
    if not parts or parts[0] != SNAPSHOT_MAGIC:
        raise ValueError(f"not a snapshot header: {line[:60]!r}")
    out: dict[str, str] = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        out[key.strip()] = value.strip()
    return out


def read_snapshot(path: str) -> FieldState:
    """Inverse of write_snapshot (phi_prev is not stored and reads None)."""
    with open(path, "rb") as fh:
        header = _parse_header(fh.readline().decode("utf-8"))
        payload = fh.read()
    dim, n = int(header["dim"]), int(header["n"])
    transverse = None
    if "transverse" in header:
        gam, eps = (float(tok.split(":")[1])
                    for tok in header["transverse"].split(","))
        transverse = (gam, eps)
    grid = make_grid(dim, n, float(header["length"]),
                     transverse_mode=transverse)
    params = PhysicalParams(M=float(header["M"]), m=float(header["m"]),
                            v=float(header["v"]))
    if dim == 1:
        text = payload.decode("utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        data = np.array([[float(c) for c in row] for row in rows[1:]])
        if data.shape != (n, 4):
            raise ValueError(f"snapshot table has shape {data.shape}, "
                             f"expected ({n}, 4)")
        psi = data[:, 1] + 1j * data[:, 2]
        phi = data[:, 3]
    else:
        flat = np.frombuffer(payload, dtype=_BINARY_DTYPE)
        if flat.size != 3 * n**3:
            raise ValueError(f"snapshot payload holds {flat.size} values, "
                             f"expected {3 * n**3}")
        re, im, phi = flat.reshape(3, n, n, n)
        psi = re + 1j * im
        phi = np.ascontiguousarray(phi)
    return FieldState(t=float(header["t"]), psi=psi, phi=phi,
                      params=params, grid=grid)


# the observables table: one column per ObservableRecord field, in field
# order, each with the field's type (float cells in repr, bool ones as
# true/false)
_TYPES = get_type_hints(ObservableRecord)
_COLUMNS = tuple((f.name, _TYPES[f.name]) for f in fields(ObservableRecord))
_COLUMN_NAMES = ObservableRecord.field_names()
_RECORD_VALUES = attrgetter(*_COLUMN_NAMES)
# a row as csv.writer writes it: no cell needs quoting, CRLF row ends
_ROW = ",".join("%s" if kind is bool else "%r" for _, kind in _COLUMNS) \
    + "\r\n"
# a cell's value as _ROW takes it: true/false, or a Python float (the repr
# of a numpy scalar names its type)
_CELLS = tuple((lambda v: "true" if v else "false") if kind is bool
               else float for _, kind in _COLUMNS)


def _parse_cell(text: str, kind: type) -> float | bool:
    return text == "true" if kind is bool else float(text)


def observables_csv_text(records: Sequence[ObservableRecord]) -> str:
    """The table's text, every row formatted from one template."""
    return ",".join(_COLUMN_NAMES) + "\r\n" + "".join(
        [_ROW % tuple([cell(value) for cell, value
                       in zip(_CELLS, _RECORD_VALUES(rec))])
         for rec in records])


def write_observables_csv(path: str,
                          records: Sequence[ObservableRecord]) -> None:
    """The table, written in one call."""
    with open(path, "w", newline="") as fh:
        fh.write(observables_csv_text(records))


def read_observables_csv(path: str) -> list[ObservableRecord]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != _COLUMN_NAMES:
        raise ValueError(f"unexpected observables header in {path}")
    return [ObservableRecord(**{name: _parse_cell(text, kind)
                                for (name, kind), text in zip(_COLUMNS, row)})
            for row in rows[1:]]


def _column(name: str) -> int:
    """The table column of a field, counted from 1 as gnuplot does."""
    return _COLUMN_NAMES.index(name) + 1


# one panel per plotted column against t: (column, y-axis label)
_PLOT_PANELS = (
    ("norm", "field norm"),
    ("width", "density width"),
    ("peak_pos", "density peak position"),
    ("phi_min", "scalar field minimum"),
)


def write_plot_script(path: str, csv_name: str, title: str) -> None:
    """Declarative gnuplot commands against the observables CSV.

    The run itself never renders anything; this file documents which
    columns mean what and can be fed to gnuplot as-is.
    """
    lines = [
        f"# observables from {csv_name}: columns "
        + ", ".join(f"{i + 1}={name}"
                    for i, name in enumerate(_COLUMN_NAMES)),
        "set datafile separator comma",
        "set key autotitle columnhead",
        f"set title '{title}'",
        "set xlabel 't'",
        "set terminal pngcairo size 1200,800",
        "set output 'observables.png'",
        "set multiplot layout 2,2",
    ]
    for name, label in _PLOT_PANELS:
        lines.append(f"set ylabel '{label}'")
        lines.append(f"plot '{csv_name}' using {_column('t')}:"
                     f"{_column(name)} with lines title '{name}'")
    lines.append("unset multiplot")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
