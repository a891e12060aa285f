"""Snapshot, observable table, and plot script round trips."""

from __future__ import annotations

import csv
import io
import tracemalloc

import numpy as np
import pytest

from solitonlab.artifacts import (
    read_observables_csv, read_snapshot, write_observables_csv,
    write_plot_script, write_snapshot,
)
from solitonlab.diagnostics import ObservableRecord
from solitonlab.model import FieldState, PhysicalParams, make_grid


def _random_state(dim: int, n: int, seed: int = 7,
                  transverse=None) -> FieldState:
    rng = np.random.default_rng(seed)
    grid = make_grid(dim, n, 12.5, transverse_mode=transverse)
    shape = grid.shape
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    phi = rng.standard_normal(shape)
    params = PhysicalParams(M=1.25, m=0.375, v=0.875)
    return FieldState(t=2.75, psi=psi, phi=phi, params=params, grid=grid)


def _csv_writer_table(state: FieldState) -> bytes:
    """The 1D snapshot table as csv.writer writes it for repr'd floats,
    the format's definition: header row, then x, re_psi, im_psi, phi."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["x", "re_psi", "im_psi", "phi"])
    for x, re, im, ph in zip(state.grid.axis, state.psi.real,
                             state.psi.imag, state.phi):
        writer.writerow([repr(float(v)) for v in (x, re, im, ph)])
    return text.getvalue().encode()


class TestSnapshots:
    def test_1d_round_trip_is_exact(self, tmp_path):
        state = _random_state(1, 64)
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), state)
        back = read_snapshot(str(path))
        assert back.t == state.t
        assert back.grid.dim == 1 and back.grid.n == 64
        assert back.grid.length == state.grid.length
        assert back.params == state.params
        np.testing.assert_array_equal(back.psi, state.psi)
        np.testing.assert_array_equal(back.phi, state.phi)
        assert back.phi_prev is None

    def test_1d_bytes_match_csv_writer(self, tmp_path):
        # the table is built by hand; it must be what csv.writer writes
        # for repr'd floats, CRLF row ends included
        state = _random_state(1, 16)
        psi, phi = state.psi.copy(), state.phi.copy()
        psi[:4] = [complex(-0.0, 1e-300), complex(1e-300, -0.0),
                   complex(5e+20, 0.1), complex(0.1, 5e+20)]
        phi[:4] = [-0.0, 1e-300, 5e+20, 0.1]
        state = FieldState(t=state.t, psi=psi, phi=phi, params=state.params,
                           grid=state.grid)
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), state)
        header, _, table = path.read_bytes().partition(b"\n")
        assert header.startswith(b"# solitonlab-snapshot")
        assert table == _csv_writer_table(state)
        assert b"-0.0,1e-300,-0.0\r\n" in table

    @pytest.mark.parametrize("n, block", [(16, None), (1024, 100),
                                          (4096, None)])
    def test_1d_blocks_match_csv_writer(self, tmp_path, monkeypatch, n,
                                        block):
        # the rows are written a block at a time: under one block at
        # n = 16, 16 whole blocks at n = 4096, and a partial last block
        # (10 blocks of 100 rows, then 24) at n = 1024: a grid is a power of
        # two, so the block is set smaller
        if block is not None:
            monkeypatch.setattr("solitonlab.artifacts._SNAPSHOT_BLOCK", block)
        state = _random_state(1, n, seed=n)
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), state)
        assert path.read_bytes().partition(b"\n")[2] \
            == _csv_writer_table(state)

    def test_1d_write_peak_memory(self, tmp_path):
        # traced peak of a 4096-point write: 87,357 bytes (numpy 2.4.6),
        # one block's floats and text. The bound is that plus 10 %; the
        # whole table's text and floats (1.06 MB) fail it
        state = _random_state(1, 4096)
        path = tmp_path / "snap.csv"
        # a first write, so what is allocated once per process (120.6 kB
        # traced in all) stays outside the trace
        write_snapshot(str(path), state)
        tracemalloc.start()
        try:
            write_snapshot(str(path), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96_100

    def test_1d_transverse_mode_survives(self, tmp_path):
        state = _random_state(1, 32, transverse=(0.25, -0.5))
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), state)
        back = read_snapshot(str(path))
        assert back.grid.transverse_mode == (0.25, -0.5)

    def test_3d_round_trip_is_exact(self, tmp_path):
        state = _random_state(3, 16)
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), state)
        back = read_snapshot(str(path))
        assert back.grid.dim == 3 and back.grid.n == 16
        np.testing.assert_array_equal(back.psi, state.psi)
        np.testing.assert_array_equal(back.phi, state.phi)

    def test_header_is_human_readable(self, tmp_path):
        state = _random_state(1, 32)
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), state)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# solitonlab-snapshot")
        for token in ("dim=1", "n=32", "t=2.75", "unitary-norm fft"):
            assert token in header

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="not a snapshot header"):
            read_snapshot(str(path))

    def test_rejects_truncated_3d_payload(self, tmp_path):
        state = _random_state(3, 16)
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), state)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload holds"):
            read_snapshot(str(path))

    def test_rejects_wrong_row_count_1d(self, tmp_path):
        state = _random_state(1, 32)
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), state)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="shape"):
            read_snapshot(str(path))


def _records() -> list[ObservableRecord]:
    rng = np.random.default_rng(3)
    out = []
    for i in range(5):
        vals = rng.standard_normal(5)
        out.append(ObservableRecord(
            t=0.1 * i, norm=float(abs(vals[0])), centroid=float(vals[1]),
            width=float(abs(vals[2])), peak_pos=float(vals[3]),
            phi_min=float(vals[4]), valid=(i != 3)))
    return out


class TestObservablesCsv:
    def test_round_trip_is_exact(self, tmp_path):
        records = _records()
        path = tmp_path / "obs.csv"
        write_observables_csv(str(path), records)
        assert read_observables_csv(str(path)) == records

    def test_header_row_is_checked(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected observables header"):
            read_observables_csv(str(path))

    def test_invalid_flag_round_trips(self, tmp_path):
        records = _records()
        path = tmp_path / "obs.csv"
        write_observables_csv(str(path), records)
        back = read_observables_csv(str(path))
        assert [r.valid for r in back] == [True, True, True, False, True]


    def test_bytes_match_csv_writer(self, tmp_path):
        # the table's definition: csv.writer rows of repr'd floats and
        # true/false, for values whose repr is special, numpy scalars
        # (measure's centroid is one) and both flags
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e+20,
                    0.1, np.float64(-2.5), np.float64(np.nan)]
        records = [ObservableRecord(
            t=0.25 * i, norm=specials[i], centroid=specials[-1 - i],
            width=specials[(3 * i) % 10], peak_pos=-specials[i],
            phi_min=specials[(7 * i) % 10], valid=i % 2 == 0)
            for i in range(10)]
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(ObservableRecord.field_names())
        for rec in records:
            writer.writerow(
                [("true" if v else "false") if isinstance(v, bool)
                 else repr(float(v))
                 for v in (getattr(rec, f)
                           for f in ObservableRecord.field_names())])
        path = tmp_path / "obs.csv"
        write_observables_csv(str(path), records)
        assert path.read_bytes() == text.getvalue().encode()
        write_observables_csv(str(path), [])
        assert path.read_bytes() == \
            b"t,norm,centroid,width,peak_pos,phi_min,valid\r\n"


class TestPlotScript:
    def test_script_references_the_table(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_plot_script(str(path), "observables.csv", "demo run")
        text = path.read_text()
        assert "observables.csv" in text
        assert "set multiplot layout 2,2" in text
        assert text.count("plot '") == 4

    def test_columns_follow_record_order(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_plot_script(str(path), "obs.csv", "demo")
        text = path.read_text()
        names = ObservableRecord.field_names()
        assert f"using 1:{names.index('width') + 1}" in text
        assert f"using 1:{names.index('phi_min') + 1}" in text
