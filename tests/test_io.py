"""The CSV table layer: exact round trips and byte-level pins of the figure outputs."""

import dataclasses
import hashlib
import math
import os
import weakref
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsbshaper import cli, figures, ftsi, pulsefield
from bsbshaper import io as table_io
from bsbshaper.cli import main
from bsbshaper.config import RunConfig
from bsbshaper.errors import GridMismatchError
from bsbshaper.io import meta_line, read_table, write_table
from bsbshaper.pulsefield import (SpectralGrid, read_field_csv, read_grid_table, write_field_csv,
                                  write_grid_table)

# sha256 of the non-comment lines of every default-config figure output (n = 4096)
FIGURE_DATA_SHA256 = {
    "fig2_spectra.csv": "2dbce27ce32a12cc3dfca692d543bb5eae13c834ee88d8c5c0f25740e2a0d54a",
    "fig2_ratio.csv": "7d9864f47d8ea5af9b6069172000abdaecf9e2e3f630c7f67256eaba143aa4cb",
    "fig3_interferogram_with_bsb.csv":
        "e0b72bdb0e79a0d512ece88e0147915668000d32ad5c71be48df8e5d868a251a",
    "fig3_interferogram_without_bsb.csv":
        "31b0a96f513956475dd4ea85672139c7cb194b4bd791b93900e1e98a0987b62a",
    "fig3_retrieved_phase.csv": "fcbe3d41b6e2df9b9942f36dd6634cd3a31ee87983326b6524a62efad0f2702b",
    "fig4_spectra.csv": "05159fe2bb3253c250e67130deed2176851494eb3f2f31cb8db0c457c9b52694",
    "fig4_ratio.csv": "5635ba9757efb65cf4814fab2093c952460b40ce7f94b106f71842901200b930",
    "fig5_interferogram_with_bsb.csv":
        "277ef793bd93848185cbfaa8207bc9450d6d8cc5e55d2f60351df1e38e667499",
    "fig5_interferogram_without_bsb.csv":
        "31b0a96f513956475dd4ea85672139c7cb194b4bd791b93900e1e98a0987b62a",
    "fig5_retrieved_phase.csv": "ee505546d650dad06d3570a3163441d11f1bb2e6cc040669a9d3a805180e3d4c",
    "fig5_jump_report.txt": "b6b95aabb0b139a3819583c5819bc7534d5bf9acb277e7ba57d35c6ec8bc5166",
}


def _data_sha256(path):
    digest = hashlib.sha256()
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                digest.update(line.encode())
    return digest.hexdigest()


def test_figure_data_lines_pinned(tmp_path):
    config = RunConfig(outdir=str(tmp_path))
    written = {}
    for fig in figures.FIGURES:
        for path in figures.run_figure_pipeline(config, fig):
            written[os.path.basename(path)] = _data_sha256(path)
    assert written == FIGURE_DATA_SHA256


def test_table_roundtrip_is_exact(tmp_path):
    path = tmp_path / "table.csv"
    x = np.array([0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-17])
    flags = np.array([True, False, False, True, True, False])
    counts = np.arange(6, dtype=np.int32)
    header = [meta_line("omega0", np.float64(2.35e15)), meta_line("grid", 6, 0.5, 0.25),
              "# provenance: free text\n"]
    write_table(path, header, ["x", "flag", "count"], [x, flags, counts])
    assert path.read_text().splitlines()[3:5] == ["x,flag,count", "0.1,1,0"]
    meta, data = read_table(path, ("omega0", "grid"))
    assert meta == {"omega0": "2350000000000000.0", "grid": "6 0.5 0.25"}
    assert np.array_equal(data["x"], x)
    assert np.signbit(data["x"][2])
    assert np.array_equal(data["flag"].astype(bool), flags)
    assert np.array_equal(data["count"], counts)


def test_table_missing_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# grid=4 1.0 1.0\nx\n1.0\n")
    with pytest.raises(ValueError, match="metadata"):
        read_table(path, ("grid", "omega0"))


@pytest.mark.parametrize("body", ["1.0,2.0\n3.0\n", "1.0,2.0\n3.0,4.0,5.0\n",
                                  "1.0,abc\n"])
def test_table_malformed_row(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(ValueError, match="malformed row"):
        read_table(path)


def test_table_without_column_names(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# grid=4 1.0 1.0\n# omega0=2.0\n")
    with pytest.raises(ValueError, match="column-name line"):
        read_table(path, ("grid",))


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NOT_A_NUMBER = st.text(alphabet="abcdxyz_-+.", min_size=1, max_size=6).filter(
    lambda t: not _is_float(t))


@st.composite
def _broken_tables(draw):
    """(valid text, names, rows, broken text): one corruption of a valid table."""
    names = draw(st.lists(st.sampled_from(["re", "im", "omega", "phase", "masked"]),
                          min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(_CELL, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=12))
    comments = ["# grid=4 1.0 1.0\n", "# provenance text\n"]
    kind = draw(st.sampled_from(["truncated", "cell count", "non-numeric", "no names"]
                                if len(names) > 1 else ["cell count", "non-numeric", "no names"]))
    broken = [list(r) for r in rows]
    k = draw(st.integers(0, len(rows) - 1))
    if kind == "truncated":
        broken[k] = broken[k][:draw(st.integers(1, len(names) - 1))]
    elif kind == "cell count":
        broken[k] += draw(st.lists(_CELL, min_size=1, max_size=3))
    elif kind == "non-numeric":
        broken[k][draw(st.integers(0, len(names) - 1))] = draw(_NOT_A_NUMBER)

    def text(with_names, body):
        lines = [",".join(r) + "\n" for r in body]
        return "".join(comments + [",".join(names) + "\n"] * with_names + lines)

    if kind == "no names":
        return text(True, rows), names, rows, text(False, draw(st.sampled_from([rows, []])))
    return text(True, rows), names, rows, text(True, broken)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_broken_tables())
def test_read_table_fuzz_rejects_broken_tables(tmp_path, case):
    valid, names, rows, broken = case
    path = tmp_path / "table.csv"
    path.write_text(valid)
    _, data = read_table(path, ("grid",))
    assert list(data) == names
    assert np.array_equal(np.column_stack([data[n] for n in names]),
                          np.array(rows, dtype=float))
    path.write_text(broken)
    with pytest.raises(ValueError):
        read_table(path, ("grid",))


_TABLES = {"field": (write_field_csv, read_field_csv),
           "gram": (ftsi.write_interferogram_csv, ftsi.read_interferogram_csv),
           "phase": (ftsi.write_phase_csv, ftsi.read_phase_csv)}


@pytest.fixture(scope="module")
def records(pulse100):
    """A field, an interferogram and a retrieved phase on the default grid (4 blocks of rows)."""
    gram = ftsi.synthesize_interferogram(pulse100, pulse100, 1e-12)
    return {"field": pulse100, "gram": gram, "phase": ftsi.retrieve_phase(gram)}


def _same(a, b):
    """Bit-for-bit equality of two records of the same type."""
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() if isinstance(x, np.ndarray)
               else x == y for x, y in pairs)


def _edit_frequency_cells(path, edit):
    """Rewrite the table at `path` with each frequency cell replaced by edit(row, cell)."""
    lines = path.read_text().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("omega_rad_per_s,")) + 1
    for row, i in enumerate(range(start, len(lines))):
        cell, rest = lines[i].split(",", 1)
        lines[i] = f"{edit(row, cell)},{rest}"
    path.write_text("".join(lines))


@pytest.mark.parametrize("kind", _TABLES)
def test_frequency_column_is_checked_against_the_grid_line(tmp_path, records, kind):
    write, read = _TABLES[kind]
    path = tmp_path / "table.csv"
    write(records[kind], path)
    _edit_frequency_cells(path, lambda row, cell: f"{float(cell):.16e}")  # other strings, same floats
    assert "\n9.4247779607693788e+14," in path.read_text()  # not the repr 942477796076937.9
    assert _same(read(path), records[kind])
    _edit_frequency_cells(path, lambda row, cell: repr(math.nextafter(float(cell), math.inf))
                          if row == 3000 else cell)
    with pytest.raises(GridMismatchError, match="omega_rad_per_s contradicts the # grid= line"):
        read(path)


def test_cold_and_warm_frequency_cells_write_the_same_bytes(tmp_path, records):
    cells = table_io._frequency_cells
    cells.cache_clear()
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    ftsi.write_phase_csv(records["phase"], cold)
    ftsi.write_phase_csv(records["phase"], warm)
    assert cells.cache_info()[:2] == (1, 1)  # (hits, misses): the second write reused the cells
    assert cold.read_bytes() == warm.read_bytes()
    column = [line.split(",")[0] for line in cold.read_text().splitlines() if line[0].isdigit()]
    assert column == list(map(repr, records["phase"].grid.omegas.tolist()))


def test_stream_destination_gets_the_file_bytes(tmp_path, capsys, records):
    path, stream = tmp_path / "field.csv", StringIO()
    write_field_csv(records["field"], path)
    write_field_csv(records["field"], stream)
    assert stream.getvalue() == path.read_text()
    argv = ["transfer", "--thickness-um", "5.4", "--n-samples", "2048"]
    assert main(argv + ["--output", str(tmp_path / "transfer.csv")]) == 0
    capsys.readouterr()
    assert main(argv) == 0  # to standard output
    assert capsys.readouterr().out == (tmp_path / "transfer.csv").read_text()


def test_frequency_cell_cache_stays_within_its_bound(tmp_path):
    cells, path = table_io._frequency_cells, tmp_path / "table.csv"
    bound = cells.cache_info().maxsize
    for k in range(bound + 3):
        grid = SpectralGrid(4, 1.0 + k, 0.5)
        write_table(path, [], ["omega_rad_per_s"], [grid])
        assert path.read_text().split()[1:] == list(map(repr, grid.omegas.tolist()))
    assert cells.cache_info().currsize == bound


def test_frequency_cell_cache_keeps_no_grid_and_reads_leave_it_alone(tmp_path, records):
    cells, path = table_io._frequency_cells, tmp_path / "phase.csv"
    grid = SpectralGrid(2048, 3.0e15, 1.0e11)
    grid.omegas  # filled, as a writer's grid always is
    gone = weakref.ref(grid)
    write_grid_table(path, grid, [], [], [])
    del grid
    assert gone() is None  # the cache holds the grid's fields, not the grid nor its omegas
    ftsi.write_phase_csv(records["phase"], path)
    before = cells.cache_info()
    ftsi.read_phase_csv(path)
    assert cells.cache_info() == before  # the column is parsed and compared, never formatted


def test_array_first_column_is_formatted_cell_by_cell(tmp_path):
    """A table without a grid column, like `design sweep`'s, formats every column's values."""
    thickness = np.geomspace(0.5, 80.0, 2500)
    overlap, masked = 1 / thickness, thickness > 10
    path = tmp_path / "sweep.csv"
    write_table(path, [], ["thickness_um", "overlap", "masked"], [thickness, overlap, masked])
    rows = zip(thickness.tolist(), overlap.tolist(), masked.tolist())
    assert path.read_text() == "thickness_um,overlap,masked\n" + "".join(
        f"{t!r},{o!r},{int(m)}\n" for t, o, m in rows)


def test_comment_and_blank_lines_inside_the_rows_read_exactly(tmp_path, records):
    """Lines skipped inside the rows shift the file's lines against the 1024-row blocks."""
    path = tmp_path / "gram.csv"
    ftsi.write_interferogram_csv(records["gram"], path)
    lines = path.read_text().splitlines(keepends=True)
    for i in (len(lines) - 1, len(lines) - 1500, len(lines) - 3000):
        lines[i:i] = ["# a note among the rows\n", "\n"]
    path.write_text("".join(lines))
    assert _same(ftsi.read_interferogram_csv(path), records["gram"])


@pytest.mark.parametrize("key,line", [
    ("grid", "# grid=4096 942477796076937.9"),
    ("grid", "# grid=4096.0 942477796076937.9 690291354548.5386"),
    ("omega0", "# omega0=abc"),
], ids=["two-grid-values", "float-sample-count", "word-carrier"])
def test_bad_metadata_value_names_the_file_and_key(tmp_path, records, key, line):
    path = tmp_path / "field.csv"
    write_field_csv(records["field"], path)
    text = path.read_text()
    old = next(old for old in text.splitlines() if old.startswith(f"# {key}="))
    path.write_text(text.replace(old, line))
    with pytest.raises(ValueError) as info:
        read_field_csv(path)
    needs = "int float float" if key == "grid" else "float"
    assert str(info.value) == f"{path}: # {key}= needs {needs}, got {line[len(key) + 3:]!r}"


def _recording(monkeypatch, module, name):
    """Rebind the grid-table writer `module.name` so that it also records what it writes."""
    written, write = {}, getattr(module, name)

    def record(path, grid, header_lines, names, columns):
        written[str(path)] = grid, dict(zip(names, columns))
        write(path, grid, header_lines, names, columns)

    monkeypatch.setattr(module, name, record)
    return written


_GRID_TABLES = {  # producer: (module whose writer is recorded, writer name, produce(records, dir))
    "field": (pulsefield, "write_grid_table",
              lambda rec, d: write_field_csv(rec["field"], d / "field.csv")),
    "gram": (ftsi, "write_grid_table",
             lambda rec, d: ftsi.write_interferogram_csv(rec["gram"], d / "gram.csv")),
    "phase": (ftsi, "write_grid_table",
              lambda rec, d: ftsi.write_phase_csv(rec["phase"], d / "phase.csv")),
    **{fig: (figures, "_write_csv", lambda rec, d, fig=fig:
             figures.run_figure_pipeline(RunConfig(outdir=str(d)), fig)) for fig in ("fig2", "fig4")},
    "transfer": (cli, "write_grid_table", lambda rec, d: main(
        ["transfer", "--thickness-um", "5.4", "--output", str(d / "transfer.csv")])),
}


@pytest.mark.parametrize("producer", _GRID_TABLES)
def test_every_grid_table_reads_back_exactly(tmp_path, monkeypatch, records, producer):
    module, name, produce = _GRID_TABLES[producer]
    written = _recording(monkeypatch, module, name)
    produce(records, tmp_path)
    assert len(written) == (2 if producer.startswith("fig") else 1)
    for path, (grid, columns) in written.items():
        read_grid, _, read_columns = read_grid_table(path)
        assert read_grid == grid
        assert list(read_columns) == list(columns)
        for column, values in columns.items():
            assert read_columns[column].tobytes() == np.asarray(values, float).tobytes(), column
