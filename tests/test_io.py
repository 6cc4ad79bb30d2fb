"""The CSV table layer: exact round trips and byte-level pins of the figure outputs."""

import builtins
import dataclasses
import hashlib
import json
import math
import os
import weakref
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsbshaper import _cache, cli, figures, ftsi, pulsefield
from bsbshaper import io as table_io
from bsbshaper.cli import main
from bsbshaper.config import RunConfig
from bsbshaper.errors import GridMismatchError
from bsbshaper.io import meta_line, read_table, write_table
from bsbshaper.pulsefield import (SpectralGrid, default_grid, gaussian_pulse, read_field_csv,
                                  read_grid_table, write_field_csv, write_grid_table)
from conftest import OMEGA0_800, clear_caches, held_after, peak_above_start

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


# sha256 of the comment lines of every default-config figure output (n = 4096), the run's
# outdir in the config.outdir line written as <outdir>; the data digests above skip them
FIGURE_COMMENT_SHA256 = {
    "fig2_spectra.csv": "b4bf0d878a3c180b1d7e8920ac0f61a05bd52af8bf14df8a877521b764787232",
    "fig2_ratio.csv": "b4bf0d878a3c180b1d7e8920ac0f61a05bd52af8bf14df8a877521b764787232",
    "fig3_interferogram_with_bsb.csv":
        "0bda9f02149cceb495dd2d93d2205502ec62fe571777a4386a0709f065e078f3",
    "fig3_interferogram_without_bsb.csv":
        "0bda9f02149cceb495dd2d93d2205502ec62fe571777a4386a0709f065e078f3",
    "fig3_retrieved_phase.csv": "b4bf0d878a3c180b1d7e8920ac0f61a05bd52af8bf14df8a877521b764787232",
    "fig4_spectra.csv": "93df479362c11aee763bcb20f7feeffdeb273a37719ba93b58dfd71c56d101e7",
    "fig4_ratio.csv": "93df479362c11aee763bcb20f7feeffdeb273a37719ba93b58dfd71c56d101e7",
    "fig5_interferogram_with_bsb.csv":
        "770fd003187a63e0cf05949e352eb05fc59c763599438dd4a04279336df51703",
    "fig5_interferogram_without_bsb.csv":
        "770fd003187a63e0cf05949e352eb05fc59c763599438dd4a04279336df51703",
    "fig5_retrieved_phase.csv": "93df479362c11aee763bcb20f7feeffdeb273a37719ba93b58dfd71c56d101e7",
    "fig5_jump_report.txt": "a604139840c0aa611179d14c330954ca94c046d5be7407984327af48144ab250",
}


def test_figure_comment_lines_pinned(tmp_path):
    config = RunConfig(outdir=str(tmp_path))
    written, metadata = {}, set()
    for fig in figures.FIGURES:
        for path in figures.run_figure_pipeline(config, fig):
            with open(path) as fh:
                comments = "".join(line for line in fh if line.startswith("#"))
            comments = comments.replace(repr(str(tmp_path)), "<outdir>")
            written[os.path.basename(path)] = hashlib.sha256(comments.encode()).hexdigest()
            metadata.update(line for line in comments.splitlines(keepends=True)
                            if line.startswith(("# grid=", "# delay_hint=")))
    assert written == FIGURE_COMMENT_SHA256
    assert metadata == {"# grid=4096 942477796076937.9 690291354548.5386\n",
                        "# delay_hint=1e-12\n"}  # the two meta_line lines, in plain digits


# the benchmark's record of every figure output at n = 2^16, where numpy elides temporaries,
# which it never does at 4096: there the operand order of each product shows in the bytes
BENCHMARK_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                   "reference.json")


@pytest.mark.parametrize("figure", figures.FIGURES)
def test_full_size_figure_data_lines_match_the_benchmark_reference(tmp_path, figure):
    with open(BENCHMARK_REFERENCE) as fh:
        expected = json.load(fh)["figures"][str(2**16)][figure]
    config = RunConfig(n_samples=2**16, outdir=str(tmp_path))
    written = {os.path.basename(path): _data_sha256(path)
               for path in figures.run_figure_pipeline(config, figure)}
    assert written == expected


def test_table_roundtrip_is_exact(tmp_path):
    path = tmp_path / "table.csv"
    x = np.array([0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-17])
    flags = np.array([True, False, False, True, True, False])
    header = [meta_line("omega0", np.float64(2.35e15)), meta_line("grid", 6, 0.5, 0.25),
              "# provenance: free text\n"]
    write_table(path, header, ["x", "flag"], [x, flags])
    assert path.read_text().splitlines()[3:5] == ["x,flag", "0.1,1"]
    meta, data = read_table(path, ("omega0", "grid"))
    assert meta == {"omega0": "2350000000000000.0", "grid": "6 0.5 0.25"}
    assert np.array_equal(data["x"], x)
    assert np.signbit(data["x"][2])
    assert np.array_equal(data["flag"].astype(bool), flags)


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


@pytest.mark.parametrize("body,where", [
    ("1.0,2.0\n# a comment\n\n3.0\n", "line 6: 1 cells, where the column-name line names 2"),
    ("1.0,2.0\n3.0,4.0,5.0\n", "line 4: 3 cells, where the column-name line names 2"),
    ("1.0,2.0\n1.0,abc\n", "line 4: '1.0,abc' holds a cell that is not a number"),
    # float() takes these, the cell rule does not: an underscore, non-ASCII digits and spaces
    ("1.0,2.0\n1_0,2.0\n", "line 4: '1_0,2.0' holds a cell that is not a number"),
    ("1.0,2.0\n\u0661,2.0\n", "line 4: '\u0661,2.0' holds a cell that is not a number"),
    ("1.0,2.0\n\uff11,2.0\n", "line 4: '\uff11,2.0' holds a cell that is not a number"),
    ("1.0,2.0\n\xa01.0,2.0\n", "line 4: '\\xa01.0,2.0' holds a cell that is not a number"),
])
def test_malformed_row_names_its_line(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_text("# grid=4 1.0 1.0\na,b\n" + body)
    with pytest.raises(ValueError) as err:
        read_table(path)
    assert str(err.value) == f"{path}: malformed row ({where})"


@pytest.mark.parametrize("newline,split", [("\n", None), ("\r\n", None), ("\r", None),
                                           ("\r\n", "\r\n"), ("\r\n", "\r\r\n")],
                         ids=["lf", "crlf", "cr", "crlf-across-the-block-end",
                              "cr-then-crlf-across-the-block-end"])
def test_malformed_row_past_the_first_block_names_its_line(tmp_path, newline, split):
    """A # line and a blank line among the rows, then a bad row in the second block."""
    chunk, row = table_io.CHUNK_BYTES, "1.5,2.25"
    body = newline.join(["# grid=4 1.0 1.0", "a,b", row, "# a comment", "", ""])
    body += (row + newline) * ((chunk - len(body)) // len(row + newline) - 1)
    if split:  # one row padded so that the block's last byte is the first of `split`
        body += row + "0" * (chunk - 1 - len(body) - len(row)) + split
        assert body[chunk - 1:chunk - 1 + len(split)] == split
    else:
        body += (row + newline) * 2
    assert len(body) >= chunk
    line = len(body.splitlines()) + 1
    path = tmp_path / "bad.csv"
    path.write_bytes((body + "1.0,abc" + newline + row + newline).encode())
    with pytest.raises(ValueError) as err:
        read_table(path)
    assert str(err.value) == \
        f"{path}: malformed row (line {line}: '1.0,abc' holds a cell that is not a number)"


def test_read_table_opens_a_malformed_file_once(tmp_path, monkeypatch):
    path, opened, real_open = tmp_path / "bad.csv", [], builtins.open
    path.write_text("a,b\n1.0,2.0\n1.0,abc\n")

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with pytest.raises(ValueError, match="line 3: '1.0,abc'"):
        read_table(path)
    assert opened == [path]


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


@st.composite
def _decimals(draw):
    """A cell by the rule: a sign, 1 to 25 digits with or without a point anywhere among them,
    and maybe an e or E exponent from -400 to 400."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.none() | st.integers(0, len(digits)))
    cell = draw(st.sampled_from(["", "+", "-"])) + (
        digits if point is None else f"{digits[:point]}.{digits[point:]}")
    exponent = draw(st.none() | st.integers(-400, 400))
    if exponent is not None:
        cell += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+"])) * (exponent >= 0)
        cell += str(exponent)
    return cell


_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr) | _decimals()
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
    cells = pulsefield._frequency_cells
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


def test_frequency_cell_cache_stays_within_its_bound(tmp_path, monkeypatch):
    """fig2 and fig4 on 8 grids of 2^14 samples leave at most the budget and one entry held.

    Each grid keeps its frequency cells and wavevector tables, 0.53 MB, so a count bound of 8
    grids holds 4.27 MB here.
    """
    figures.run_figure_pipeline(RunConfig(n_samples=2048, outdir=str(tmp_path)), "fig2")
    clear_caches()  # all that stays from here on is cached
    monkeypatch.setattr(_cache, "CACHE_BYTES", 1 << 20)

    def run():
        for k in range(8):
            config = RunConfig(n_samples=2**14, nu_start_thz=150.0 + k, outdir=str(tmp_path))
            for figure in ("fig2", "fig4"):
                figures.run_figure_pipeline(config, figure)

    held = held_after(run)
    largest = max(entry[2] for entry in _cache._entries.values())
    assert pulsefield._frequency_cells.cache_info().currsize < 8
    assert held <= _cache.CACHE_BYTES + largest


def test_equal_int_and_float_field_grids_each_write_their_own_grid_line(tmp_path):
    """The grids are equal, but an int field is written without the ".0" of a float one."""
    path = tmp_path / "table.csv"
    for grid, line in [(SpectralGrid(4, 1, 1), "# grid=4 1 1"),
                       (SpectralGrid(4, 1.0, 1.0), "# grid=4 1.0 1.0"),
                       (SpectralGrid(4, 1, 1), "# grid=4 1 1")]:
        write_grid_table(path, grid, [], ["x"], [np.arange(4.0)])
        assert path.read_text().splitlines()[:3] == [line, "omega_rad_per_s,x", "1.0,0.0"]
        read, _, data = read_grid_table(path, (), ("x",))
        assert read == grid and np.array_equal(data["x"], np.arange(4.0))


def test_frequency_cell_cache_keeps_no_grid_and_reads_leave_it_alone(tmp_path, records):
    cells, path = pulsefield._frequency_cells, tmp_path / "phase.csv"
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


def _edge_columns(rows, floats, seed):
    """`floats` columns of random bit patterns with each special value, and a random boolean
    column."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2**64, (floats, rows), dtype=np.uint64, endpoint=False).view(np.float64)
    x[:, :5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    return [*x, rng.random(rows) < 0.5]


@pytest.mark.parametrize("floats", [0, 1, 2, 3])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_tables_that_straddle_the_block_edges_are_repr_and_read_back(tmp_path, floats, blocks,
                                                                     extra):
    """A block holds BLOCK_CELLS // floats rows (BLOCK_CELLS with no float column); formatted
    and boolean cells do not count.  A column's cells formatted ahead write what it writes."""
    block = table_io.BLOCK_CELLS // floats if floats else table_io.BLOCK_CELLS
    rows = blocks * block + extra
    omegas = 3.0e15 + 1.0e11 * np.arange(rows)  # any row count, where a grid's is a power of 2
    columns = _edge_columns(rows, floats, seed=rows + floats)
    names = ["omega_rad_per_s", *(f"x{j}" for j in range(floats)), "masked"]
    path, plain = tmp_path / "formatted.csv", tmp_path / "plain.csv"
    write_table(path, [], names, [table_io.format_cells(omegas), *columns])
    write_table(plain, [], names, [omegas, *columns])
    assert path.read_bytes() == plain.read_bytes()
    cells = [map(repr, omegas.tolist()), *(map(repr, c.tolist()) for c in columns[:-1]),
             ("01"[m] for m in columns[-1].tolist())]
    assert path.read_text().splitlines() == [",".join(names), *map(",".join, zip(*cells))]
    _, data = read_table(path)
    for name, column in zip(names[1:], columns):
        read, want = data[name], np.asarray(column, np.float64)
        assert np.array_equal(np.isnan(read), np.isnan(want)), name
        assert read[~np.isnan(read)].tobytes() == want[~np.isnan(want)].tobytes(), name
    assert data["omega_rad_per_s"].tobytes() == omegas.tobytes()


# write_table's peak above its start, warm, by tracemalloc; the parent of BLOCK_CELLS, which
# formatted 2048 rows a block, measured 0.49 (gram) to 1.41 MB (ratio) at both sizes
_TABLE_SHAPES = {"gram": (1, 0), "spectra": (2, 0), "phase": (2, 1), "ratio": (3, 1)}


def test_table_writer_working_set_does_not_grow_with_the_table(tmp_path):
    """Each table shape's writer peak stays under 1.5 MB and grows by at most 64 KiB from 2^14
    to 2^16 rows.

    Measured 1.35-1.42 MB for every shape at both sizes, and at most 1 KB of growth.  A writer
    that formats a whole table at once holds several MB at 2^14 and four times that at 2^16.
    """
    path, peaks = tmp_path / "table.csv", {}
    for n in (2**14, 2**16):
        rng = np.random.default_rng(n)
        for shape, (floats, bools) in _TABLE_SHAPES.items():
            columns = [pulsefield._frequency_cells(*dataclasses.astuple(default_grid(n))),
                       *(rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
                         for _ in range(floats)),
                       *(rng.random(n) < 0.5 for _ in range(bools))]
            names = [f"c{j}" for j in range(len(columns))]
            write_table(path, [], names, columns)  # fills the grid's cells and the tables
            peaks[shape, n] = peak_above_start(lambda: write_table(path, [], names, columns))
    for shape in _TABLE_SHAPES:
        assert peaks[shape, 2**14] <= 1.5e6, shape
        assert peaks[shape, 2**16] <= 1.5e6, shape
        assert peaks[shape, 2**16] - peaks[shape, 2**14] <= 64 * 1024, shape


def test_array_first_column_is_formatted_cell_by_cell(tmp_path):
    """A table without a grid column, like `design sweep`'s, formats every column's values."""
    thickness = np.geomspace(0.5, 80.0, 2500)
    overlap, masked = 1 / thickness, thickness > 10
    path = tmp_path / "sweep.csv"
    write_table(path, [], ["thickness_um", "overlap", "masked"], [thickness, overlap, masked])
    rows = zip(thickness.tolist(), overlap.tolist(), masked.tolist())
    assert path.read_text() == "thickness_um,overlap,masked\n" + "".join(
        f"{t!r},{o!r},{int(m)}\n" for t, o, m in rows)


def _written(names, columns):
    out = StringIO()
    write_table(out, [], names, columns)
    return out.getvalue()


def _reference(names, columns):
    """The reference text: each cell as repr(float) or int.__repr__ writes it."""
    cells = [map(repr if c.dtype.kind == "f" else int.__repr__, c.tolist()) for c in columns]
    return ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def _first_mismatch(names, columns):
    """None, or (line, written, reference) at the first line where the writer differs from repr."""
    written, reference = _written(names, columns), _reference(names, columns)
    if written == reference:
        return None
    lines = zip(written.splitlines(), reference.splitlines())
    return next(((n, a, b) for n, (a, b) in enumerate(lines) if a != b), ("line count", 0, 0))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_cells_are_repr(values):
    x = np.array(values)
    assert _first_mismatch(["x", "minus_x"], [x, -x]) is None


def test_a_million_random_bit_patterns_are_written_as_repr():
    bits = np.random.default_rng(20201).integers(0, 2**64, (4, 250000), dtype=np.uint64,
                                                 endpoint=False)
    assert _first_mismatch(list("abcd"), list(bits.view(np.float64))) is None


def _ulp_neighbours(x):
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _significant_digits(v: float) -> int:
    return len(repr(v).split("e")[0].replace(".", "").strip("0"))


# Schubfach's digits have at most 17 digits before their trailing zeros are stripped, and 16
# or 17 (15 or 16 one digit shorter) for a normal float: so a 17-digit repr had no trailing
# zero to strip, and a normal float of at most 14 digits had at least one.
_NORMAL_BITS = np.random.default_rng(4).integers(2**52, 0x7FF << 52, 20000, dtype=np.uint64)
_UNSTRIPPED = [v for v in _NORMAL_BITS.view(np.float64).tolist() if _significant_digits(v) == 17]
_STRIPPED_DIGITS = np.random.default_rng(5).integers(1, 15, 6144)

_BOUNDARIES = {
    "powers of two": _ulp_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers of ten": _ulp_neighbours(np.array([float(f"1e{e}") for e in range(-323, 309)])),
    "subnormals": np.random.default_rng(1).integers(1, 2**52, 20000, dtype=np.uint64)
    .view(np.float64),
    "short decimals": np.array([float(f"{m}e{e}") for m, e in zip(
        np.random.default_rng(2).integers(1, 10**6, 20000),
        np.random.default_rng(3).integers(-30, 30, 20000))]),
    "integers": np.arange(-10**5, 10**5 + 1, dtype=float),
    "decades": np.geomspace(1e-20, 1e20, 40001),
    "layout edges": np.append(_ulp_neighbours(np.array([1e16, 1e-4, 1e-5, 9999999999999998.0,
                                                        0.0, 5e-324, 1e22, 1.5e-300])),
                              [1.7976931348623157e308, np.inf, np.nan]),
    # full kernel blocks (BLOCK_CELLS cells, x and -x) where no cell, or every cell, has a
    # trailing zero before the strip
    "no trailing zero": np.array(_UNSTRIPPED[:6144]),
    "all trailing zeros": np.array([float(f"{m}e{e}") for m, e in zip(
        np.random.default_rng(6).integers(10 ** (_STRIPPED_DIGITS - 1), 10**_STRIPPED_DIGITS),
        np.random.default_rng(7).integers(-290, 290, 6144))]),
}


@pytest.mark.parametrize("family", _BOUNDARIES)
def test_boundary_floats_are_written_as_repr(tmp_path, family):
    x = _BOUNDARIES[family]
    assert _first_mismatch(["x", "minus_x"], [x, -x]) is None
    assert _first_misread(tmp_path, [*map(repr, x.tolist()), *map(repr, (-x).tolist())]) is None


def _first_misread(tmp_path, cells):
    """None, or (cell, read, float(cell)) for the first cell that read_table does not read as
    float() does, bit for bit."""
    path = tmp_path / "cells.csv"
    path.write_text("x\n" + "".join(f"{cell}\n" for cell in cells))
    read = read_table(path)[1]["x"]
    reference = np.array([float(cell) for cell in cells])
    wrong = np.flatnonzero(read.view(np.uint64) != reference.view(np.uint64))
    return None if not wrong.size else (cells[wrong[0]], read[wrong[0]], reference[wrong[0]])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats().map(repr) | _decimals(), min_size=1, max_size=40))
def test_cells_are_read_as_float_reads_them(tmp_path, cells):
    assert _first_misread(tmp_path, cells) is None


def _around(mantissa: int, exponent: int) -> list[str]:
    """mantissa e exponent, and the decimals one unit in the last digit either side."""
    return [f"{m}e{exponent}" for m in (mantissa - 1, mantissa, mantissa + 1)]


_DECIMAL_BOUNDARIES = {
    # halfway between two floats, which rounds to even (q = 0 and -1), and 1e23, just above it
    "halfway": ["9007199254740993", "9007199254740995", "18014398509481986", "4503599627370496.5",
                "4503599627370497.5", "1e23"],
    # the subnormal and overflow thresholds, and the table's ends q = -342..308 and past them
    "thresholds": [*_around(24703282292062327, -340), "4.9e-324", "5e-324",
                   "2.2250738585072011e-308", "2.2250738585072014e-308",
                   *_around(17976931348623158, 292), "1e-342", "1e-343", "1e308", "1e309",
                   "123e-342", "123e-343", "123e306", "123e309"],
    "powers of ten": [c for k in range(-350, 311) for c in _around(10**17, k - 17)],
    "19 and 20 digits": [*_around(10**18, -18), *_around(10**19 - 2, -30), "1234567890123456789",
                         "12345678901234567890", "0.00012345678901234567891",
                         "1.0000000000000000001e-20", "99999999999999999999e250"],
    "zeros": ["0", "-0", "-0.0", "+0.", ".0", "0e999", "-0e-999", "0.000123456789012345678"],
}


@pytest.mark.parametrize("family", _DECIMAL_BOUNDARIES)
def test_boundary_decimals_are_read_as_float_reads_them(tmp_path, family):
    assert _first_misread(tmp_path, _DECIMAL_BOUNDARIES[family]) is None


_META_FLOATS = {  # the writer's boundary families, each value with its negative
    "nan": [np.nan],
    "inf": [np.inf],
    "zero": [0.0],
    "subnormals": [5e-324, 1e-320, 2.225073858507201e-308],
    "1e16": _ulp_neighbours(np.array([1e16])).tolist(),
    "1e-5": _ulp_neighbours(np.array([1e-5])).tolist(),
}


@pytest.mark.parametrize("family", _META_FLOATS)
def test_float_meta_values_are_repr(family):
    for x in (*_META_FLOATS[family], *(-x for x in _META_FLOATS[family])):
        cell = _written(["x"], [np.array([x])]).split()[1]
        assert meta_line("k", x) == meta_line("k", np.float64(x)) == f"# k={x!r}\n" \
            == f"# k={cell}\n"


def test_integer_meta_values_are_repr():
    for n in (0, 1, -1, 4096, 10**16, 2**63 - 1, -2**63):
        assert meta_line("k", n) == meta_line("k", np.int64(n)) == f"# k={n!r}\n"
    assert meta_line("grid", np.int64(4096), 0.5, np.float64(-0.0)) == "# grid=4096 0.5 -0.0\n"


def test_integer_and_boolean_cells_are_their_ints(tmp_path):
    """Boolean cells are 0 and 1; an integer column is rejected, as no table holds one."""
    columns = [np.array([True, False, True, False, False]),
               np.array([0.5, -2.0, 1e300, 3.0, 7e-7])]
    assert _first_mismatch(["a", "b"], columns) is None
    assert _written(["a"], columns[:1]).split()[1:] == ["1", "0", "1", "0", "0"]
    path = tmp_path / "table.csv"
    for column in (np.array([-2**63, -1, 0, 2**63 - 1], np.int64),
                   np.array([0, 10**19, 2**64 - 1, 1], np.uint64)):
        with pytest.raises(TypeError, match=f"^column z: {column.dtype} values cannot be written"):
            write_table(path, [], ["a", "z"], [np.arange(4.0), column])
        assert not path.exists()


def test_tables_without_rows_or_columns():
    assert _written(["a", "b"], [np.empty(0), np.empty(0, bool)]) == "a,b\n"
    assert _written([], []) == "\n"


def test_columns_of_different_lengths_are_rejected(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="^column b has 3 rows, where column a has 5$"):
        write_table(path, [], ["a", "b"], [np.arange(5.0), np.arange(3.0)])
    with pytest.raises(ValueError, match="^column x has 3 rows, where column omega has 4$"):
        write_table(path, [], ["omega", "x"],
                    [table_io.format_cells(np.arange(4.0)), np.arange(3.0)])
    assert not path.exists()  # nothing is written


@pytest.mark.parametrize("column", [np.array([1 + 2j, 3j]), np.array(["1.0", "2.0"]),
                                    np.array([1.0, None], dtype=object)],
                         ids=["complex", "text", "object"])
def test_columns_that_would_not_read_back_are_rejected(tmp_path, column):
    path = tmp_path / "table.csv"
    with pytest.raises(TypeError, match="^column z: "):
        write_table(path, [], ["a", "z"], [np.arange(2.0), column])
    assert not path.exists()


def test_comment_and_blank_lines_inside_the_rows_read_exactly(tmp_path, records):
    """Lines skipped inside the rows shift the file's lines against the reader's chunks."""
    path = tmp_path / "gram.csv"
    ftsi.write_interferogram_csv(records["gram"], path)
    lines = path.read_text().splitlines(keepends=True)
    for i in (len(lines) - 1, len(lines) - 1500, len(lines) - 3000):
        lines[i:i] = ["# a note among the rows\n", "\n"]
    path.write_text("".join(lines))
    assert _same(ftsi.read_interferogram_csv(path), records["gram"])


def test_reading_a_table_holds_at_most_nine_float_columns(tmp_path):
    """Reading a phase table of 2^16 rows holds at most 9 float64 arrays of n_samples above its
    start: its four columns, the chunks they are joined from and one chunk's working set.

    Measured 8.04 (8.19 with one float() call per cell); parsing the file as one chunk reads 111.
    """
    n = 2**16
    pulse = gaussian_pulse(default_grid(n), OMEGA0_800, 2 * np.pi * 100e12)
    path = tmp_path / "phase.csv"
    ftsi.write_phase_csv(ftsi.retrieve_phase(ftsi.synthesize_interferogram(pulse, pulse, 1e-12)),
                         path)
    ftsi.read_phase_csv(path)  # a cold first read, which builds the reader's tables
    assert peak_above_start(lambda: ftsi.read_phase_csv(path)) / (8 * n) <= 9


def _schubfach_g():
    """Schubfach's g = floor(10^-k 2^-r) + 1 in [2^127, 2^128), for k = -324..292."""
    g = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        if k <= 0:  # 10^-k = p
            r = p.bit_length() - 128
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:  # 10^-k = 1 / p
            g.append((1 << (127 + p.bit_length())) // p + 1)
    return g


def _eisel_lemire_p5():
    """Eisel-Lemire's 5^q in [2^127, 2^128), truncated to 128 bits, for q = -342..308."""
    p5 = []
    for q in range(-342, 309):
        if q >= 0:  # 5^q with its top bit moved to bit 127, truncated
            r = (5 ** q).bit_length() - 128
            p5.append(5 ** q >> r if r >= 0 else 5 ** q << -r)
        else:  # 1 / 5^-q, one above its floor, then truncated
            z = (5 ** -q).bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5 ** -q + 1
            p5.append(c >> max(c.bit_length() - 128, 0))
    return p5


def test_one_table_set_holds_each_kernels_powers(tmp_path):
    """The tables a first read builds hold the writer's g and the reader's 5^q, each as its own
    algorithm computes them."""
    path = tmp_path / "table.csv"
    path.write_text("x\n0.1\n")
    table_io._tables.cache_clear()
    read_table(path)
    assert table_io._tables.cache_info().misses == 1  # built by the read
    t = table_io._tables()
    assert [int(hi) << 64 | int(lo) for hi, lo in zip(t.g_hi, t.g_lo)] == _schubfach_g()
    assert [int(hi) << 64 | int(lo) for hi, lo in t.p5.T[:651]] == _eisel_lemire_p5()
    assert not any(table.flags.writeable for table in t)


@pytest.mark.parametrize("key,line", [
    ("grid", "# grid=4096 942477796076937.9"),
    ("grid", "# grid=4096.0 942477796076937.9 690291354548.5386"),
    ("omega0", "# omega0=abc"),
    # what int() and float() take but the cell rule does not
    ("grid", "# grid=4_096 942477796076937.9 690291354548.5386"),
    ("grid", "# grid=+4096 942477796076937.9 690291354548.5386"),
    ("grid", "# grid=\uff14\uff10\uff19\uff16 942477796076937.9 690291354548.5386"),
    ("grid", "# grid=4096 942_477_796_076_937.9 690291354548.5386"),
    ("grid", "# grid=4096\u2003942477796076937.9 690291354548.5386"),
    ("omega0", "# omega0=\u0662354564459136066.0"),
], ids=["two-grid-values", "float-sample-count", "word-carrier", "underscore-sample-count",
        "signed-sample-count", "fullwidth-sample-count", "underscore-start", "em-space",
        "arabic-indic-carrier"])
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


@pytest.mark.parametrize("kind,key,second", [
    ("field", "omega0", "# omega0=2400000000000000.0"),
    ("gram", "delay_hint", "# delay_hint=2e-12"),
    ("field", "grid", "# grid=4096 942477796076937.9 690291354548.5386"),  # the same value again
])
def test_metadata_key_that_appears_twice_names_the_file_line_and_key(tmp_path, records, kind,
                                                                    key, second):
    write, read = _TABLES[kind]
    path = tmp_path / f"{kind}.csv"
    write(records[kind], path)
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}=")) + 1
    lines.insert(at, second + "\n")
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}: line {at + 1}: metadata key {key} appears twice"


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
