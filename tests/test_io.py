"""The CSV table layer: exact round trips and byte-level pins of the figure outputs."""

import hashlib
import os

import numpy as np
import pytest

from bsbshaper import figures
from bsbshaper.config import RunConfig
from bsbshaper.io import meta_line, read_table, write_table

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
