import os
import stat

import numpy as np
import pytest

from heisadams.io import atomic_write_bytes, fmt, write_csv, write_json


def _expected(header, columns):
    return (",".join(header) + "\n"
            + "".join(",".join(map(fmt, row)) + "\n" for row in zip(*columns))).encode()


def test_columns_render_as_fmt_renders_each_value(tmp_path):
    """A mixed column goes through fmt value by value; a float column
    (numpy float64 included) through one %.17g field; both give fmt's text."""
    mixed = [3, True, "label", np.float64(0.1), -0.0, float("nan"), 10 ** 20]
    floats = [0.1, -0.0, float("nan"), float("inf"), 1e-300, np.float64(2.0 / 3.0), 1e20]
    ints = list(range(7))
    header = ["mixed", "floats", "ints"]
    p = tmp_path / "t.csv"
    write_csv(p, header, [mixed, floats, ints])
    data = p.read_bytes()
    assert data == _expected(header, [mixed, floats, ints])
    assert data.splitlines()[1:3] == [b"3,0.10000000000000001,0", b"True,-0,1"]


def test_empty_table_is_the_header_line(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [[], []])
    assert p.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("header, columns", [
    (["a"], [[1.0], [2.0]]),
    (["a", "b", "c"], [[1.0], [2.0]]),
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a", "b"], [[], ["x"]]),
], ids=["too-few-names", "too-many-names", "ragged", "ragged-empty"])
def test_malformed_tables_raise_and_write_nothing(tmp_path, header, columns):
    p = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(p, header, columns)
    assert not p.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifact_mode_follows_the_umask(tmp_path, umask, mode):
    """A written artifact, new or replacing a file, gets mode 0666 less the
    umask, as open() gives; the temporary sibling is gone."""
    (tmp_path / "old.bin").write_bytes(b"previous contents")
    os.chmod(tmp_path / "old.bin", 0o640)
    old = os.umask(umask)
    try:
        write_json(tmp_path / "new.json", {"x": 1.5})
        atomic_write_bytes(tmp_path / "old.bin", b"data")
    finally:
        os.umask(old)
    for name in ("new.json", "old.bin"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.bin"]
