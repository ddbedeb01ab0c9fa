"""``tests/golden/regenerate.py``: check by default, write only on request."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_covers_every_fixture(regenerate):
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*_quick.json")}
    on_disk |= {path.stem for path in GOLDEN_DIR.glob("fleet-cli_*.json")}
    assert set(regenerate.fixtures()) == on_disk
    assert len(on_disk) == 19


def test_check_reports_byte_identity(regenerate, capsys):
    assert regenerate.main(["table2_quick", "table6_quick"]) == 0
    out = capsys.readouterr().out
    assert "ok        table2_quick" in out and "ok        table6_quick" in out


def test_refuses_to_write_without_overwrite(regenerate, tmp_path, capsys):
    golden = (GOLDEN_DIR / "table2_quick.json").read_text()
    stale = tmp_path / "table2_quick.json"
    stale.write_text(golden.replace("0", "1", 1))
    assert regenerate.main(["table2_quick"], golden_dir=tmp_path) == 1
    assert "DIFFERS   table2_quick" in capsys.readouterr().out
    assert stale.read_text() == golden.replace("0", "1", 1)

    assert regenerate.main(["table6_quick"], golden_dir=tmp_path) == 1
    assert not (tmp_path / "table6_quick.json").exists()


def test_overwrite_rewrites_only_the_named_fixture(regenerate, tmp_path):
    for name in ("table2_quick.json", "table6_quick.json"):
        shutil.copy(GOLDEN_DIR / name, tmp_path / name)
    (tmp_path / "table2_quick.json").write_text("stale\n")
    (tmp_path / "table6_quick.json").write_text("stale\n")
    assert regenerate.main(["--overwrite", "table2_quick"], golden_dir=tmp_path) == 0
    assert (tmp_path / "table2_quick.json").read_text() == (
        GOLDEN_DIR / "table2_quick.json"
    ).read_text()
    assert (tmp_path / "table6_quick.json").read_text() == "stale\n"


def test_unknown_id_rejected(regenerate):
    with pytest.raises(SystemExit):
        regenerate.main(["--overwrite", "fig99_quick"])
