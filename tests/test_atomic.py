"""Every file htnav writes goes through atomic_open: whole or not at all."""

import ast
import json
import os
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import htnav.atomic
import htnav.checkpoint
from htnav.atomic import atomic_open, write_json
from htnav.checkpoint import save_checkpoint
from htnav.cli import write_curves_csv

from conftest import make_params

SRC = Path(__file__).resolve().parents[1] / "src" / "htnav"


class _Run(SimpleNamespace):
    def __len__(self):
        return len(self.returns)


class _Unprintable:
    def __str__(self):
        raise TypeError("this cell cannot be formatted")


def _write_old(path):
    path.write_text("old\n")
    return path.read_bytes()


def test_replaces_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "out.csv"
    _write_old(path)
    with atomic_open(path, newline="") as fh:
        fh.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_new_file_gets_the_mode_open_would_give(tmp_path):
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x")
    with atomic_open(tmp_path / "atomic.txt") as fh:
        fh.write("x")
    assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_raise_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    before = _write_old(path)
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            fh.flush()
            raise RuntimeError("writer died")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_csv_writer_failing_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "curve.csv"
    before = _write_old(path)
    # the second row's cause cannot be formatted, after the header and
    # the first row were written
    run = _Run(seed=0, returns=[1.0, 2.0], steps=np.array([3, 4]), causes=["timeout", _Unprintable()])
    with pytest.raises(TypeError):
        write_curves_csv([run], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["curve.csv"]


def test_checkpoint_failing_mid_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint_seed0.json"
    before = _write_old(path)
    # the last key cannot be encoded
    monkeypatch.setattr(htnav.checkpoint, "checkpoint_to_dict", lambda p, o: {"a": 1, "z": object()})
    with pytest.raises(TypeError):
        save_checkpoint(path, make_params())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint_seed0.json"]


def test_write_json_is_one_write(tmp_path, monkeypatch):
    writes = []
    real = htnav.atomic.atomic_open

    @contextmanager
    def recording(path, newline=None):
        with real(path, newline) as fh:
            yield SimpleNamespace(write=lambda text: writes.append(text) or fh.write(text))

    monkeypatch.setattr(htnav.atomic, "atomic_open", recording)
    doc = {"b": [1.0, 2.5, float("nan")], "a": {"z": None, "y": "x"}}
    write_json(tmp_path / "doc.json", doc)
    assert len(writes) == 1
    # the bytes json.dump would have written token by token
    assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_mode_opens(source: str) -> list[int]:
    """Lines of open(...) calls whose mode writes, appends or creates."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes):
                lines.append(node.lineno)
    return lines


def test_only_atomic_open_opens_files_for_writing():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "atomic.py" and (lines := _write_mode_opens(path.read_text()))
    }
    assert found == {}
    assert _write_mode_opens('open(p, "w")\nopen(p)\nopen(p, mode="a")\n') == [1, 3]


def _format_code(source: str) -> list[int]:
    """Lines that import csv or reach json.dump."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "csv" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "csv" or (
                node.module == "json" and any(alias.name == "dump" for alias in node.names)
            )
        else:
            hit = (
                isinstance(node, ast.Attribute)
                and node.attr == "dump"
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            )
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def _imports_atomic(source: str) -> bool:
    return any(
        isinstance(node, ast.ImportFrom)
        and ((node.module or "").endswith("atomic") or any(a.name == "atomic" for a in node.names))
        for node in ast.walk(ast.parse(source))
    )


def test_only_atomic_knows_the_file_formats():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "atomic.py" and (lines := _format_code(path.read_text()))
    }
    assert found == {}
    # the compute modules hand their results to cli.py, which writes them
    assert [
        name
        for name in ("training.py", "evaluation.py", "rewards.py")
        if _imports_atomic((SRC / name).read_text())
    ] == []
    probe = "import csv\nfrom csv import writer\njson.dump(d, f)\njson.dumps(d)\nfrom json import dump\n"
    assert _format_code(probe) == [1, 2, 3, 5]
    assert _imports_atomic("from .atomic import write_csv\n")
    assert _imports_atomic("from . import atomic\n")
    assert not _imports_atomic("from .config import TrainConfig\n")
