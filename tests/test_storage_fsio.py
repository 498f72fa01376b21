"""Tests for repro.storage.fsio: the atomic file write every durable
file (pack, manifest, WAL checkpoint) goes through."""

import os

import pytest

from repro.storage import fsio


def _crash_write(path, payload, monkeypatch, attr):
    def boom(*args, **kwargs):
        raise OSError("injected crash")

    monkeypatch.setattr(os, attr, boom)
    with pytest.raises(OSError, match="injected crash"):
        fsio.atomic_write_bytes(path, payload)


class TestAtomicWriteBytes:
    """Crash injection: a failed write never damages the previous file
    and never leaves its temp file behind."""

    @pytest.mark.parametrize("attr", ["fsync", "replace"])
    def test_crash_preserves_old_file(self, tmp_path, monkeypatch, attr):
        path = tmp_path / "state.bin"
        fsio.atomic_write_bytes(path, b"old contents")
        _crash_write(path, b"new, longer contents", monkeypatch, attr)
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    @pytest.mark.parametrize("attr", ["fsync", "replace"])
    def test_crash_on_first_write_leaves_nothing(self, tmp_path, monkeypatch, attr):
        path = tmp_path / "state.bin"
        _crash_write(path, b"payload", monkeypatch, attr)
        assert list(tmp_path.iterdir()) == []

    def test_success_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "state.bin"
        fsio.atomic_write_bytes(path, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]
        assert path.read_bytes() == b"payload"

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "state.bin"
        fsio.atomic_write_bytes(path, b"a much longer first payload")
        fsio.atomic_write_bytes(path, b"short")
        assert path.read_bytes() == b"short"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    @pytest.mark.parametrize("seam", ["write", "fsync", "replace"])
    def test_crash_at_each_fsio_seam_preserves_old_file(
        self, tmp_path, monkeypatch, seam
    ):
        """The crash-injection harness interposes at the fsio seams; a
        crash at any of them (a torn write included) keeps the old file
        and leaves no temp file."""

        def boom(f, *args):
            if seam == "write":
                f.write(args[0][: len(args[0]) // 2])
            raise OSError("injected crash")

        path = tmp_path / "state.bin"
        fsio.atomic_write_bytes(path, b"old contents")
        monkeypatch.setattr(fsio, seam, boom)
        with pytest.raises(OSError, match="injected crash"):
            fsio.atomic_write_bytes(path, b"new, longer contents")
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_temp_file_is_renamed_from_the_target_directory(
        self, tmp_path, monkeypatch
    ):
        """The rename is atomic only within one filesystem, so the temp
        file is created beside its target."""
        renames = []
        real_replace = fsio.replace

        def spy(src, dst):
            renames.append((os.path.dirname(src), os.path.basename(src), dst))
            real_replace(src, dst)

        monkeypatch.setattr(fsio, "replace", spy)
        path = tmp_path / "state.bin"
        fsio.atomic_write_bytes(path, b"payload")
        [(src_dir, src_name, dst)] = renames
        assert src_dir == str(tmp_path)
        assert src_name.startswith("state.bin.") and src_name.endswith(".tmp")
        assert dst == path

    def test_empty_payload_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "state.bin"
        fsio.atomic_write_bytes(path, b"old contents")
        fsio.atomic_write_bytes(path, b"")
        assert path.read_bytes() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]


def test_fsync_dir_is_best_effort(tmp_path):
    fsio.fsync_dir(tmp_path)
    fsio.fsync_dir(tmp_path / "missing")
