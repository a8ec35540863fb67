import dataclasses
import errno
import json
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate import io
from multirate.augment import augment
from multirate.errors import (
    ChecksumMismatch,
    IoFailure,
    MultirateError,
    NonIntegerRatio,
    ParseFailure,
    ValidationFailure,
)
from multirate.io import (
    load_manifest,
    read_dataset,
    read_episode,
    verify_checksums,
    write_dataset,
    write_episode,
)
from multirate.model import DatasetManifest, FrameRecord, FrameStream, Method

from conftest import episode_strategy, make_episode

SRC = Path(__file__).resolve().parents[1] / "src"


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def episode():
    return make_episode(t_len=95, joints=3, ratio=10, frame_count=10, cameras=("a", "b"))


def test_write_returns_manifest_path(tmp_path, episode):
    p = write_episode(episode, tmp_path / "ep")
    assert p == tmp_path / "ep" / "manifest.json"
    assert p.is_file()


def test_episode_round_trip(tmp_path, episode):
    d = write_episode(episode, tmp_path / "ep")
    loaded = read_episode(d)
    assert loaded == episode
    # the enclosing directory is accepted too
    assert read_episode(d.parent) == episode


def test_episode_rewrite_is_byte_identical(tmp_path, episode):
    d1 = write_episode(episode, tmp_path / "ep1")
    d2 = write_episode(read_episode(d1), tmp_path / "ep2")
    assert tree_bytes(d1.parent) == tree_bytes(d2.parent)


def test_dataset_round_trip(tmp_path, episode):
    ds = augment([episode], Method.DABI)
    d = write_dataset(ds, tmp_path / "ds")
    loaded = read_dataset(d)
    assert loaded == ds


def test_dataset_rewrite_is_byte_identical(tmp_path, episode):
    ds = augment([episode], Method.FORWARD)
    d1 = write_dataset(ds, tmp_path / "ds1")
    d2 = write_dataset(read_dataset(d1), tmp_path / "ds2")
    assert tree_bytes(d1.parent) == tree_bytes(d2.parent)


@settings(max_examples=25, deadline=None)
@given(episode_strategy(max_ratio=6, max_joints=3))
def test_round_trip_property(tmp_path_factory, ep):
    root = tmp_path_factory.mktemp("rt")
    assert read_episode(write_episode(ep, root / "ep")) == ep
    ds = augment([ep], Method.DABI)
    assert read_dataset(write_dataset(ds, root / "ds")) == ds


def test_write_refuses_overwrite_without_flag(tmp_path, episode):
    write_episode(episode, tmp_path / "ep")
    with pytest.raises(IoFailure):
        write_episode(episode, tmp_path / "ep")
    write_episode(episode, tmp_path / "ep", overwrite=True)  # now allowed


def test_write_respects_lock(tmp_path, episode):
    target = tmp_path / "ep"
    (tmp_path / "ep.lock").touch()
    with pytest.raises(IoFailure):
        write_episode(episode, target)
    assert not target.exists()


def test_a_target_published_just_before_the_lock_is_not_replaced(tmp_path, episode, monkeypatch):
    """Another writer publishes the target between this writer's start and its lock."""
    target = tmp_path / "ep"
    theirs = dataclasses.replace(episode, episode_id="theirs")
    write_episode(theirs, tmp_path / "ref")
    original = os.open

    def racing(path, *args, **kwargs):
        if Path(path).name == "ep.lock":
            monkeypatch.setattr(os, "open", original)
            write_episode(theirs, target)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", racing)
    with pytest.raises(IoFailure, match="already exists"):
        write_episode(episode, target)
    assert tree_bytes(target) == tree_bytes(tmp_path / "ref")


def test_read_missing_directory():
    with pytest.raises(IoFailure):
        read_episode("/nonexistent/episode")


def test_corrupted_stream_is_rejected(tmp_path, episode):
    d = write_episode(episode, tmp_path / "ep")
    payload = d.parent / "leader.f64"
    data = bytearray(payload.read_bytes())
    data[17] ^= 0xFF
    payload.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        read_episode(d)


def test_corrupted_steps_file_is_rejected(tmp_path, episode):
    ds = augment([episode], Method.DOWNSAMPLE)
    d = write_dataset(ds, tmp_path / "ds")
    payload = d.parent / "steps-00000.bin"
    data = bytearray(payload.read_bytes())
    data[-1] ^= 0x01
    payload.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        read_dataset(d)


def test_truncated_manifest_is_rejected(tmp_path, episode):
    manifest = write_episode(episode, tmp_path / "ep")
    manifest.write_bytes(manifest.read_bytes()[:40])
    with pytest.raises(ParseFailure):
        read_episode(manifest)


def test_missing_declared_file_is_rejected(tmp_path, episode):
    ds = augment([episode], Method.DABI)
    d = write_dataset(ds, tmp_path / "ds")
    (d.parent / "steps-00004.bin").unlink()
    with pytest.raises(ValidationFailure) as exc:
        read_dataset(d)
    assert "steps-00004.bin" in str(exc.value)


def test_a_directory_in_a_payloads_place_is_missing(tmp_path, episode):
    d = write_episode(episode, tmp_path / "ep").parent
    (d / "leader.f64").unlink()
    (d / "leader.f64").mkdir()
    with pytest.raises(ValidationFailure) as exc:
        read_episode(d)
    assert str(exc.value) == f"{d}: declared file leader.f64 is missing"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_fifo_in_a_payloads_place_is_missing_without_blocking(tmp_path, episode):
    """Run in a child with a timeout: a reader that waits on the FIFO fails, not hangs."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for d, name in [
        (write_episode(episode, tmp_path / "ep").parent, "frames_a.bin"),
        (write_dataset(augment([episode], Method.DABI), tmp_path / "ds").parent, "steps-00003.bin"),
    ]:
        (d / name).unlink()
        os.mkfifo(d / name)
        done = subprocess.run(
            [sys.executable, "-m", "multirate", "validate", str(d)],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert done.returncode == 1, done.stderr
        row = f"FAIL checksums: ValidationFailure: {d.name}: declared file {name} is missing"
        assert row in done.stdout
        assert "Traceback" not in done.stderr


def _asked_reads(monkeypatch) -> list[int]:
    """The sizes os.read is asked for from here on."""
    asked = []
    original = os.read

    def counting(fd, size):
        asked.append(size)
        return original(fd, size)

    monkeypatch.setattr(io.os, "read", counting)
    return asked


def _fstat_sizes(monkeypatch, reported) -> None:
    """os.fstat from here on reports a file of `size` bytes as `reported(size)` bytes."""
    original = os.fstat

    def stale(fd):
        st = original(fd)
        return os.stat_result((*st[:6], reported(st.st_size), *st[7:10]))

    monkeypatch.setattr(io.os, "fstat", stale)


def test_a_payload_costs_one_read(tmp_path, episode, monkeypatch):
    d = write_episode(episode, tmp_path / "ep").parent
    ds = write_dataset(augment([episode], Method.DABI), tmp_path / "ds").parent
    (d / "empty.bin").write_bytes(b"")
    payloads = [(d, name) for name in [*load_manifest(d)["files"], "empty.bin"]]
    payloads.append((ds, "steps-00000.bin"))
    asked = _asked_reads(monkeypatch)
    for directory, name in payloads:
        asked.clear()
        data = io._read_payload(directory, name)
        assert data == (directory / name).read_bytes()
        # one byte more than the file holds is asked for, so the read that returns it ends
        assert asked == [len(data) + 1], name


def test_a_payload_that_grew_after_its_fstat_is_read_to_its_end(tmp_path, monkeypatch):
    episode = make_episode(t_len=4000, joints=3, ratio=10)  # 288 000 bytes per robot stream
    d = write_episode(episode, tmp_path / "ep").parent
    want = (d / "leader.f64").read_bytes()
    _fstat_sizes(monkeypatch, lambda size: min(size, 10))  # the fstat saw the first 10 bytes
    asked = _asked_reads(monkeypatch)
    assert io._read_payload(d, "leader.f64") == want
    # the first read fills its request, so reading goes on until a read returns nothing
    assert asked[0] == 11 and set(asked[1:]) == {1 << 16}
    assert read_episode(d) == episode


def test_a_payload_shorter_than_its_fstat_gives_the_bytes_there(tmp_path, episode, monkeypatch):
    d = write_dataset(augment([episode], Method.DABI), tmp_path / "ds").parent
    path = d / "steps-00002.bin"
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    _fstat_sizes(monkeypatch, lambda size: size + 40)  # as the fstat saw it before the cut
    assert io._read_payload(d, "steps-00002.bin") == data[:-40]
    with pytest.raises(ChecksumMismatch) as exc:
        read_dataset(d)
    assert str(exc.value) == f"{path}: size {len(data) - 40} != declared {len(data)}"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_fifo_in_a_payloads_place_is_refused_before_any_read(tmp_path, monkeypatch):
    os.mkfifo(tmp_path / "leader.f64")
    asked = _asked_reads(monkeypatch)

    def waited(signum, frame):
        raise TimeoutError("the open waited for a writer")

    # an open that waits on the FIFO is cut short after 10 s, and the test fails
    previous = signal.signal(signal.SIGALRM, waited)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(ValidationFailure) as exc:
            io._read_payload(tmp_path, "leader.f64")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == f"{tmp_path}: declared file leader.f64 is missing"
    assert asked == []


def test_an_unreadable_payload_is_an_io_failure(tmp_path, episode, monkeypatch):
    d = write_episode(episode, tmp_path / "ep").parent
    original = os.open

    def refusing(path, flags, *args, **kwargs):
        if Path(path).name == "follower.f64":
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return original(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing)
    with pytest.raises(IoFailure) as exc:
        read_episode(d)
    path = d / "follower.f64"
    assert str(exc.value) == f"cannot read {path}: [Errno 13] Permission denied: '{path}'"


def test_a_read_that_fails_after_the_open_is_an_io_failure(tmp_path, episode, monkeypatch):
    d = write_episode(episode, tmp_path / "ep").parent

    def failing(fd, size):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(io.os, "read", failing)
    with pytest.raises(IoFailure) as exc:
        read_episode(d)
    assert str(exc.value) == f"cannot read {d / 'follower.f64'}: [Errno 5] Input/output error"


def test_a_manifest_that_cannot_be_read_is_an_io_failure(tmp_path, episode, monkeypatch):
    manifest = write_episode(episode, tmp_path / "ep")

    def failing(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", failing)
    with pytest.raises(IoFailure) as exc:
        load_manifest(manifest.parent)
    assert str(exc.value) == (
        f"cannot read {manifest}: [Errno 13] Permission denied: '{manifest}'"
    )


def test_a_write_under_a_regular_file_is_an_io_failure(tmp_path, episode):
    (tmp_path / "plain").write_text("x")
    target = tmp_path / "plain" / "ep"
    with pytest.raises(IoFailure) as exc:
        write_episode(episode, target)
    assert str(exc.value) == (
        f"cannot create parent of {target}: [Errno {errno.EEXIST}] "
        f"{os.strerror(errno.EEXIST)}: '{tmp_path / 'plain'}'"
    )
    assert (tmp_path / "plain").read_text() == "x"


def test_a_lock_name_past_the_name_limit_is_an_io_failure(tmp_path, episode):
    target = tmp_path / ("e" * 251)  # a name the file system takes, but not with ".lock"
    with pytest.raises(IoFailure) as exc:
        write_episode(episode, target)
    assert str(exc.value) == (
        f"cannot create lock for {target}: [Errno {errno.ENAMETOOLONG}] "
        f"{os.strerror(errno.ENAMETOOLONG)}: '{target}.lock'"
    )
    assert list(tmp_path.iterdir()) == []


def test_undeclared_episode_count_is_rejected(tmp_path, episode):
    """Manifest says dabi at ratio 10 but lists only 9 sub-episodes."""
    ds = augment([episode], Method.DABI)
    manifest = write_dataset(ds, tmp_path / "ds")
    raw = json.loads(manifest.read_text())
    dropped = raw["episodes"].pop()
    del raw["files"][dropped["file"]]
    manifest.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    (manifest.parent / dropped["file"]).unlink()
    with pytest.raises(ValidationFailure):
        read_dataset(manifest)


def test_sample_count_exceeding_file_rows_is_rejected(tmp_path, episode):
    """Manifest claims one more sample than the robot files actually hold.

    Checksums still pass (the payload is untouched); the count cross-check
    is what must catch it.
    """
    manifest = write_episode(episode, tmp_path / "ep")
    raw = json.loads(manifest.read_text())
    raw["sample_count"] += 1
    man_bytes = (json.dumps(raw, indent=2, sort_keys=True) + "\n").encode()
    manifest.write_bytes(man_bytes)
    with pytest.raises(ValidationFailure) as exc:
        read_episode(manifest)
    assert not isinstance(exc.value, ChecksumMismatch)
    assert "leader.f64" in str(exc.value)


def test_step_count_exceeding_file_rows_is_rejected(tmp_path, episode):
    ds = augment([episode], Method.FORWARD)
    manifest = write_dataset(ds, tmp_path / "ds")
    raw = json.loads(manifest.read_text())
    raw["episodes"][0]["step_count"] += 1
    manifest.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ValidationFailure) as exc:
        read_dataset(manifest)
    assert not isinstance(exc.value, ChecksumMismatch)


def test_non_divisible_rates_in_manifest_are_rejected(tmp_path, episode):
    d = write_episode(episode, tmp_path / "ep")
    raw = json.loads(d.read_text())
    raw["frame_rate_hz"] = 3  # robot rate 100 is not a multiple
    d.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    with pytest.raises(NonIntegerRatio):
        read_episode(d)


def test_unknown_format_version_is_rejected(tmp_path, episode):
    manifest = write_episode(episode, tmp_path / "ep")
    raw = json.loads(manifest.read_text())
    raw["format_version"] = 99
    manifest.write_text(json.dumps(raw))
    with pytest.raises(ParseFailure) as exc:
        read_episode(manifest)
    assert "99" in str(exc.value)


# each JSON value a reader takes is of one kind: a string is not coerced from null or a
# number, a camera list is not a string, and a stamp's size is an integer
EPISODE_JSON_KINDS = {
    "episode-id-null": (
        lambda raw: raw.update(episode_id=None), ParseFailure,
        "bad episode manifest: TypeError('episode_id must be a string, got None')",
    ),
    "cameras-string": (
        lambda raw: raw.update(cameras="a"), ParseFailure,
        "bad episode manifest: TypeError(\"cameras must be an array of strings, got 'a'\")",
    ),
    "camera-number": (
        lambda raw: raw.update(cameras=["a", 5]), ParseFailure,
        "bad episode manifest: TypeError(\"cameras must be an array of strings, got ['a', 5]\")",
    ),
    "meta-value-number": (
        lambda raw: raw.update(meta={"task": 5}), ParseFailure,
        "bad episode manifest: TypeError('task must be a string, got 5')",
    ),
    "format-version-true": (
        lambda raw: raw.update(format_version=True), ParseFailure,
        "{manifest}: unsupported format_version True (this build reads 1)",
    ),
    "format-version-float": (
        lambda raw: raw.update(format_version=1.0), ParseFailure,
        "{manifest}: unsupported format_version 1.0 (this build reads 1)",
    ),
    "stamp-bytes-float": (
        lambda raw: raw["files"]["leader.f64"].update(bytes=6840.0), ChecksumMismatch,
        "{dir}/leader.f64: size 6840 != declared 6840.0",
    ),
}


@pytest.mark.parametrize("case", sorted(EPISODE_JSON_KINDS))
def test_episode_reader_takes_each_json_value_of_one_kind(tmp_path, episode, case):
    change, error, message = EPISODE_JSON_KINDS[case]
    manifest = write_episode(episode, tmp_path / "ep")
    raw = json.loads(manifest.read_text())
    change(raw)
    manifest.write_text(json.dumps(raw))
    with pytest.raises(error) as exc:
        read_episode(manifest)
    assert str(exc.value) == message.format(manifest=manifest, dir=manifest.parent)


DATASET_JSON_KINDS = {
    "method-number": (
        lambda raw: raw.update(method=5), "TypeError('method must be a string, got 5')",
    ),
    "source-ids-numbers": (
        lambda raw: raw.update(source_episode_ids=[0]),
        "TypeError('source_episode_ids must be an array of strings, got [0]')",
    ),
    "entry-source-number": (
        lambda raw: raw["episodes"][0].update(source_episode_id=0),
        "bad episode entry: TypeError('source_episode_id must be a string, got 0')",
    ),
    "entry-file-number": (
        lambda raw: raw["episodes"][0].update(file=0),
        "bad episode entry: TypeError('file must be a string, got 0')",
    ),
    "entry-cameras-string": (
        lambda raw: raw["episodes"][0].update(cameras="a"),
        "bad episode entry: TypeError(\"cameras must be an array of strings, got 'a'\")",
    ),
}


@pytest.mark.parametrize("case", sorted(DATASET_JSON_KINDS))
def test_dataset_reader_takes_each_json_value_of_one_kind(tmp_path, episode, case):
    change, message = DATASET_JSON_KINDS[case]
    manifest = write_dataset(augment([episode], Method.DABI), tmp_path / "ds")
    raw = json.loads(manifest.read_text())
    change(raw)
    manifest.write_text(json.dumps(raw))
    with pytest.raises(ParseFailure) as exc:
        read_dataset(manifest)
    assert str(exc.value) == f"{manifest}: {message}"


def test_kind_mismatch_is_rejected(tmp_path, episode):
    ep_dir = write_episode(episode, tmp_path / "ep")
    ds_dir = write_dataset(augment([episode], Method.DOWNSAMPLE), tmp_path / "ds")
    with pytest.raises(ParseFailure):
        read_dataset(ep_dir)
    with pytest.raises(ParseFailure):
        read_episode(ds_dir)


def test_load_manifest_reports_kind(tmp_path, episode):
    ep_dir = write_episode(episode, tmp_path / "ep")
    assert load_manifest(ep_dir)["kind"] == "episode"


@pytest.mark.parametrize("kind", ["bundle", None])
def test_load_manifest_refuses_an_unknown_kind(tmp_path, episode, kind):
    manifest = write_episode(episode, tmp_path / "ep")
    raw = json.loads(manifest.read_text())
    raw["kind"] = kind
    manifest.write_text(json.dumps(raw))
    with pytest.raises(ParseFailure) as exc:
        load_manifest(tmp_path / "ep")
    assert str(exc.value) == f"{manifest}: unknown kind {kind!r}"


def test_manifest_has_no_absolute_paths_or_timestamps(tmp_path, episode):
    text = write_episode(episode, tmp_path / "ep").read_text()
    assert str(tmp_path) not in text
    for word in ("time", "date", "stamp"):
        assert word not in text.lower()


def test_episode_directory_layout(tmp_path):
    """2 joints, 10 samples, 2 frames, one camera: manifest plus two robot
    payloads of 10 x 6 doubles plus one frame file holding 2 records."""
    ep = make_episode(t_len=10, joints=2, ratio=9, frame_count=2, cameras=("cam",))
    d = write_episode(ep, tmp_path / "ep").parent
    names = sorted(p.name for p in d.iterdir())
    assert names == ["follower.f64", "frames_cam.bin", "leader.f64", "manifest.json"]
    assert (d / "leader.f64").stat().st_size == 10 * 2 * 3 * 8
    assert (d / "follower.f64").stat().st_size == 10 * 2 * 3 * 8
    assert read_episode(d).frame_streams[0].frame_count == 2


def test_episode_manifest_lists_checksums(tmp_path, episode):
    from multirate.io import load_manifest

    files = load_manifest(write_episode(episode, tmp_path / "ep"))["files"]
    assert set(files) == {
        "leader.f64",
        "follower.f64",
        "frames_a.bin",
        "frames_b.bin",
    }
    assert all(len(v["crc32"]) == 8 for v in files.values())


def test_failed_write_leaves_no_target(tmp_path):
    ep = make_episode(t_len=10, joints=1, ratio=1)
    target = tmp_path / "out" / "ep"
    write_episode(ep, target)
    before = tree_bytes(target)
    with pytest.raises(IoFailure):
        write_episode(ep, target)  # no overwrite flag
    assert tree_bytes(target) == before
    assert not (tmp_path / "out" / "ep.tmp").exists()
    assert not (tmp_path / "out" / "ep.lock").exists()

@pytest.mark.parametrize("failing", ["aside", "publish"])
def test_failed_overwrite_keeps_the_old_dataset(tmp_path, episode, monkeypatch, failing):
    """os.replace fails when moving the old copy aside, or when moving the new one in."""
    target = tmp_path / "ds"
    old = augment([episode], Method.DABI)
    write_dataset(old, target)
    before = tree_bytes(target)
    real_replace = io.os.replace

    def replace(src, dst):
        if {"ds": "aside", "ds.tmp": "publish"}.get(Path(src).name) == failing:
            raise OSError("injected")
        real_replace(src, dst)

    monkeypatch.setattr(io.os, "replace", replace)
    with pytest.raises(IoFailure, match="injected"):
        write_dataset(augment([episode], Method.FORWARD), target, overwrite=True)
    assert tree_bytes(target) == before
    assert read_dataset(target) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def _fail_once(monkeypatch, owner, attr, name, exc):
    """Patch `owner.attr` to raise `exc` at its first call on a path called `name`."""
    real = getattr(owner, attr)
    fired = []

    def patched(path, *args, **kwargs):
        if not fired and Path(path).name == name:
            fired.append(path)
            raise exc
        return real(path, *args, **kwargs)

    monkeypatch.setattr(owner, attr, patched)
    return fired


_PUBLISH_FAULTS = {
    "clear stale tmp": (io.shutil, "rmtree", "ds.tmp", OSError),
    "make staging dir": (Path, "mkdir", "ds.tmp", OSError),
    "payload write": (Path, "write_bytes", "steps-00003.bin", OSError),
    "manifest write": (Path, "write_bytes", "manifest.json", OSError),
    "interrupt payload": (Path, "write_bytes", "steps-00003.bin", KeyboardInterrupt),
}


@pytest.mark.parametrize("overwrite", [False, True], ids=["fresh", "overwrite"])
@pytest.mark.parametrize("fault", _PUBLISH_FAULTS)
def test_a_fault_at_each_step_of_a_publish_leaves_the_target_as_it_was(
    tmp_path, episode, monkeypatch, fault, overwrite
):
    target = tmp_path / "ds"
    if overwrite:
        write_dataset(augment([episode], Method.DABI), target)
    before = tree_bytes(target)
    if fault == "clear stale tmp":
        (tmp_path / "ds.tmp").mkdir()
        (tmp_path / "ds.tmp" / "steps-00000.bin").write_bytes(b"left by a killed writer")
    owner, attr, name, kind = _PUBLISH_FAULTS[fault]
    fired = _fail_once(monkeypatch, owner, attr, name, kind("injected"))
    new = augment([episode], Method.FORWARD)
    expected = IoFailure if kind is OSError else kind
    with pytest.raises(expected) as caught:
        write_dataset(new, target, overwrite=overwrite)
    assert fired
    if expected is IoFailure:
        assert str(caught.value) == f"failed to publish {target}: injected"
    assert target.exists() == overwrite and tree_bytes(target) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"] * overwrite
    monkeypatch.undo()
    write_dataset(new, target, overwrite=overwrite)
    assert read_dataset(target) == new


def test_overwrite_clears_a_stale_aside_copy(tmp_path, episode):
    target = tmp_path / "ds"
    (tmp_path / "ds.old.tmp").mkdir()
    (tmp_path / "ds.old.tmp" / "manifest.json").write_text("{}")
    write_dataset(augment([episode], Method.DABI), target)
    new = augment([episode], Method.FORWARD)
    write_dataset(new, target, overwrite=True)
    assert read_dataset(target) == new
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


@pytest.mark.parametrize("kind", ["file", "link"])
def test_overwrite_leaves_a_target_that_is_not_a_directory(tmp_path, episode, kind):
    ds = augment([episode], Method.DABI)
    target = tmp_path / "ds"
    if kind == "file":
        target.write_text("x")
    else:
        write_dataset(ds, tmp_path / "real")
        target.symlink_to("real")
    for _ in range(2):  # nothing is left behind that would block the next write
        with pytest.raises(IoFailure):
            write_dataset(ds, target, overwrite=True)
    if kind == "file":
        assert target.read_text() == "x"
    else:
        assert target.is_symlink() and read_dataset(target) == ds
    assert not list(tmp_path.glob("ds.*"))  # no .tmp, .old.tmp or .lock left behind


def test_steps_file_matches_documented_row_layout(tmp_path, episode):
    """Rebuild each steps file from docs/format.md: u64 index, obs f64s, act f64s."""
    ds = augment([episode], Method.DABI)
    d = write_dataset(ds, tmp_path / "ds").parent
    ratio, t_len = episode.ratio, episode.sample_count
    for i, sub in enumerate(ds.episodes):
        want = b""
        for k in range(episode.frame_count):
            idx = min(max(k * ratio + sub.provenance.offset, 0), t_len - 1)
            want += struct.pack("<Q", idx)
            want += episode.follower.data[idx].astype("<f8").tobytes()
            want += episode.leader.data[idx].astype("<f8").tobytes()
        assert (d / f"steps-{i:05d}.bin").read_bytes() == want


def test_verify_checksums_returns_verified_bytes(tmp_path, episode):
    d = write_dataset(augment([episode], Method.FORWARD), tmp_path / "ds").parent
    payloads = verify_checksums(d, load_manifest(d))
    assert payloads == {name: (d / name).read_bytes() for name in load_manifest(d)["files"]}


def test_readers_read_each_payload_once(tmp_path, episode, monkeypatch):
    ep_dir = write_episode(episode, tmp_path / "ep").parent
    ds_dir = write_dataset(augment([episode], Method.DABI), tmp_path / "ds").parent
    reads = []
    original = io._read_payload

    def counting(directory, name):
        reads.append(name)
        return original(directory, name)

    monkeypatch.setattr(io, "_read_payload", counting)
    read_episode(ep_dir)
    assert sorted(reads) == sorted(load_manifest(ep_dir)["files"])
    reads.clear()
    read_dataset(ds_dir)
    assert sorted(reads) == sorted(load_manifest(ds_dir)["files"])


def test_the_dataset_reader_parses_each_entry_once_before_any_payload(
    tmp_path, episode, monkeypatch
):
    ds_dir = write_dataset(augment([episode], Method.DABI), tmp_path / "ds").parent
    events = []
    parse, read = io._parse_entry, io._read_payload

    def parsing(directory, files, entry):
        events.append(("parse", entry["file"]))
        return parse(directory, files, entry)

    def reading(directory, name):
        events.append(("read", name))
        return read(directory, name)

    monkeypatch.setattr(io, "_parse_entry", parsing)
    monkeypatch.setattr(io, "_read_payload", reading)
    read_dataset(ds_dir)
    files = [e["file"] for e in load_manifest(ds_dir)["episodes"]]
    assert events == [("parse", f) for f in files] + [("read", f) for f in files]


def test_read_episode_keeps_streams_in_the_payload_bytes(tmp_path):
    big = make_episode(t_len=100_000, joints=5, ratio=10)
    ep_dir = write_episode(big, tmp_path / "ep").parent
    payload = sum(f["bytes"] for f in load_manifest(ep_dir)["files"].values())
    del big
    tracemalloc.start()
    try:
        loaded = read_episode(ep_dir)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a copy of the robot streams would take the peak to about twice the payload
    assert peak < 1.3 * payload
    for stream in (loaded.leader, loaded.follower):
        with pytest.raises(ValueError):
            stream.data.setflags(write=True)


def _rewrite(manifest: Path, edit) -> Path:
    raw = json.loads(manifest.read_text())
    edit(raw)
    manifest.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return manifest


@pytest.mark.parametrize("name", ["", ".", "..", "../steps-00000.bin", "sub/x.bin", "a\\b.bin"])
def test_path_like_file_name_is_rejected(tmp_path, episode, name):
    """A files key that is not a plain name never reaches the file system."""
    manifest = write_dataset(augment([episode], Method.DOWNSAMPLE), tmp_path / "ds")

    def edit(raw):
        raw["files"][name] = raw["files"].pop("steps-00000.bin")
        raw["episodes"][0]["file"] = name

    with pytest.raises(ParseFailure):
        read_dataset(_rewrite(manifest, edit))


@pytest.mark.parametrize("name", ["../ep/leader.f64", "manifest.json", "stray.bin"])
def test_undeclared_entry_file_is_rejected(tmp_path, episode, name):
    """An entry may only name a file whose checksum the manifest declares."""
    write_episode(episode, tmp_path / "ep")
    manifest = write_dataset(augment([episode], Method.DOWNSAMPLE), tmp_path / "ds")
    stray = manifest.parent / "stray.bin"
    stray.write_bytes((manifest.parent / "steps-00000.bin").read_bytes())

    def edit(raw):
        raw["episodes"][0]["file"] = name

    with pytest.raises(ParseFailure):
        read_dataset(_rewrite(manifest, edit))


def test_episode_camera_without_declared_frames_is_rejected(tmp_path, episode):
    manifest = write_episode(episode, tmp_path / "ep")
    (manifest.parent / "frames_c.bin").write_bytes((manifest.parent / "frames_a.bin").read_bytes())

    def edit(raw):
        raw["cameras"] = ["a", "c"]

    with pytest.raises(ParseFailure):
        read_episode(_rewrite(manifest, edit))


def test_episode_meta_that_is_not_an_object_is_rejected(tmp_path, episode):
    manifest = write_episode(episode, tmp_path / "ep")

    def edit(raw):
        raw["meta"] = ["task", "hold"]

    with pytest.raises(ParseFailure):
        read_episode(_rewrite(manifest, edit))


def test_files_entry_that_is_not_an_object_is_rejected(tmp_path, episode):
    manifest = write_episode(episode, tmp_path / "ep")

    def edit(raw):
        raw["files"]["leader.f64"] = "deadbeef"

    _rewrite(manifest, edit)
    with pytest.raises(ParseFailure, match="leader.f64"):
        verify_checksums(manifest.parent, load_manifest(manifest.parent))


def _packed(records) -> bytes:
    """A frame file as docs/format.md lays it out: per record <QQ (seq, length), then the payload."""
    return b"".join(struct.pack("<QQ", seq, len(payload)) + payload for seq, payload in records)


@settings(max_examples=60, deadline=None)
@given(payloads=st.lists(st.binary(max_size=40), min_size=1, max_size=12))
def test_frame_stream_round_trip_keeps_records_and_bytes(tmp_path_factory, payloads):
    records = tuple(FrameRecord(seq=k, payload=p) for k, p in enumerate(payloads))
    base = make_episode(t_len=len(payloads), joints=1, ratio=1)
    stream = FrameStream("cam", base.frame_streams[0].rate_hz, records)
    d = write_episode(
        dataclasses.replace(base, frame_streams=(stream,)), tmp_path_factory.mktemp("ep") / "ep"
    ).parent
    assert (d / "frames_cam.bin").read_bytes() == _packed(enumerate(payloads))
    loaded = read_episode(d).frame_streams[0]
    assert loaded.records == records
    assert loaded == stream and loaded.frame_count == len(payloads)


_FRAME_DAMAGE = {
    "truncated header": (
        _packed([(0, b"a" * 8), (1, b"b" * 8), (2, b"c" * 8)]) + b"\0" * 5,
        ParseFailure, "{path}: truncated record header at byte 72",
    ),
    "payload past end": (
        _packed([(0, b"a" * 8)]) + struct.pack("<QQ", 1, 100) + b"b" * 8,
        ParseFailure, "{path}: record 1 payload runs past end of file",
    ),
    "frame count": (
        _packed([(0, b"a" * 8), (1, b"b" * 8)]),
        ValidationFailure, "{path}: holds 2 frames, manifest declares 3",
    ),
    "seq order": (
        _packed([(0, b"a" * 8), (2, b"b" * 8), (1, b"c" * 8)]),
        ValidationFailure, "camera cam: frame seqs must be 0..F-1 in order, got seq 2 at position 1",
    ),
    # precedence: a truncated header before a wrong count, a wrong count before seq order
    "truncated before count": (
        _packed([(0, b"a" * 8)]) + b"\0" * 3,
        ParseFailure, "{path}: truncated record header at byte 24",
    ),
    "count before seq order": (
        _packed([(1, b"a" * 8), (0, b"b" * 8)]),
        ValidationFailure, "{path}: holds 2 frames, manifest declares 3",
    ),
}


@pytest.mark.parametrize("case", sorted(_FRAME_DAMAGE))
def test_frame_file_damage_messages(tmp_path, case):
    blob, error, message = _FRAME_DAMAGE[case]
    d = write_episode(make_episode(t_len=21, joints=1, ratio=10), tmp_path / "ep").parent
    (d / "frames_cam.bin").write_bytes(blob)

    def restamp(raw):  # checksums agree, so only the frame parser can object
        raw["files"]["frames_cam.bin"] = {
            "bytes": len(blob), "crc32": f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}",
        }

    _rewrite(d / "manifest.json", restamp)
    with pytest.raises(error) as info:
        read_episode(d)
    assert type(info.value) is error
    assert str(info.value) == message.format(path=d / "frames_cam.bin")


def _walked(blob: bytes, path: Path, frame_count: int) -> FrameStream:
    """The frame stream a reader finds by walking every record header in turn."""
    starts, pos = [], 0
    while pos < len(blob):
        if pos + 16 > len(blob):
            raise ParseFailure(f"{path}: truncated record header at byte {pos}")
        seq, length = struct.unpack_from("<QQ", blob, pos)
        pos += 16
        if pos + length > len(blob):
            raise ParseFailure(f"{path}: record {seq} payload runs past end of file")
        starts.append(pos)
        pos += length
    if len(starts) != frame_count:
        raise ValidationFailure(
            f"{path}: holds {len(starts)} frames, manifest declares {frame_count}"
        )
    return FrameStream.from_packed("cam", 10, blob)


@st.composite
def _frame_files(draw):
    """A frame file, its record count, and perhaps one truncation or one flipped byte."""
    shape = draw(st.sampled_from(["one length", "mixed", "mixed but tiling"]))
    if shape == "one length":
        lengths = [draw(st.integers(0, 40))] * draw(st.integers(1, 8))
    elif shape == "mixed":
        lengths = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    else:
        # like 20, 10, 30: every pair around the first length keeps F * (16 + L0) bytes
        first = draw(st.integers(1, 30))
        lengths = [first]
        for delta in draw(st.lists(st.integers(1, first), min_size=1, max_size=4)):
            pair = [first - delta, first + delta]
            lengths += pair[::-1] if draw(st.booleans()) else pair
    blob = _packed((k, draw(st.binary(min_size=n, max_size=n))) for k, n in enumerate(lengths))
    damage = draw(st.sampled_from(["none", "truncate", "flip"]))
    if damage == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif damage == "flip":
        pos = draw(st.integers(0, len(blob) - 1))
        blob = blob[:pos] + bytes([blob[pos] ^ draw(st.integers(1, 255))]) + blob[pos + 1 :]
    return blob, len(lengths)


def _outcome(parse):
    try:
        stream = parse()
    except MultirateError as exc:
        return type(exc), str(exc)
    return stream.packed, stream.starts.tolist()


@settings(max_examples=200, deadline=None)
@given(case=_frame_files(), miscount=st.sampled_from([0, 0, 1, -1]))
def test_frame_location_matches_the_header_walk(case, miscount):
    blob, count = case
    directory = Path("ep")
    frame_count = count + miscount
    got = _outcome(
        lambda: io._parse_frames({"frames_cam.bin": blob}, directory, "cam", 10, frame_count)
    )
    assert got == _outcome(lambda: _walked(blob, directory / "frames_cam.bin", frame_count))


def test_payloads_that_fail_midway_leave_no_temp_dir_and_the_old_artifact(tmp_path, episode):
    """Payloads are produced during the write: a producer that raises ends the publish."""
    target = tmp_path / "ds"
    old = augment([episode], Method.DABI)
    write_dataset(old, target)
    before = tree_bytes(target)
    new = augment([episode], Method.FORWARD)

    def failing():
        for i, sub in enumerate(new.episodes):
            if i == 3:
                raise RuntimeError("producer failed")
            yield sub

    with pytest.raises(RuntimeError, match="producer failed"):
        write_dataset(SimpleNamespace(manifest=new.manifest, episodes=failing()), target,
                      overwrite=True)
    assert tree_bytes(target) == before
    assert read_dataset(target) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_episodes_given_as_an_iterator_are_written_as_the_dataset(tmp_path):
    """write_dataset takes `episodes` one at a time, as the command line's augment hands them over."""
    eps = [
        make_episode(t_len=95, joints=3, ratio=10, frame_count=10, episode_id="a", seed=1),
        make_episode(t_len=61, joints=3, ratio=10, frame_count=7, episode_id="b", seed=2),
    ]
    whole = augment(eps, Method.DABI)
    write_dataset(whole, tmp_path / "whole")
    write_dataset(SimpleNamespace(manifest=whole.manifest, episodes=iter(whole.episodes)),
                  tmp_path / "iterated")
    assert tree_bytes(tmp_path / "iterated") == tree_bytes(tmp_path / "whole")


@pytest.mark.parametrize(
    "case, refusal",
    [
        ("missing source",
         "dataset holds 10 sub-episodes, expected 20 (10 per source x 2 sources)"),
        ("mixed joints", "source b offset -4: 2 joints, but the first sub-episode has 3"),
        ("offsets out of order", None),
    ],
    ids=["missing source", "mixed joints", "offsets out of order"],
)
def test_write_dataset_refuses_what_read_dataset_refuses(tmp_path, case, refusal):
    """Sub-episodes streamed against a manifest are held to the reader's rules before publishing.

    Offset order is not one of them: validate's `ordering` row reports it.
    """
    a = make_episode(t_len=95, joints=3, ratio=10, frame_count=10, episode_id="a", seed=1)
    b = make_episode(t_len=95, joints=2 if case == "mixed joints" else 3, ratio=10,
                     frame_count=10, episode_id="b", seed=2)
    subs = augment([a], Method.DABI).episodes + augment([b], Method.DABI).episodes
    if case == "missing source":
        subs = subs[:10]
    elif case == "offsets out of order":
        subs = (subs[1], subs[0], *subs[2:])
    manifest = DatasetManifest(Method.DABI, 10, ("a", "b"))
    target = tmp_path / "ds"
    write_dataset(augment([a], Method.FORWARD), target)
    before = tree_bytes(target)
    streamed = SimpleNamespace(manifest=manifest, episodes=iter(subs))
    if refusal is None:
        write_dataset(streamed, target, overwrite=True)
        assert read_dataset(target).episodes == subs
        return
    with pytest.raises(ValidationFailure) as exc:
        write_dataset(streamed, target, overwrite=True)
    assert str(exc.value) == refusal
    assert tree_bytes(target) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_an_interrupt_between_the_renames_puts_the_old_artifact_back(tmp_path, episode, monkeypatch):
    target = tmp_path / "ds"
    old = augment([episode], Method.DABI)
    write_dataset(old, target)
    before = tree_bytes(target)
    real_replace = io.os.replace

    def replace(src, dst):
        if Path(src).name == "ds.tmp":
            raise KeyboardInterrupt
        real_replace(src, dst)

    monkeypatch.setattr(io.os, "replace", replace)
    with pytest.raises(KeyboardInterrupt):
        write_dataset(augment([episode], Method.FORWARD), target, overwrite=True)
    assert tree_bytes(target) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_rows_that_are_a_strided_view_are_written_as_their_steps(tmp_path, episode):
    """A read-only strided view over payload bytes is kept by AlignedEpisode without a copy."""
    ds = read_dataset(write_dataset(augment([episode], Method.DOWNSAMPLE), tmp_path / "ds"))
    sub = ds.episodes[0]
    every_other = dataclasses.replace(sub, rows=sub.rows[::2])
    assert not every_other.rows.flags.c_contiguous
    dataset = dataclasses.replace(ds, episodes=(every_other,))
    loaded = read_dataset(write_dataset(dataset, tmp_path / "strided"))
    assert loaded.episodes[0].rows.tobytes() == sub.rows[::2].tobytes()
