"""Single-byte damage to stored artifacts: readers raise MultirateError or load, nothing else."""

import shutil
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate.augment import augment
from multirate.cli import main
from multirate.errors import MultirateError
from multirate.io import read_dataset, read_episode, write_dataset, write_episode
from multirate.model import Method

from conftest import make_episode

READERS = {"ep-0": read_episode, "ds": read_dataset}
KINDS = st.sampled_from(sorted(READERS))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two small episodes and their dabi dataset, side by side so validate finds the sources."""
    root = tmp_path_factory.mktemp("artifacts")
    eps = [make_episode(t_len=21, joints=2, ratio=10, episode_id=f"ep-{i}", seed=i) for i in (0, 1)]
    for ep in eps:
        write_episode(ep, root / ep.episode_id)
    write_dataset(augment(eps, Method.DABI), root / "ds")
    return root


def _payload_names(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name != "manifest.json")


@contextmanager
def _damaged_copy(root: Path, kind: str, name: str, data):
    """A copy of `root` in which one byte of `kind/name` is flipped or the file is cut short."""
    blob = (root / kind / name).read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="position")
        flipped = blob[pos] ^ data.draw(st.integers(1, 255), label="xor")
        blob = blob[:pos] + bytes([flipped]) + blob[pos + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "artifacts"
        shutil.copytree(root, copy)
        (copy / kind / name).write_bytes(blob)
        yield copy / kind


@settings(max_examples=150, deadline=None)
@given(kind=KINDS, data=st.data())
def test_damaged_payload_raises_a_multirate_error(artifacts, kind, data):
    name = data.draw(st.sampled_from(_payload_names(artifacts / kind)), label="file")
    with _damaged_copy(artifacts, kind, name, data) as damaged:
        with pytest.raises(MultirateError):
            READERS[kind](damaged)


@settings(max_examples=150, deadline=None)
@given(kind=KINDS, data=st.data())
def test_damaged_manifest_raises_a_multirate_error_or_loads(artifacts, kind, data):
    with _damaged_copy(artifacts, kind, "manifest.json", data) as damaged:
        try:
            READERS[kind](damaged)
        except MultirateError:
            pass


@settings(max_examples=60, deadline=None)
@given(kind=KINDS, data=st.data())
def test_validate_and_stats_on_damaged_artifact_exit_without_traceback(artifacts, kind, data):
    # the manifest is one file of many, but half of the damage goes there
    names = st.just("manifest.json") | st.sampled_from(_payload_names(artifacts / kind))
    name = data.draw(names, label="file")
    with _damaged_copy(artifacts, kind, name, data) as damaged:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            codes = [main([command, str(damaged)]) for command in ("validate", "stats")]
    assert codes[0] in (0, 1) and codes[1] in (0, 1)
