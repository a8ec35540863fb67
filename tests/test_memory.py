"""Peak traced memory of the CLI commands against what they must hold.

augment holds its sources and one source's sub-episodes at a time, validate the
dataset and one source at a time, stats the dataset and one copy of the
observations.  The bounds leave room for np.take's buffer and small objects,
but not for a second copy of the dataset or of the sources.
"""

import json
import tracemalloc

import pytest

from multirate.cli import main
from multirate.io import write_episode
from multirate.model import make_offsets, step_dtype, Method

from conftest import make_episode

JOINTS, RATIO = 5, 10
LENGTHS = (2400, 1800, 2000, 1500)  # samples per source; the first is the largest


def _payload_bytes(directory):
    return sum(f["bytes"] for f in json.loads((directory / "manifest.json").read_text())["files"].values())


def _peak(argv, capsys):
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr()
    return peak


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory") / "eps"
    for i, t_len in enumerate(LENGTHS):
        ep = make_episode(t_len=t_len, joints=JOINTS, ratio=RATIO, episode_id=f"ep-{i}", seed=i)
        write_episode(ep, root / ep.episode_id)
    return root


def _block(t_len):
    """Bytes of one source's (offsets x frames) steps under dabi."""
    frames = (t_len - 1) // RATIO + 1
    return len(make_offsets(Method.DABI, RATIO)) * frames * step_dtype(JOINTS).itemsize


def test_augment_holds_the_sources_and_one_source_block(sources, capsys):
    out = sources.parent / "ds-augment"
    peak = _peak(["augment", str(sources), "--method", "dabi", "--out", str(out)], capsys)
    held = sum(_payload_bytes(ep) for ep in sources.iterdir())
    assert peak < held + 1.6 * _block(LENGTHS[0])


def test_validate_holds_the_dataset_and_one_source(sources, capsys):
    out = sources.parent / "ds-validate"
    assert main(["augment", str(sources), "--method", "dabi", "--out", str(out)]) == 0
    peak = _peak(["validate", str(out)], capsys)
    assert "re-derived 40 sub-episodes from 4 sources" in capsys.readouterr().out
    largest = _payload_bytes(sources / "ep-0")
    assert peak < _payload_bytes(out) + largest + 1.6 * _block(LENGTHS[0])


def test_stats_holds_the_dataset_and_one_copy_of_the_observations(sources, capsys):
    out = sources.parent / "ds-stats"
    assert main(["augment", str(sources), "--method", "dabi", "--out", str(out)]) == 0
    peak = _peak(["stats", str(out)], capsys)
    steps = sum(_block(t) for t in LENGTHS) // step_dtype(JOINTS).itemsize
    columns = steps * 3 * JOINTS * 8
    assert peak < _payload_bytes(out) + 1.3 * columns
