"""Peak traced memory of the CLI commands against what they must hold.

simulate holds a chunk's stream and command buffers and one seed's episode;
augment one source and its sub-episodes at a time; validate one source and its
sub-episodes at a time; stats one copy of the observations and one source's
sub-episodes at a time.  The bounds leave room for np.take's buffer and small
objects, but not for the dataset, a second source or a second source's
sub-episodes, nor for a copy of every seed's streams.
"""

import dataclasses
import json
import tracemalloc

import pytest

from multirate.cli import main
from multirate.io import write_episode
from multirate.model import make_offsets, step_dtype, Method
from multirate.sim import default_sim_config, sim_config_to_dict

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


def test_simulate_holds_the_buffers_and_one_seed(tmp_path, capsys):
    config = dataclasses.replace(default_sim_config(), duration_s=0.25)
    path = tmp_path / "rig.json"
    path.write_text(json.dumps(sim_config_to_dict(config)))
    argv = ["simulate", "--config", str(path), "--trajectory", "pick_sweep"]
    # a first run untraced, so that what numpy imports on first use is not counted
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
    count = 16
    peak = _peak([*argv, "--out", str(tmp_path / "eps"), "--count", str(count)], capsys)
    # (N, 2, T, J, 3) streams and (N, 2, T, J) commands, float64
    buffers = count * 2 * config.sample_count * config.joint_count * (3 + 1) * 8
    # half the buffers: one seed's episode and the loop's small arrays fit (0.15 on
    # CPython 3.11, numpy 2.4), a copy of every seed's streams (0.75) does not
    assert peak < 1.5 * buffers


def test_augment_holds_one_source_and_its_block(sources, capsys):
    out = sources.parent / "ds-augment"
    peak = _peak(["augment", str(sources), "--method", "dabi", "--out", str(out)], capsys)
    largest = _payload_bytes(sources / "ep-0")
    # 0.6 of a block: the read's and the gather's buffers fit (0.26 on CPython 3.11, numpy
    # 2.4), a second source held while this source's sub-episodes are written does not
    assert peak < largest + 1.6 * _block(LENGTHS[0])


def test_validate_holds_one_source_and_its_sub_episodes(sources, capsys):
    out = sources.parent / "ds-validate"
    assert main(["augment", str(sources), "--method", "dabi", "--out", str(out)]) == 0
    peak = _peak(["validate", str(out)], capsys)
    assert "re-derived 40 sub-episodes from 4 sources" in capsys.readouterr().out
    largest = _payload_bytes(sources / "ep-0")
    # 0.75 of a block: the gather's and coverage's buffers fit (0.31 on CPython 3.11, numpy
    # 2.4), the next source's sub-episodes read while this source's are held do not
    assert peak < largest + 1.75 * _block(LENGTHS[0])


def test_stats_holds_the_observations_and_one_source_block(sources, capsys):
    out = sources.parent / "ds-stats"
    assert main(["augment", str(sources), "--method", "dabi", "--out", str(out)]) == 0
    peak = _peak(["stats", str(out)], capsys)
    steps = sum(_block(t) for t in LENGTHS) // step_dtype(JOINTS).itemsize
    columns = steps * 3 * JOINTS * 8
    # 0.35 of a block: the clamp count's index arrays fit (0.16 on CPython 3.11, numpy 2.4),
    # the next source's sub-episodes read while this source's are held do not
    assert peak < columns + 1.35 * _block(LENGTHS[0])
