"""validate's output on small clean and damaged datasets, pinned by digest.

Each case writes two or three small source episodes and their dabi or forward
dataset, with sizes drawn from a seeded numpy generator, then damages the
dataset or one source in a way the dataset reader still accepts, so that the
`read` row passes and the source rows (`ordering`, `re-derivation`,
`coverage`) decide.  One kind, a source stored twice and another not at all,
is refused by the reader since it checks each source's offset window; it
stays, so that the cases drawn after it keep their draws.  The exit code, stdout, stderr and
`--report` of `multirate validate`, with the case's temporary root replaced
by a fixed token, are hashed and compared with tests/golden_validate.json.

`multirate stats` on each case's dataset is pinned the same way, in
tests/golden_validate_stats.json: what the reader accepts, stats summarises.

`MULTIRATE_REGEN_GOLDEN=1` rewrites both files.  A digest that changes is a
change to what validate or stats prints or reports, and needs a reason.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from multirate.augment import augment
from multirate.cli import main
from multirate.io import read_episode, write_dataset, write_episode
from multirate.model import Method, RobotStream, make_offsets

from conftest import make_episode

GOLDEN = Path(__file__).with_name("golden_validate.json")
STATS_GOLDEN = Path(__file__).with_name("golden_validate_stats.json")
TOKEN = "<root>"

CLEAN = ("clean", "clean-via-sources", "source-missing")
DAMAGES = (
    "observation-word",
    "action-word",
    "negative-zero",
    "index-plus-one",
    "index-minus-one",
    "index-wrapped",
    "camera-relabelled",
    "entry-one-step-short",
    "source-other-sample-count",
    "source-other-joint-count",
    "offsets-swapped",
    "files-swapped",
    "source-stored-twice",
)
READ_REFUSED = ("source-stored-twice",)  # the reader checks each source's offset window


def _cases():
    """(name, kind, method, sizes): each kind under both methods, then 8 more drawn."""
    rng = np.random.default_rng(20261020)
    kinds = [(k, m) for k in CLEAN + DAMAGES for m in (Method.DABI, Method.FORWARD)]
    for _ in range(8):
        kinds.append(((CLEAN + DAMAGES)[rng.integers(len(CLEAN + DAMAGES))],
                      (Method.DABI, Method.FORWARD)[rng.integers(2)]))
    for i, (kind, method) in enumerate(kinds):
        ratio = int(rng.integers(2, 7))
        sizes = {
            "ratio": ratio,
            "joints": int(rng.integers(1, 4)),
            "sources": int(rng.integers(2, 4)),
            "frames": int(rng.integers(2, 6)),
            "extra": [int(e) for e in rng.integers(0, ratio, size=3)],
            "cameras": ("wrist", "overhead")[: int(rng.integers(1, 3))],
            "pick": [int(p) for p in rng.integers(0, 1 << 30, size=4)],
        }
        yield f"{i:02d}-{kind}-{method.value}", kind, method, sizes


def _stamp(ds, name, data):
    """Write one dataset payload and restamp its size and crc32 in the manifest."""
    (ds / name).write_bytes(bytes(data))
    _edit_manifest(ds, lambda raw: raw["files"][name].update(
        bytes=len(data), crc32=f"{zlib.crc32(bytes(data)) & 0xFFFFFFFF:08x}"))


def _edit_manifest(ds, edit):
    raw = json.loads((ds / "manifest.json").read_text())
    edit(raw)
    (ds / "manifest.json").write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def _set_word(ds, entry, at, value):
    """Overwrite the u64 word at byte `at` of an entry's steps file, crc32 restamped."""
    name = json.loads((ds / "manifest.json").read_text())["episodes"][entry]["file"]
    data = bytearray((ds / name).read_bytes())
    data[at : at + 8] = struct.pack("<Q", value)
    _stamp(ds, name, data)


def _word(ds, entry, at):
    name = json.loads((ds / "manifest.json").read_text())["episodes"][entry]["file"]
    return struct.unpack_from("<Q", (ds / name).read_bytes(), at)[0]


def _build(root, kind, method, sizes):
    """Write the case's sources and dataset under `root`; returns validate's extra arguments."""
    ratio, joints, frames = sizes["ratio"], sizes["joints"], sizes["frames"]
    eps_dir = root / ("archive" / Path("deep") if kind == "clean-via-sources" else "eps")
    episodes = []
    for s in range(sizes["sources"]):
        t_len = (frames - 1) * ratio + 1 + sizes["extra"][s]
        ep = make_episode(t_len, joints, ratio, episode_id=f"src-{s}", seed=sizes["pick"][0] + s,
                          cameras=sizes["cameras"])
        if kind == "negative-zero" and s == 0:
            # sample 0 is every offset's frame-0 sample at or below offset 0
            data = np.array(ep.follower.data)
            data[0, 0, 0] = 0.0
            ep = dataclasses.replace(ep, follower=RobotStream(ep.follower.rate_hz, data))
        write_episode(ep, eps_dir / ep.episode_id)
        episodes.append(read_episode(eps_dir / ep.episode_id))
    ds = root / "ds"
    write_dataset(augment(episodes, method), ds)
    offsets = make_offsets(method, ratio)
    pick = sizes["pick"]
    source = pick[1] % sizes["sources"]
    place = pick[2] % len(offsets)
    entry = source * len(offsets) + place
    row = 8 + 48 * joints
    step = pick[3] % frames
    word = pick[3] % (3 * joints)
    if kind == "clean-via-sources":
        return ["--sources", str(eps_dir)]
    if kind == "source-missing":
        shutil.rmtree(eps_dir / f"src-{source}")
    elif kind in ("observation-word", "action-word"):
        at = step * row + 8 + 8 * word + (24 * joints if kind == "action-word" else 0)
        _set_word(ds, entry, at, _word(ds, entry, at) ^ 1)
    elif kind == "negative-zero":
        _set_word(ds, offsets.index(0), 8, 0x8000_0000_0000_0000)
    elif kind in ("index-plus-one", "index-minus-one"):
        at = step * row
        delta = 1 if kind == "index-plus-one" else -1
        _set_word(ds, entry, at, (_word(ds, entry, at) + delta) % 2**64)
    elif kind == "index-wrapped":
        _set_word(ds, entry, step * row, 2**64 - 4)
    elif kind == "camera-relabelled":
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(
            cameras=["relabelled"] + raw["episodes"][entry]["cameras"][1:]))
    elif kind == "entry-one-step-short":
        name = f"steps-{entry:05d}.bin"
        _stamp(ds, name, (ds / name).read_bytes()[: (frames - 1) * row])
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(step_count=frames - 1))
    elif kind in ("source-other-sample-count", "source-other-joint-count"):
        t_len = (frames - 1) * ratio + 1 + sizes["extra"][source]
        if kind == "source-other-sample-count":
            t_len += ratio
        else:
            joints = joints % 3 + 1
        ep = make_episode(t_len, joints, ratio, episode_id=f"src-{source}", seed=pick[0] + 7,
                          cameras=sizes["cameras"])
        write_episode(ep, eps_dir / ep.episode_id, overwrite=True)
    elif kind in ("offsets-swapped", "files-swapped"):
        first, second = source * len(offsets), source * len(offsets) + 1 + place % (len(offsets) - 1)
        field = "offset" if kind == "offsets-swapped" else "file"

        def swap(raw):
            a, b = raw["episodes"][first], raw["episodes"][second]
            a[field], b[field] = b[field], a[field]

        _edit_manifest(ds, swap)
    elif kind == "source-stored-twice":
        other = (source + 1) % sizes["sources"]

        def twice(raw):
            for i in range(len(offsets)):
                kept = raw["episodes"][source * len(offsets) + i]
                lost = raw["episodes"][other * len(offsets) + i]
                shutil.copyfile(ds / kept["file"], ds / lost["file"])
                raw["files"][lost["file"]] = dict(raw["files"][kept["file"]])
                raw["episodes"][other * len(offsets) + i] = dict(kept, file=lost["file"])

        _edit_manifest(ds, twice)
    return []


def _run(root, command, argv, capsys):
    """The command's exit code, stdout, stderr and report, the case's root replaced."""
    report = root / f"{command}.json"
    capsys.readouterr()
    rc = main([command, str(root / "ds"), "--report", str(report), *argv])
    out, err = capsys.readouterr()
    text = report.read_text() if report.exists() else None
    for spelling in {str(root.resolve()), str(root)}:
        out, err = out.replace(spelling, TOKEN), err.replace(spelling, TOKEN)
        text = text and text.replace(spelling, TOKEN)
    return rc, out, err, text


def _compare(golden_path, digests, outputs):
    if os.environ.get("MULTIRATE_REGEN_GOLDEN") == "1":
        golden_path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    golden = json.loads(golden_path.read_text())
    changed = sorted(n for n in golden.keys() | digests.keys() if golden.get(n) != digests.get(n))
    assert not changed, "\n".join(f"{n}:\n{outputs.get(n, '(no such case)')}" for n in changed)


def test_validate_outputs_match_their_golden_digests(tmp_path, capsys):
    digests, outputs = {}, {}
    for name, kind, method, sizes in _cases():
        extra = _build(tmp_path / name, kind, method, sizes)
        rc, out, err, report = _run(tmp_path / name, "validate", extra, capsys)
        # every other case reaches the source rows: the reader accepts what was damaged
        assert ("ok   read: " in out) == (kind not in READ_REFUSED), (name, out)
        assert rc == (0 if kind in CLEAN else 1), (name, out, err)
        blob = json.dumps([rc, out, err, report]).encode()
        digests[name] = hashlib.sha256(blob).hexdigest()
        outputs[name] = out
    _compare(GOLDEN, digests, outputs)


def test_stats_outputs_match_their_golden_digests(tmp_path, capsys):
    digests, outputs = {}, {}
    for name, kind, method, sizes in _cases():
        _build(tmp_path / name, kind, method, sizes)
        result = _run(tmp_path / name, "stats", [], capsys)
        # stats reads no source episode: it fails only where the reader refuses the dataset
        assert result[0] == (1 if kind in READ_REFUSED else 0), (name, result)
        digests[name] = hashlib.sha256(json.dumps(result).encode()).hexdigest()
        outputs[name] = result
    _compare(STATS_GOLDEN, digests, outputs)
