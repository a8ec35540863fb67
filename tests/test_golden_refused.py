"""What the commands print when the readers refuse a damaged artifact, pinned by digest.

Each case writes a small episode, or a small dabi or forward dataset over two
or three sources, with sizes drawn from a seeded numpy generator, then damages
one payload or one manifest field: a frame record's length (the first
record's, or a later one's, so that a uniform file still tiles), a seq, a header,
a frame too many, empty frame payloads, a NaN word, a missing payload or a
FIFO in its place, a flipped byte, a truncated steps file, a zero step count,
a file name that is not plain, mixed joint counts; then manifest fields: a
files table that is not an object, an unknown method, a ratio that is not an
integer, a duplicated source id, an entry of a source the manifest does not
list, every entry at zero joints, a manifest that is a JSON array.  Kinds
added later come after these, so that no earlier case's name or draws move:
a dataset ratio with a fraction and one written as a float, an entry's joints
with a fraction and as `true`, an entry's offset of -0.1, a source stored
twice and another not at all, and an episode robot rate with a fraction; then
JSON values of the wrong kind: a camera id that is a number (its file renamed to
match), a camera list that is a string, a null episode id, a format_version of
`true`, a stamp size written as a float, and an entry source id that is null; then a
dataset method with its first letter capitalised, which names no method.  Payload
damage is restamped (size and crc32) unless the damage is to the stamp's own
bytes, so the parsers, not the checksums, decide.  A few cases are sound (frame files
whose payloads are all empty), and pin that the readers accept them.

Episodes go through `validate`, `stats` and `augment`, datasets through
`validate` and `stats`.  The exit code, stdout, stderr and `--report` of each
command, with the case's temporary root replaced by a fixed token, are hashed
and compared with tests/golden_refused.json.

`MULTIRATE_REGEN_GOLDEN=1` rewrites that file.  A digest that changes is a
change to what a reader accepts, refuses or says, and needs a reason.
"""

import hashlib
import json
import os
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from multirate.augment import augment
from multirate.cli import main
from multirate.io import read_episode, write_dataset, write_episode
from multirate.model import FrameRecord, FrameStream, Method, make_offsets

from conftest import BASE_FRAME_HZ, make_episode

GOLDEN = Path(__file__).with_name("golden_refused.json")
TOKEN = "<root>"

EPISODE_DAMAGES = (
    "frame-length",
    "first-frame-length",
    "seq-out-of-order",
    "truncated-header",
    "frame-too-many",
    "empty-payloads-one-frame",
    "empty-payloads-one-frame-seq",
    "empty-payloads-many-frames",
    "empty-payloads-many-frames-seq",
    "leader-nan",
    "payload-missing",
    "payload-fifo",
)
DATASET_DAMAGES = (
    "flipped-byte",
    "observation-nan",
    "steps-truncated",
    "zero-step-count",
    "name-not-plain",
    "mixed-joints",
    "files-not-object",
    "unknown-method",
    "ratio-not-integer",
    "duplicate-source-id",
    "entry-source-unknown",
    "zero-joints",
    "manifest-array",
)
# added after the kinds above, in this order
LATER_DAMAGES = (
    "ratio-fraction",
    "ratio-float",
    "joints-fraction",
    "joints-true",
    "offset-fraction",
    "source-stored-twice",
    "robot-rate-fraction",
)
# added after the kinds above, in this order
JSON_KIND_DAMAGES = (
    "camera-not-string",
    "cameras-string",
    "episode-id-null",
    "format-version-true",
    "stamp-bytes-float",
    "entry-source-not-string",
)
# added after the kinds above
METHOD_CASE_DAMAGES = ("method-case",)
EPISODE_KINDS = EPISODE_DAMAGES + ("robot-rate-fraction",) + JSON_KIND_DAMAGES[:-1]
NAN = 0x7FF8_0000_0000_0001  # a quiet NaN with a payload bit, so no float op made it


def _cases():
    """(name, kind, sizes): each kind twice, as variant 0 and 1.

    Variant 0 writes frame records of one length and augments with dabi; variant 1 writes
    records of mixed lengths and augments with forward.
    """
    rng = np.random.default_rng(20261021)
    damages = (
        EPISODE_DAMAGES + DATASET_DAMAGES + LATER_DAMAGES + JSON_KIND_DAMAGES + METHOD_CASE_DAMAGES
    )
    kinds = [(k, v) for k in damages for v in (0, 1)]
    for i, (kind, variant) in enumerate(kinds):
        ratio = int(rng.integers(2, 7))
        frames = 1 if "one-frame" in kind else int(rng.integers(2, 7))
        sizes = {
            "variant": variant,
            "ratio": ratio,
            "joints": int(rng.integers(1, 4)),
            "sources": int(rng.integers(2, 4)),
            "frames": frames,
            "extra": int(rng.integers(0, ratio)),
            "cameras": ("wrist", "overhead")[: int(rng.integers(1, 3))],
            # one record length for every frame, or one each
            "lengths": [0] * frames if "empty" in kind else (
                [int(rng.integers(0, 13))] * frames if variant == 0
                else [int(n) for n in rng.integers(0, 13, size=frames)]
            ),
            "pick": [int(p) for p in rng.integers(0, 1 << 30, size=4)],
        }
        yield f"{i:02d}-{kind}-{variant}", kind, sizes


def _restamp(directory, name, data):
    """Write one payload and restamp its size and crc32 in the manifest."""
    (directory / name).write_bytes(bytes(data))
    _edit_manifest(directory, lambda raw: raw["files"][name].update(
        bytes=len(data), crc32=f"{zlib.crc32(bytes(data)) & 0xFFFFFFFF:08x}"))


def _edit_manifest(directory, edit):
    raw = json.loads((directory / "manifest.json").read_text())
    edit(raw)
    (directory / "manifest.json").write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def _episode(sizes, episode_id, seed, joints=None):
    """A source episode whose frame records have the case's payload lengths."""
    ratio, frames = sizes["ratio"], sizes["frames"]
    t_len = (frames - 1) * ratio + 1 + sizes["extra"]
    ep = make_episode(t_len, joints or sizes["joints"], ratio, episode_id=episode_id, seed=seed,
                      cameras=sizes["cameras"])
    rng = np.random.default_rng(seed)
    streams = tuple(
        FrameStream(camera, BASE_FRAME_HZ, tuple(
            FrameRecord(k, rng.bytes(n)) for k, n in enumerate(sizes["lengths"])
        ))
        for camera in sizes["cameras"]
    )
    return type(ep)(ep.episode_id, ep.leader, ep.follower, streams, dict(ep.meta))


def _damage_episode(ep_dir, kind, sizes):
    pick, frames = sizes["pick"], sizes["frames"]
    camera = sizes["cameras"][pick[0] % len(sizes["cameras"])]
    name = f"frames_{camera}.bin"
    blob = bytearray((ep_dir / name).read_bytes())
    # each record's header offset, from the lengths the file was written with
    heads = np.cumsum([0] + [16 + n for n in sizes["lengths"]])[:-1].tolist()
    k = pick[1] % frames
    if kind == "frame-length":
        k = 1 + pick[1] % (frames - 1)  # the first record's size still tiles a uniform file
    if kind in ("frame-length", "first-frame-length"):
        old = struct.unpack_from("<Q", blob, heads[k] + 8)[0]
        new = (old + 1, old + 7, old + (1 << 40), old - 1 if old else 3)[pick[2] % 4]
        struct.pack_into("<Q", blob, heads[k] + 8, new)
    elif kind in ("seq-out-of-order", "empty-payloads-many-frames-seq"):
        k = min(k, frames - 2)
        struct.pack_into("<Q", blob, heads[k], k + 1)
        struct.pack_into("<Q", blob, heads[k + 1], k)
    elif kind == "empty-payloads-one-frame-seq":
        struct.pack_into("<Q", blob, 0, 1 + pick[2] % 3)
    elif kind == "truncated-header":
        del blob[heads[k] + 1 + pick[2] % 15 :]
    elif kind == "frame-too-many":
        n = sizes["lengths"][-1]
        blob += struct.pack("<QQ", frames, n) + bytes(n)
    elif kind == "leader-nan":
        name = "leader.f64"
        blob = bytearray((ep_dir / name).read_bytes())
        at = 8 * (pick[2] % (len(blob) // 8))
        struct.pack_into("<Q", blob, at, NAN)
    elif kind in ("payload-missing", "payload-fifo"):
        gone = ("leader.f64", "follower.f64", name)[pick[2] % 3]
        (ep_dir / gone).unlink()
        if kind == "payload-fifo":
            os.mkfifo(ep_dir / gone)
        return
    elif kind == "robot-rate-fraction":
        _edit_manifest(ep_dir, lambda raw: raw.update(robot_rate_hz=raw["robot_rate_hz"] + 0.5))
        return
    elif kind in ("camera-not-string", "cameras-string"):
        # the camera's frame file renamed to match the id that replaces it
        new = 5 if kind == "camera-not-string" else "o"
        os.rename(ep_dir / name, ep_dir / f"frames_{new}.bin")

        def rename(raw):
            raw["files"][f"frames_{new}.bin"] = raw["files"].pop(name)
            cameras = [new if c == camera else c for c in raw["cameras"]]
            raw["cameras"] = cameras if kind == "camera-not-string" else new

        _edit_manifest(ep_dir, rename)
        return
    elif kind == "episode-id-null":
        _edit_manifest(ep_dir, lambda raw: raw.update(episode_id=None))
        return
    elif kind == "format-version-true":
        _edit_manifest(ep_dir, lambda raw: raw.update(format_version=True))
        return
    elif kind == "stamp-bytes-float":
        stamp = ("leader.f64", "follower.f64", name)[pick[2] % 3]
        _edit_manifest(ep_dir, lambda raw: raw["files"][stamp].update(
            bytes=float(raw["files"][stamp]["bytes"])))
        return
    else:
        return  # empty payloads, as written: the readers accept them
    _restamp(ep_dir, name, blob)


def _damage_dataset(ds, kind, sizes):
    pick = sizes["pick"]
    raw = json.loads((ds / "manifest.json").read_text())
    entry = pick[1] % len(raw["episodes"])
    name = raw["episodes"][entry]["file"]
    blob = bytearray((ds / name).read_bytes())
    row = 8 + 48 * sizes["joints"]
    if kind == "flipped-byte":
        at = pick[2] % len(blob)
        blob[at] ^= 1 << (pick[3] % 8)
        (ds / name).write_bytes(blob)  # not restamped: the crc32 tells
    elif kind == "observation-nan":
        step, word = pick[2] % sizes["frames"], pick[3] % (3 * sizes["joints"])
        struct.pack_into("<Q", blob, step * row + 8 + 8 * word, NAN)
        _restamp(ds, name, blob)
    elif kind == "steps-truncated":
        _restamp(ds, name, blob[: len(blob) - 1 - pick[2] % (len(blob) - 1)])
    elif kind == "zero-step-count":
        _restamp(ds, name, b"")
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(step_count=0))
    elif kind == "name-not-plain":
        bad = ("../" + name, "sub/" + name, ".")[pick[2] % 3]

        def rename(raw):
            raw["files"][bad] = raw["files"].pop(name)
            raw["episodes"][entry]["file"] = bad

        _edit_manifest(ds, rename)
    elif kind == "mixed-joints":
        # the same offset of the same source, written with one joint more
        src = raw["episodes"][entry]["source_episode_id"]
        joints = sizes["joints"] % 3 + 1
        other = _episode(sizes, src, pick[0] + int(src.split("-")[1]), joints=joints)
        offset = raw["episodes"][entry]["offset"]
        method = Method.from_name(raw["method"])
        sub = augment([other], method).episodes[make_offsets(method, sizes["ratio"]).index(offset)]
        _restamp(ds, name, sub.rows.tobytes())
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(joints=joints))
    elif kind == "files-not-object":
        _edit_manifest(ds, lambda raw: raw.update(files=sorted(raw["files"])))
    elif kind == "unknown-method":
        _edit_manifest(ds, lambda raw: raw.update(method="backward"))
    elif kind == "ratio-not-integer":
        _edit_manifest(ds, lambda raw: raw.update(ratio="2.5"))
    elif kind == "duplicate-source-id":
        twice = raw["source_episode_ids"][pick[2] % len(raw["source_episode_ids"])]
        _edit_manifest(ds, lambda raw: raw["source_episode_ids"].append(twice))
    elif kind == "entry-source-unknown":
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(source_episode_id="src-9"))
    elif kind == "zero-joints":
        _edit_manifest(ds, lambda raw: [e.update(joints=0) for e in raw["episodes"]])
    elif kind == "manifest-array":
        (ds / "manifest.json").write_text(json.dumps([raw], indent=2, sort_keys=True) + "\n")
    elif kind in ("ratio-fraction", "ratio-float"):
        ratio = sizes["ratio"] + (0.7 if kind == "ratio-fraction" else 0.0)
        _edit_manifest(ds, lambda raw: raw.update(ratio=ratio))
    elif kind in ("joints-fraction", "joints-true"):
        joints = sizes["joints"] + 0.5 if kind == "joints-fraction" else True
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(joints=joints))
    elif kind == "offset-fraction":
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(offset=-0.1))
    elif kind == "entry-source-not-string":
        _edit_manifest(ds, lambda raw: raw["episodes"][entry].update(source_episode_id=None))
    elif kind == "method-case":
        _edit_manifest(ds, lambda raw: raw.update(method=raw["method"].capitalize()))
    elif kind == "source-stored-twice":
        per_source = len(raw["episodes"]) // sizes["sources"]
        source = pick[2] % sizes["sources"]
        other = (source + 1) % sizes["sources"]

        def twice(raw):
            for i in range(per_source):
                kept = raw["episodes"][source * per_source + i]
                lost = raw["episodes"][other * per_source + i]
                shutil.copyfile(ds / kept["file"], ds / lost["file"])
                raw["files"][lost["file"]] = dict(raw["files"][kept["file"]])
                raw["episodes"][other * per_source + i] = dict(kept, file=lost["file"])

        _edit_manifest(ds, twice)


def _command(root, argv, capsys):
    report = root / "report.json"
    if report.exists():
        report.unlink()
    capsys.readouterr()
    rc = main([*argv, "--report", str(report)])
    out, err = capsys.readouterr()
    text = report.read_text() if report.exists() else None
    for spelling in {str(root.resolve()), str(root)}:
        out, err = out.replace(spelling, TOKEN), err.replace(spelling, TOKEN)
        text = text and text.replace(spelling, TOKEN)
    return [rc, out, err, text]


def _run(root, kind, sizes, capsys):
    """Each command's [exit code, stdout, stderr, report] on the case's damaged artifact."""
    if kind in EPISODE_KINDS:
        ep_dir = root / "ep"
        write_episode(_episode(sizes, "ep", sizes["pick"][0]), ep_dir)
        _damage_episode(ep_dir, kind, sizes)
        method = ("dabi", "forward")[sizes["variant"]]
        return {
            "validate": _command(root, ["validate", str(ep_dir)], capsys),
            "stats": _command(root, ["stats", str(ep_dir)], capsys),
            "augment": _command(
                root, ["augment", str(ep_dir), "--method", method, "--out", str(root / "ds")],
                capsys,
            ),
        }
    episodes = []
    for s in range(sizes["sources"]):
        ep = _episode(sizes, f"src-{s}", sizes["pick"][0] + s)
        write_episode(ep, root / "eps" / ep.episode_id)
        episodes.append(read_episode(root / "eps" / ep.episode_id))
    method = (Method.DABI, Method.FORWARD)[sizes["variant"]]
    write_dataset(augment(episodes, method), root / "ds")
    _damage_dataset(root / "ds", kind, sizes)
    return {
        "validate": _command(root, ["validate", str(root / "ds")], capsys),
        "stats": _command(root, ["stats", str(root / "ds")], capsys),
    }


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_refused_damage_outputs_match_their_golden_digests(tmp_path, capsys):
    digests, outputs = {}, {}
    for name, kind, sizes in _cases():
        results = _run(tmp_path / name, kind, sizes, capsys)
        sound = kind in ("empty-payloads-one-frame", "empty-payloads-many-frames")
        for command, result in results.items():
            # the damage is refused by a reader, so no command gets past it
            assert result[0] == (0 if sound else 1), (name, command, result)
            blob = json.dumps(result).encode()
            digests[f"{name}/{command}"] = hashlib.sha256(blob).hexdigest()
            outputs[f"{name}/{command}"] = result
    if os.environ.get("MULTIRATE_REGEN_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    changed = sorted(n for n in golden.keys() | digests.keys() if golden.get(n) != digests.get(n))
    assert not changed, "\n".join(f"{n}:\n{outputs.get(n, '(no such case)')}" for n in changed)
