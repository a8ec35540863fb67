"""End-to-end demo: simulate demonstrations, augment three ways, compare.

Writes everything under --out and prints a small expansion/coverage table.
"""

import argparse
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from multirate.augment import augment, evenness_report
from multirate.io import write_dataset, write_episode
from multirate.model import Method
from multirate.sim import default_sim_config, run_simulation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="pipeline_out", help="output directory")
    parser.add_argument("--count", type=int, default=5, help="episodes per trajectory")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--trajectory", default="pick_sweep", help="operator schedule")
    parser.add_argument("--duration", type=float, default=1.0, help="seconds per episode")
    args = parser.parse_args()

    out = Path(args.out)
    if out.exists():
        shutil.rmtree(out)
    base = replace(default_sim_config(), duration_s=args.duration)

    episodes = []
    for i in range(args.count):
        cfg = replace(base, seed=args.base_seed + i)
        result = run_simulation(cfg, args.trajectory)
        episodes.append(result.episode)
        write_episode(result.episode, out / "episodes" / result.episode.episode_id)
        print(
            f"simulated {result.episode.episode_id}: "
            f"samples={result.episode.sample_count} "
            f"frames={result.episode.frame_count} "
            f"max_gap={result.max_position_gap:.2e} rad"
        )

    print()
    print(f"{'method':<12}{'sub-episodes':>14}{'steps':>8}{'clamped':>9}{'unused':>8}")
    for method in Method:
        ds = augment(episodes, method)
        write_dataset(ds, out / f"dataset_{method.value}")
        clamped = unused = 0
        for ep in episodes:
            rep = evenness_report(ds, ep)
            clamped += rep.clamped_steps
            unused += rep.unreferenced
        steps = sum(s.step_count for s in ds.episodes)
        print(f"{method.value:<12}{ds.episode_count:>14}{steps:>8}{clamped:>9}{unused:>8}")

    sample = augment(episodes, Method.DABI)
    rep = evenness_report(sample, episodes[0])
    hist = np.bincount(rep.counts)
    print()
    print(f"dabi coverage of {episodes[0].episode_id}: "
          + ", ".join(f"{n} idx used {c}x" for c, n in enumerate(hist) if n))
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
