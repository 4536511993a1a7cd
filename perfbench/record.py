#!/usr/bin/env python3
"""Record the reference outputs that run.py checks every run against.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record.py                 # every workload
    python3 perfbench/record.py --workload eval_hills

For each workload and each sub-seed this runs one full-size unit
through the htnav CLI and stores every output row (checkpoints as sha256)
in perfbench/reference/<workload>.json.gz.  The evaluation checkpoint is
trained once, only if perfbench/eval_checkpoint.json is missing, so the
eval_hills input stays fixed when references are re-recorded.
"""

import argparse
import gzip
import json
import shutil
import sys
import time

from run import (
    EVAL_CHECKPOINT,
    N_SUBSEEDS,
    REFERENCE_DIR,
    SIZES,
    WORK,
    cli_args,
    launch,
    parse_outputs,
    reference_path,
)

# the policy eval_hills evaluates: one Cauchy seed trained on hilly worlds
CHECKPOINT_ARGS = ["train", "--scenario", "uneven_terrain", "--family", "cauchy",
                   "--seeds", "0", "--episodes", "40"]


def make_checkpoint() -> None:
    out = WORK / "checkpoint"
    done = launch("run", CHECKPOINT_ARGS, out, time.monotonic() + 600)
    if done.rc != 0:
        raise SystemExit(f"training the evaluation checkpoint failed; see {WORK / 'cli.log'}")
    shutil.copyfile(out / "checkpoint_seed0.json", EVAL_CHECKPOINT)
    print(f"wrote {EVAL_CHECKPOINT}")


def record(workload: str) -> None:
    args, outputs = {}, {}
    for subseed in range(N_SUBSEEDS):
        argv = cli_args(workload, subseed, SIZES[workload][0])
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        done = launch("run", argv, out, time.monotonic() + 600)
        if done.rc != 0:
            raise SystemExit(f"{workload} sub-seed {subseed} failed; see {WORK / 'cli.log'}")
        args[str(subseed)] = argv
        outputs[str(subseed)] = parse_outputs(out)
        print(f"{workload} sub-seed {subseed}: {len(outputs[str(subseed)])} records, {done.work_s:.2f} s")
    doc = json.dumps({"workload": workload, "args": args, "outputs": outputs}, sort_keys=True)
    reference_path(workload).write_bytes(gzip.compress(doc.encode(), mtime=0))
    print(f"wrote {reference_path(workload)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*SIZES, "all"], default="all")
    args = parser.parse_args()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        if not EVAL_CHECKPOINT.exists():
            make_checkpoint()
        for workload in SIZES if args.workload == "all" else [args.workload]:
            record(workload)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
