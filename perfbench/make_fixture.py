#!/usr/bin/env python3
"""Train the fixed fixture model that the `evaluate` and `report_png`
workloads use, with the package's own CLI, and record its sha256 hashes.

    python3 perfbench/make_fixture.py

Run it only to replace the fixture on purpose: every later benchmark run
checks the files against perfbench/fixture/fixture.json, so that a change to
training cannot change how much inference work the benchmark does.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

from common import FIXTURE_DIR, SRC, BenchError, import_package, run_cli, sha256_file

CONFIG = {
    "synth_data": {"classes": 4, "records": 200, "side": 32, "seed": 0},
    "split": {"ratios": "0.6,0.2,0.2", "seed": 0},
    "train_rdi": {"epochs": 20, "batch": 8, "lr": 0.1, "seed": 0},
    "train_cdg": {"epochs": 80, "batch": 8, "lr": 1.0, "seed": 0, "decoder_hidden": 48},
}
FILES = ("encoder.ckpt", "decoder.ckpt", "vocab.txt", "kw_vocab.txt")


def _call(main, argv):
    rc, secs, out, err = run_cli(main, argv)
    print(f"{argv[0]}: exit {rc} in {secs:.1f} s {err.strip()}", file=sys.stderr)
    if rc != 0:
        raise BenchError(f"{argv[0]} failed: {err}")


def main() -> int:
    main_fn = import_package().cli.main
    c = CONFIG
    with tempfile.TemporaryDirectory(dir=os.path.dirname(FIXTURE_DIR)) as tmp:
        data, run = os.path.join(tmp, "data"), os.path.join(tmp, "run")
        manifest = os.path.join(data, "manifest.json")
        sd, sp, rdi, cdg = c["synth_data"], c["split"], c["train_rdi"], c["train_cdg"]
        _call(main_fn, ["synth-data", "--out", data, "--classes", str(sd["classes"]),
                        "--records", str(sd["records"]), "--side", str(sd["side"]),
                        "--seed", str(sd["seed"])])
        _call(main_fn, ["split", "--manifest", manifest, "--ratios", sp["ratios"],
                        "--seed", str(sp["seed"])])
        _call(main_fn, ["train-rdi", "--manifest", manifest, "--out", run,
                        "--epochs", str(rdi["epochs"]), "--batch", str(rdi["batch"]),
                        "--lr", str(rdi["lr"]), "--seed", str(rdi["seed"])])
        ckpts = os.path.join(run, "checkpoints")
        _call(main_fn, ["train-cdg", "--manifest", manifest, "--out", run,
                        "--encoder", os.path.join(ckpts, "encoder.ckpt"),
                        "--epochs", str(cdg["epochs"]), "--batch", str(cdg["batch"]),
                        "--lr", str(cdg["lr"]), "--seed", str(cdg["seed"])])
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        for name in FILES:
            shutil.copyfile(os.path.join(ckpts, name), os.path.join(FIXTURE_DIR, name))
        curves = {}
        for name in ("rdi", "cdg"):
            with open(os.path.join(run, "curves", f"{name}.csv")) as f:
                curves[name] = max(float(line.split(",")[3]) for line in f.read().splitlines()[1:])
    pkg_dir = os.path.join(SRC, "retinapipe")
    source = hashlib.sha256()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as f:
                source.update(name.encode() + b"\0" + f.read())
    record = {
        "made_with": "perfbench/make_fixture.py through retinapipe.cli.main",
        "package_source_sha256": source.hexdigest(),
        "config": c,
        "best_val": {"rdi_prec1": curves["rdi"], "cdg_bleu_avg": curves["cdg"]},
        "sha256": {name: sha256_file(os.path.join(FIXTURE_DIR, name)) for name in FILES},
    }
    with open(os.path.join(FIXTURE_DIR, "fixture.json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(record["best_val"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"make_fixture: {e}", file=sys.stderr)
        sys.exit(2)
