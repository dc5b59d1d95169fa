"""Byte identity of every CLI output on a fixed small matrix.

The matrix runs on seed 1 over 60 synthetic records with 1 epoch per
training: data generation and splitting, both trainers (the classifier from
scratch and warm-started from the benchmark fixture; the captioner with
keywords and without), evaluation of the trained and the fixture models
(plain, with --no-keywords and with --beam 1), report on a gray and a color
image, and explain. Every file the matrix writes is hashed, and so are each
call's exit code, stdout and stderr, with the temporary root replaced by a
placeholder. tests/golden/identity_seed1.json holds the expected hashes.

The hashes depend on the float rounding of numpy's BLAS and on zlib's
compressed bytes, so the golden file records those libraries' versions and
the test skips on a machine whose versions differ.

To rewrite the golden file, for a change that means to alter an output:
    PYTHONPATH=src python tests/test_identity.py

To print the matrix's hashes for another seed as JSON, leaving the golden
file alone (run it on two trees and diff the outputs to compare them):
    PYTHONPATH=src python tests/test_identity.py --seed 3

To compare the hashes of one or more seeds with those of the package at a
git revision (`git archive REV src` unpacked into a temporary folder and run
there in a subprocess, once per seed), printing each entry that differs and
one summary line per seed, and exiting 1 if any entry of any seed differs:
    PYTHONPATH=src python tests/test_identity.py --against HEAD~1 --seed 1 2 3 4 5

To rebuild the benchmark fixture with perfbench/make_fixture.py's recipe in a
temporary folder, printing each file's sha256 next to the one recorded in
perfbench/fixture/fixture.json and exiting 1 if any differs:
    PYTHONPATH=src python tests/test_identity.py --fixture
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import zlib

import numpy as np
import pytest

import retinapipe
from retinapipe.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "identity_seed1.json"
FIXTURE = pathlib.Path(__file__).parent.parent / "perfbench" / "fixture"
ROOT_TAG, FIXTURE_TAG = "<root>", "<fixture>"


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "zlib": zlib.ZLIB_RUNTIME_VERSION}


def _models(encoder_dir: str, decoder_dir: str) -> list[str]:
    return ["--encoder", f"{encoder_dir}/encoder.ckpt", "--decoder", f"{decoder_dir}/decoder.ckpt",
            "--vocab", f"{decoder_dir}/vocab.txt", "--kw-vocab", f"{decoder_dir}/kw_vocab.txt"]


def calls(root: str, fixture: str, seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) of every call of the matrix on seed, in the order they run."""
    data, manifest = f"{root}/data", f"{root}/data/manifest.json"
    train = ["--epochs", "1", "--batch", "4", "--seed", str(seed)]
    trained, off = f"{root}/rdi/checkpoints", f"{root}/cdg_off/checkpoints"
    matrix = [
        ("synth-data", ["synth-data", "--out", data, "--classes", "4", "--records", "60",
                        "--seed", str(seed)]),
        ("split", ["split", "--manifest", manifest, "--seed", str(seed)]),
        ("train-rdi", ["train-rdi", "--manifest", manifest, "--out", f"{root}/rdi", *train]),
        ("train-rdi-init", ["train-rdi", "--manifest", manifest, "--out", f"{root}/rdi_init",
                            "--init", f"{fixture}/encoder.ckpt", *train]),
        ("train-cdg", ["train-cdg", "--manifest", manifest, "--encoder",
                       f"{trained}/encoder.ckpt", "--out", f"{root}/rdi", "--lr", "1.0",
                       *train]),
        ("train-cdg-off", ["train-cdg", "--manifest", manifest, "--encoder",
                           f"{trained}/encoder.ckpt", "--out", f"{root}/cdg_off",
                           "--no-keywords", "--min-frequency", "2", "--lr", "1.0", *train]),
    ]
    models = {"trained": _models(trained, trained), "fixture": _models(fixture, fixture)}
    for model, files in models.items():
        for variant, extra in (("plain", []), ("no-keywords", ["--no-keywords"]),
                               ("beam1", ["--beam", "1"])):
            matrix.append((f"evaluate-{model}-{variant}",
                           ["evaluate", "--manifest", manifest, *files, *extra, "--topk", "1,3",
                            "--out", f"{root}/eval_{model}_{variant}"]))
    matrix.append(("evaluate-no-keywords-decoder",
                   ["evaluate", "--manifest", manifest, *_models(trained, off), "--topk", "1,3",
                    "--out", f"{root}/eval_off"]))
    for name, image, keywords in (("pgm", "case0001.pgm", "dot hemorrhages,hard exudates"),
                                  ("ppm", "case0000.ppm", "soft drusen,not a keyword")):
        matrix.append((f"report-{name}",
                       ["report", "--image", f"{data}/images/{image}", *models["fixture"],
                        "--keywords", keywords, "--manifest", manifest,
                        "--out", f"{root}/report_{name}"]))
    matrix.append(("explain", ["explain", "--image", f"{data}/images/case0002.ppm",
                               "--encoder", f"{trained}/encoder.ckpt",
                               "--raw-txt", f"{root}/explain.txt",
                               "--out", f"{root}/explain.png"]))
    return matrix


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(root: pathlib.Path, seed: int) -> dict[str, object]:
    """Entry name -> exit code or sha256, over every call and every file written."""
    entries: dict[str, object] = {}

    def masked(text: str) -> bytes:
        return text.replace(str(root), ROOT_TAG).replace(str(FIXTURE), FIXTURE_TAG).encode()

    for name, argv in calls(str(root), str(FIXTURE), seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            entries[f"{name}.exit"] = main(argv)
        entries[f"{name}.stdout"] = _sha(masked(out.getvalue()))
        entries[f"{name}.stderr"] = _sha(masked(err.getvalue()))
    for path in sorted(root.rglob("*")):
        if path.is_file():
            entries[f"file:{path.relative_to(root).as_posix()}"] = _sha(path.read_bytes())
    return entries


def test_every_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    if here != golden["environment"]:
        pytest.skip(f"hashes recorded under {golden['environment']}, this machine has {here}")
    got, want = run_matrix(tmp_path, 1), golden["entries"]
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differ, f"{len(differ)} entries differ from {GOLDEN.name}: {differ}"


def test_matrix_covers_every_command_kind(tmp_path):
    """The golden file holds an exit code 0 for each call of the matrix, and the
    files of every bundle kind."""
    want = json.loads(GOLDEN.read_text())["entries"]
    for name, _argv in calls(str(tmp_path), str(FIXTURE), 1):
        assert want[f"{name}.exit"] == 0, name
    files = [name for name in want if name.startswith("file:")]
    for part in ("data/images/", "rdi/checkpoints/decoder.ckpt", "cdg_off/curves/cdg.csv",
                 "eval_fixture_beam1/metrics.json", "report_ppm/report.html", "explain.txt"):
        assert any(part in name for name in files), part


REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_LINE = "hashed with the package at "  # the last stderr line of a --seed run


def entries_at(rev: str, seed: int) -> dict[str, object]:
    """Seed's matrix entries with the package's source as it is at git revision
    rev: `git archive rev src` is unpacked into a temporary folder and the
    matrix runs in a subprocess whose PYTHONPATH is that folder's src."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO, capture_output=True)
        if archive.returncode:
            sys.exit(f"git archive {rev} src failed: {archive.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        src = pathlib.Path(tmp, "src").resolve()
        run = subprocess.run([sys.executable, __file__, "--seed", str(seed)], text=True,
                             capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
        if run.returncode:
            sys.exit(f"the matrix at {rev} exited {run.returncode}:\n{run.stderr}")
        package = pathlib.Path(run.stderr.splitlines()[-1].removeprefix(PACKAGE_LINE))
        if not package.is_relative_to(src):
            sys.exit(f"the matrix at {rev} imported retinapipe from {package}, not {src}")
        return json.loads(run.stdout)


def compare_with(rev: str, seed: int) -> int:
    """Run seed's matrix here, in a temporary folder, and at git revision rev;
    print each entry that differs and a summary line; the number that differ."""
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_matrix(pathlib.Path(tmp), seed)
    theirs = entries_at(rev, seed)
    differ = sorted(name for name in entries.keys() | theirs.keys()
                    if entries.get(name) != theirs.get(name))
    for name in differ:
        print(f"{name}: {theirs.get(name)} at {rev}, {entries.get(name)} here")
    print(f"seed {seed}: {len(differ)} of {len(entries)} entries differ from {rev}",
          file=sys.stderr)
    return len(differ)


def fixture_recipe() -> tuple[dict, tuple[str, ...]]:
    """perfbench/make_fixture.py's CONFIG and FILES, read with ast so nothing
    under perfbench/ is imported."""
    tree = ast.parse((REPO / "perfbench" / "make_fixture.py").read_text(encoding="utf-8"))
    found = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in ("CONFIG", "FILES")}
    return found["CONFIG"], found["FILES"]


def fixture_calls(root: str, config: dict) -> list[list[str]]:
    """The argv of each of make_fixture.py's four CLI calls, writing under root;
    the model files land in root/run/checkpoints."""
    sd, sp, rdi, cdg = (config[k] for k in ("synth_data", "split", "train_rdi", "train_cdg"))
    data, run = f"{root}/data", f"{root}/run"
    manifest = f"{data}/manifest.json"

    def train(c):
        return ["--epochs", str(c["epochs"]), "--batch", str(c["batch"]), "--lr", str(c["lr"]),
                "--seed", str(c["seed"])]

    return [
        ["synth-data", "--out", data, "--classes", str(sd["classes"]), "--records",
         str(sd["records"]), "--side", str(sd["side"]), "--seed", str(sd["seed"])],
        ["split", "--manifest", manifest, "--ratios", sp["ratios"], "--seed", str(sp["seed"])],
        ["train-rdi", "--manifest", manifest, "--out", run, *train(rdi)],
        ["train-cdg", "--manifest", manifest, "--out", run,
         "--encoder", f"{run}/checkpoints/encoder.ckpt", *train(cdg)],
    ]


def check_fixture() -> int:
    """Rebuild the fixture in a temporary folder and compare its hashes with
    fixture.json's; 1 if any differs."""
    config, files = fixture_recipe()
    recorded = json.loads((FIXTURE / "fixture.json").read_text())["sha256"]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in fixture_calls(tmp, config):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            if rc:
                sys.exit(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        for name in files:
            got = _sha(pathlib.Path(tmp, "run", "checkpoints", name).read_bytes())
            differ += got != recorded[name]
            print(f"{name}: {got} rebuilt, {recorded[name]} in fixture.json"
                  + ("" if got == recorded[name] else " (differs)"))
    return 1 if differ else 0


def test_fixture_recipe_is_the_recorded_one():
    """The recipe --fixture reruns is the one fixture.json says made the files."""
    config, files = fixture_recipe()
    recorded = json.loads((FIXTURE / "fixture.json").read_text())
    assert config == recorded["config"] and sorted(files) == sorted(recorded["sha256"])


def main_cli() -> int:
    parser = argparse.ArgumentParser(description="Rewrite the seed-1 golden file, or with "
                                                 "--seed print one seed's hashes as JSON.")
    parser.add_argument("--seed", type=int, nargs="+",
                        help="print this seed's hashes to stdout instead; several seeds "
                             "need --against")
    parser.add_argument("--against", metavar="REV",
                        help="compare each --seed's hashes with the package at git revision REV")
    parser.add_argument("--fixture", action="store_true",
                        help="rebuild the benchmark fixture and compare it with fixture.json")
    args = parser.parse_args()
    if args.against is not None and args.seed is None:
        parser.error("--against needs --seed")
    if args.fixture:
        if args.seed is not None:
            parser.error("--fixture takes no --seed or --against")
        return check_fixture()
    if args.against is not None:
        differ = [compare_with(args.against, seed) for seed in args.seed]
        return 1 if any(differ) else 0
    if args.seed is not None and len(args.seed) > 1:
        parser.error("several seeds need --against")
    seed = 1 if args.seed is None else args.seed[0]
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_matrix(pathlib.Path(tmp), seed)
    if args.seed is None:
        GOLDEN.write_text(json.dumps({"environment": environment(), "entries": entries},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)
    else:
        print(json.dumps(entries, indent=1, sort_keys=True))
        print(PACKAGE_LINE + str(pathlib.Path(retinapipe.__file__).resolve().parent),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
