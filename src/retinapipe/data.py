"""Dataset manifest handling: parsing, deterministic splits, label statistics,
and a synthetic-dataset generator that stands in for unavailable clinical data."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DataError
from .imageio import RetinalImage, write_pnm
from .rng import Xoshiro256, derive_seed
from .textgen import tokenize

SPLITS = ("train", "val", "test")
MODALITIES = ("FA", "CFP")


@dataclass
class CaseRecord:
    id: str
    image_path: str
    modality: str
    disease: str
    keywords: list[str]
    description: str
    split: str | None = None


@dataclass
class DatasetManifest:
    records: list[CaseRecord] = field(default_factory=list)
    root: str = "."

    @property
    def class_list(self) -> list[str]:
        return sorted({r.disease for r in self.records})

    def class_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.class_list)}

    def by_split(self, split: str) -> list[CaseRecord]:
        return [r for r in self.records if r.split == split]

    def image_file(self, record: CaseRecord) -> str:
        return os.path.join(self.root, record.image_path)


def _split_keywords(values: list[str]) -> list[str]:
    """Keyword entries may themselves contain commas; split, trim, casefold."""
    out = []
    for value in values:
        for part in value.split(","):
            part = part.strip().casefold()
            if part:
                out.append(part)
    return out


def parse_manifest(path) -> DatasetManifest:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise DataError(f"cannot read manifest {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
        raise DataError(f"manifest {path} is not valid JSON: {e}") from e
    if not isinstance(raw, list):
        raise DataError(f"manifest {path} must be a JSON array of records")
    records = []
    seen_ids = set()
    for i, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise DataError(f"record {i}: must be a JSON object, got {type(obj).__name__}")
        for key in ("id", "image_path", "modality", "disease", "description"):
            if key not in obj or obj[key] in (None, ""):
                raise DataError(f"record {i}: missing required field {key!r}")
            if not isinstance(obj[key], str):
                raise DataError(f"record {i}: field {key!r} must be a string, "
                                f"got {type(obj[key]).__name__}")
        if any(c in obj["id"] for c in "/\\\0"):  # the id names the case's report assets
            raise DataError(f"record {i}: id {obj['id']!r} holds a path separator or NUL; "
                            "an id must be usable as one file name")
        if obj["id"] in seen_ids:
            raise DataError(f"record {i}: duplicate id {obj['id']!r}")
        seen_ids.add(obj["id"])
        if obj["modality"] not in MODALITIES:
            raise DataError(f"record {i}: unknown modality {obj['modality']!r}")
        split = obj.get("split")
        if split is not None and split not in SPLITS:
            raise DataError(f"record {i}: unknown split {split!r}")
        keywords = obj.get("keywords", [])
        if not isinstance(keywords, list):
            raise DataError(f"record {i}: 'keywords' must be a list, got {type(keywords).__name__}")
        for j, kw in enumerate(keywords):
            if not isinstance(kw, str):
                raise DataError(f"record {i}: keyword entry {j} must be a string, "
                                f"got {type(kw).__name__}")
        records.append(CaseRecord(
            id=obj["id"],
            image_path=obj["image_path"],
            modality=obj["modality"],
            disease=obj["disease"],
            keywords=_split_keywords(keywords),
            description=obj["description"],
            split=split,
        ))
    return DatasetManifest(records=records, root=os.path.dirname(os.fspath(path)) or ".")


def save_manifest(manifest: DatasetManifest, path) -> None:
    payload = []
    for r in manifest.records:
        obj = asdict(r)
        if obj["split"] is None:
            del obj["split"]
        payload.append(obj)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def split_dataset(manifest: DatasetManifest, ratios: tuple[float, float, float],
                  seed: int, preserve: bool = False,
                  explicit_counts: tuple[int, int, int] | None = None) -> DatasetManifest:
    """Assign train/val/test splits by seeded shuffle.

    Sizing is floor(N*r_train), floor(N*r_val), remainder to test, unless
    explicit_counts forces exact sizes. With preserve=True, records that
    already carry a split keep it and only the rest are assigned.
    """
    if explicit_counts is None:
        if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must be positive and sum to 1, got {ratios}")
    todo = [r for r in manifest.records if not (preserve and r.split)]
    n = len(todo)
    if explicit_counts is not None:
        n_train, n_val, n_test = explicit_counts
        if n_train + n_val + n_test != n:
            raise ValueError(
                f"explicit counts sum to {n_train + n_val + n_test}, but {n} records need splits"
            )
    else:
        n_train = math.floor(n * ratios[0])
        n_val = math.floor(n * ratios[1])
        n_test = n - n_train - n_val
    order = list(range(n))
    Xoshiro256(seed).shuffle(order)
    for pos, idx in enumerate(order):
        if pos < n_train:
            todo[idx].split = "train"
        elif pos < n_train + n_val:
            todo[idx].split = "val"
        else:
            todo[idx].split = "test"
    return manifest


def word_length_histogram(manifest: DatasetManifest, which: str) -> dict[int, int]:
    """Histogram of per-record token counts for 'keywords' or 'description'."""
    if which not in ("keywords", "description"):
        raise ValueError(f"field must be 'keywords' or 'description', got {which!r}")
    hist: dict[int, int] = {}
    for r in manifest.records:
        if which == "description":
            count = len(tokenize(r.description))
        else:
            count = sum(len(tokenize(kw)) for kw in r.keywords)
        hist[count] = hist.get(count, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# synthetic data

_DISEASE_NAMES = [
    "macular degeneration", "diabetic retinopathy", "glaucoma",
    "retinal detachment", "optic neuritis", "retinitis pigmentosa",
    "central vein occlusion", "macular hole",
]

_FINDING_POOL = [
    ["soft drusen", "pigment changes"],
    ["dot hemorrhages", "hard exudates"],
    ["disc cupping", "nerve fiber loss"],
    ["retinal folds", "subretinal fluid"],
    ["disc swelling", "blurred margins"],
    ["bone spicules", "vessel attenuation"],
    ["venous dilation", "flame hemorrhages"],
    ["foveal defect", "cystic spaces"],
]

_SEVERITIES = ["mild", "moderate", "advanced"]


_ADVICE = {
    "mild": "routine monitoring is advised",
    "moderate": "review again in six months",
    "advanced": "urgent specialist referral is recommended",
}


def _class_caption(disease: str, keywords: list[str], severity: str) -> str:
    findings = " and ".join(keywords)
    return (f"{severity} {disease} with {findings} seen on fundus examination "
            f"{_ADVICE[severity]}")


def _class_image(rng: Xoshiro256, class_id: int, n_classes: int, side: int = 32) -> np.ndarray:
    """Class-coded image: a lesion-like blob (position on a circle, for spatial
    structure in the explanations) over a class-specific brightness level and
    stripe frequency, which carry the actual class signal."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    angle = 2.0 * math.pi * class_id / n_classes
    cy = side / 2.0 + 0.3 * side * math.sin(angle)
    cx = side / 2.0 + 0.3 * side * math.cos(angle)
    jitter_y = rng.uniform(-1.5, 1.5)
    jitter_x = rng.uniform(-1.5, 1.5)
    blob = 110.0 * np.exp(-(((yy - cy - jitter_y) ** 2) + ((xx - cx - jitter_x) ** 2)) / (2.0 * (side / 10.0) ** 2))
    base = 25.0 + 90.0 * class_id / max(n_classes - 1, 1)
    stripes = 60.0 * (0.5 + 0.5 * np.sin(2.0 * math.pi * (class_id + 2) * xx / side))
    noise = rng.uniform(0.0, 25.0, (side, side))
    return np.clip(base + blob + stripes + noise, 0, 255)


def generate_synthetic_dataset(out_dir, n_classes: int, n_records: int, seed: int,
                               image_side: int = 32) -> DatasetManifest:
    """Deterministic stand-in dataset: class-coded images, class-correlated
    keywords, and captions fully determined by (class, keyword variant)."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if n_records < n_classes:
        raise ValueError("need at least one record per class")
    out_dir = os.fspath(out_dir)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    records = []
    for i in range(n_records):
        class_id = i % n_classes  # round-robin keeps classes balanced
        rng = Xoshiro256(derive_seed(seed, i))
        disease = _DISEASE_NAMES[class_id % len(_DISEASE_NAMES)]
        if class_id >= len(_DISEASE_NAMES):
            disease = f"{disease} type {class_id // len(_DISEASE_NAMES) + 1}"
        pool = _FINDING_POOL[class_id % len(_FINDING_POOL)]
        variant = rng.randrange(3)
        if variant == 0:
            keywords = [pool[0]]
        elif variant == 1:
            keywords = [pool[1]]
        else:
            keywords = [pool[0], pool[1]]
        severity = _SEVERITIES[variant]
        gray = _class_image(rng, class_id, n_classes, image_side)
        modality = "FA" if class_id % 2 else "CFP"
        rec_id = f"case{i:04d}"
        if modality == "FA":
            px = np.rint(gray).astype(np.uint8)[:, :, None]
            name = f"{rec_id}.pgm"
        else:
            # channel tints make CFP images mildly colored
            px = np.stack([
                np.rint(np.clip(gray * 1.00, 0, 255)),
                np.rint(np.clip(gray * 0.75, 0, 255)),
                np.rint(np.clip(gray * 0.50, 0, 255)),
            ], axis=2).astype(np.uint8)
            name = f"{rec_id}.ppm"
        write_pnm(os.path.join(img_dir, name), RetinalImage(pixels=px, modality=modality))
        records.append(CaseRecord(
            id=rec_id,
            image_path=os.path.join("images", name),
            modality=modality,
            disease=disease,
            keywords=keywords,
            description=_class_caption(disease, keywords, severity),
        ))
    manifest = DatasetManifest(records=records, root=out_dir)
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
