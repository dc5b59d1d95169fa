import json
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from retinapipe.data import (
    MODALITIES, SPLITS, CaseRecord, DatasetManifest, generate_synthetic_dataset, parse_manifest,
    save_manifest, split_dataset, word_length_histogram,
)
from retinapipe.errors import DataError
from retinapipe.imageio import load_image
from retinapipe.textgen import tokenize


def write_manifest(tmp_path, records):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(records))
    return path


GOOD_RECORD = {
    "id": "case0001",
    "image_path": "images/case0001.ppm",
    "modality": "CFP",
    "disease": "glaucoma",
    "keywords": ["Disc Cupping, nerve fiber loss"],
    "description": "Advanced glaucoma with disc cupping.",
}


class TestParseManifest:
    def test_parses_fields_and_normalizes_keywords(self, tmp_path):
        m = parse_manifest(write_manifest(tmp_path, [GOOD_RECORD]))
        r = m.records[0]
        assert r.id == "case0001"
        assert r.disease == "glaucoma"
        # comma-embedded keywords split, trimmed, casefolded
        assert r.keywords == ["disc cupping", "nerve fiber loss"]
        assert r.split is None
        assert m.root == str(tmp_path)

    def test_missing_field_names_record_index(self, tmp_path):
        bad = {k: v for k, v in GOOD_RECORD.items() if k != "disease"}
        with pytest.raises(DataError, match="record 0.*disease"):
            parse_manifest(write_manifest(tmp_path, [bad]))

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(DataError, match="record 1.*duplicate"):
            parse_manifest(write_manifest(tmp_path, [GOOD_RECORD, dict(GOOD_RECORD)]))

    @pytest.mark.parametrize("bad_id", ["x/b", "x\\b", "a\0b", "/", "case/"])
    def test_id_that_is_not_one_file_name_rejected(self, tmp_path, bad_id):
        bad = dict(GOOD_RECORD, id=bad_id)
        with pytest.raises(DataError, match=r"record 1: id .* path separator or NUL"):
            parse_manifest(write_manifest(tmp_path, [GOOD_RECORD, bad]))

    @pytest.mark.parametrize("good_id", ["case.0001", "..", "a b", "x:y", "é"])
    def test_other_ids_accepted(self, tmp_path, good_id):
        assert parse_manifest(write_manifest(tmp_path, [dict(GOOD_RECORD, id=good_id)])) \
            .records[0].id == good_id

    def test_unknown_modality_rejected(self, tmp_path):
        bad = dict(GOOD_RECORD, modality="OCT")
        with pytest.raises(DataError, match="modality"):
            parse_manifest(write_manifest(tmp_path, [bad]))

    @pytest.mark.parametrize("bad", [42, ["id", "image_path"]])
    def test_non_object_record_rejected(self, tmp_path, bad):
        with pytest.raises(DataError, match="record 1.*JSON object"):
            parse_manifest(write_manifest(tmp_path, [GOOD_RECORD, bad]))

    def test_string_keywords_rejected(self, tmp_path):
        bad = dict(GOOD_RECORD, keywords="soft drusen, pigment")
        with pytest.raises(DataError, match="record 0.*'keywords' must be a list"):
            parse_manifest(write_manifest(tmp_path, [bad]))

    def test_unknown_split_rejected(self, tmp_path):
        bad = dict(GOOD_RECORD, split="holdout")
        with pytest.raises(DataError, match="split"):
            parse_manifest(write_manifest(tmp_path, [bad]))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            parse_manifest(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"a": 1}')
        with pytest.raises(DataError, match="array"):
            parse_manifest(path)

    def test_save_round_trip(self, tmp_path):
        m = parse_manifest(write_manifest(tmp_path, [GOOD_RECORD]))
        out = tmp_path / "saved.json"
        save_manifest(m, out)
        back = parse_manifest(out)
        assert back.records == m.records

    @pytest.mark.parametrize("key", ["id", "image_path", "disease", "description"])
    @pytest.mark.parametrize("value", [5, 1.5, True, ["x"], {"x": 1}])
    def test_non_string_field_rejected(self, tmp_path, key, value):
        bad = {**GOOD_RECORD, "id": "case0002", key: value}
        with pytest.raises(DataError, match=f"record 1: field '{key}' must be a string"):
            parse_manifest(write_manifest(tmp_path, [GOOD_RECORD, bad]))

    def test_non_string_keyword_entry_rejected(self, tmp_path):
        bad = dict(GOOD_RECORD, keywords=["soft drusen", {"x": 1}, 5])
        with pytest.raises(DataError, match="record 0: keyword entry 1 must be a string"):
            parse_manifest(write_manifest(tmp_path, [bad]))

    def test_non_utf8_and_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        for blob in (b'[{"id": "\xff"}]', b"[" * 100000):
            path.write_bytes(blob)
            with pytest.raises(DataError, match=str(path)):
                parse_manifest(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
VALID_FIELDS = {
    "id": st.text(min_size=1, max_size=6), "image_path": st.text(min_size=1, max_size=6),
    "modality": st.sampled_from(MODALITIES), "disease": st.text(min_size=1, max_size=6),
    "keywords": st.lists(st.text(max_size=6), max_size=3),
    "description": st.text(min_size=1, max_size=12), "split": st.sampled_from(SPLITS),
}


def manifest_records():
    """Lists of valid records, each with at most one field set to any JSON value."""
    def corrupt(args):
        record, field, value = args
        return record if field is None else {**record, field: value}

    return st.lists(st.tuples(st.fixed_dictionaries(VALID_FIELDS),
                              st.sampled_from((None, *VALID_FIELDS)), JSON_VALUES).map(corrupt),
                    max_size=4)


class TestParseManifestProperty:
    """Any bytes either load as a manifest of string fields or raise DataError, and
    a loaded manifest survives save and load unchanged."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        manifest_records().map(lambda recs: json.dumps(recs).encode()),
    ))
    def test_loads_or_raises_data_error(self, blob, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(blob)
        try:
            m = parse_manifest(path)
        except DataError:
            return
        for r in m.records:
            assert all(isinstance(v, str) and v for v in (r.id, r.image_path, r.disease,
                                                         r.description))
            assert r.modality in MODALITIES and r.split in SPLITS + (None,)
            assert all(isinstance(kw, str) and kw for kw in r.keywords)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.fixed_dictionaries(
        {k: v for k, v in VALID_FIELDS.items() if k not in ("id", "split")},
        optional={"split": VALID_FIELDS["split"]}), max_size=4))
    def test_round_trip(self, records, tmp_path):
        for i, r in enumerate(records):
            r["id"] = f"c{i}"
        first = parse_manifest(write_manifest(tmp_path, records))
        save_manifest(first, tmp_path / "saved.json")
        assert parse_manifest(tmp_path / "saved.json").records == first.records


def fake_manifest(n):
    return DatasetManifest(records=[
        CaseRecord(id=f"c{i}", image_path=f"{i}.pgm", modality="FA",
                   disease="x", keywords=[], description="d")
        for i in range(n)
    ])


class TestSplitDataset:
    def test_floor_rule_sizes(self):
        m = split_dataset(fake_manifest(15709), (0.6, 0.2, 0.2), seed=1)
        sizes = Counter(r.split for r in m.records)
        assert sizes["train"] == math.floor(15709 * 0.6) == 9425
        assert sizes["val"] == math.floor(15709 * 0.2) == 3141
        assert sizes["test"] == 15709 - 9425 - 3141 == 3143

    def test_explicit_counts(self):
        m = split_dataset(fake_manifest(15709), (0.6, 0.2, 0.2), seed=1,
                          explicit_counts=(9425, 3142, 3142))
        sizes = Counter(r.split for r in m.records)
        assert (sizes["train"], sizes["val"], sizes["test"]) == (9425, 3142, 3142)

    def test_small_example(self):
        m = split_dataset(fake_manifest(10), (0.6, 0.2, 0.2), seed=2)
        sizes = Counter(r.split for r in m.records)
        assert (sizes["train"], sizes["val"], sizes["test"]) == (6, 2, 2)

    def test_every_record_assigned_exactly_once(self):
        m = split_dataset(fake_manifest(101), (0.7, 0.15, 0.15), seed=3)
        assert all(r.split in ("train", "val", "test") for r in m.records)

    def test_same_seed_same_assignment(self):
        a = split_dataset(fake_manifest(50), (0.6, 0.2, 0.2), seed=9)
        b = split_dataset(fake_manifest(50), (0.6, 0.2, 0.2), seed=9)
        assert [r.split for r in a.records] == [r.split for r in b.records]

    def test_different_seed_differs(self):
        a = split_dataset(fake_manifest(50), (0.6, 0.2, 0.2), seed=1)
        b = split_dataset(fake_manifest(50), (0.6, 0.2, 0.2), seed=2)
        assert [r.split for r in a.records] != [r.split for r in b.records]

    def test_preserve_keeps_existing_assignments(self):
        m = fake_manifest(20)
        for r in m.records[:5]:
            r.split = "test"
        split_dataset(m, (0.6, 0.2, 0.2), seed=4, preserve=True)
        assert all(r.split == "test" for r in m.records[:5])
        # only the remaining 15 are divided by the floor rule
        rest = Counter(r.split for r in m.records[5:])
        assert (rest["train"], rest["val"], rest["test"]) == (9, 3, 3)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(fake_manifest(10), (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_dataset(fake_manifest(10), (1.0, -0.1, 0.1), seed=0)
        for ratios in [(math.nan, 0.2, 0.2), (0.6, math.nan, 0.2), (0.6, 0.2, math.nan)]:
            with pytest.raises(ValueError, match="ratios must be positive and sum to 1"):
                split_dataset(fake_manifest(10), ratios, seed=0)

    def test_wrong_explicit_counts_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(fake_manifest(10), (0.6, 0.2, 0.2), seed=0,
                          explicit_counts=(5, 5, 5))


class TestHistogram:
    def test_matches_direct_recount(self):
        m = DatasetManifest(records=[
            CaseRecord(id="a", image_path="a.pgm", modality="FA", disease="x",
                       keywords=["one two", "three"], description="Alpha beta gamma."),
            CaseRecord(id="b", image_path="b.pgm", modality="FA", disease="x",
                       keywords=[], description="Delta."),
        ])
        hist = word_length_histogram(m, "description")
        want = Counter(len(tokenize(r.description)) for r in m.records)
        assert hist == dict(want)
        assert word_length_histogram(m, "keywords") == {3: 1, 0: 1}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            word_length_histogram(DatasetManifest(), "diagnosis")


class TestSyntheticDataset:
    def test_balanced_and_loadable(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, n_classes=4, n_records=20, seed=7)
        assert len(m.records) == 20
        per_class = Counter(r.disease for r in m.records)
        assert len(per_class) == 4
        assert all(c >= 20 // (2 * 4) for c in per_class.values())
        img = load_image(m.image_file(m.records[0]))
        assert img.shape[:2] == (32, 32)

    def test_manifest_file_parses_back(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, n_classes=3, n_records=9, seed=1)
        back = parse_manifest(tmp_path / "manifest.json")
        assert back.records == m.records

    def test_deterministic_across_runs(self, tmp_path):
        a = generate_synthetic_dataset(tmp_path / "a", n_classes=3, n_records=12, seed=5)
        b = generate_synthetic_dataset(tmp_path / "b", n_classes=3, n_records=12, seed=5)
        assert [r.description for r in a.records] == [r.description for r in b.records]
        ia = load_image(a.image_file(a.records[0]))
        ib = load_image(b.image_file(b.records[0]))
        assert (ia == ib).all()

    def test_seed_changes_content(self, tmp_path):
        a = generate_synthetic_dataset(tmp_path / "a", n_classes=3, n_records=12, seed=5)
        b = generate_synthetic_dataset(tmp_path / "b", n_classes=3, n_records=12, seed=6)
        ia = load_image(a.image_file(a.records[0]))
        ib = load_image(b.image_file(b.records[0]))
        assert not (ia == ib).all()

    def test_captions_distinguish_classes(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, n_classes=5, n_records=25, seed=2)
        by_class = {}
        for r in m.records:
            by_class.setdefault(r.disease, set()).add(r.description)
        all_sets = list(by_class.values())
        for i in range(len(all_sets)):
            for j in range(i + 1, len(all_sets)):
                assert not (all_sets[i] & all_sets[j])

    def test_keywords_appear_in_caption(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, n_classes=3, n_records=15, seed=3)
        for r in m.records:
            for kw in r.keywords:
                assert kw in r.description

    def test_modality_matches_file_format(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, n_classes=4, n_records=8, seed=4)
        for r in m.records:
            img = load_image(m.image_file(r))
            assert img.shape[2] == {"FA": 1, "CFP": 3}[r.modality]

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(tmp_path, n_classes=1, n_records=5, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_dataset(tmp_path, n_classes=4, n_records=2, seed=0)
