from pathlib import Path

import pytest

from retinapipe.data import CaseRecord
from retinapipe.report import (
    EMPTY_CELL, build_report, format_probability, render_html, render_text,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def sample_record(**overrides):
    base = dict(
        id="case0002",
        image_path="images/case0002.ppm",
        modality="CFP",
        disease="glaucoma",
        keywords=["disc cupping", "nerve fiber loss"],
        description="advanced glaucoma with disc cupping seen on fundus examination",
        split="test",
    )
    base.update(overrides)
    return CaseRecord(**base)


def sample_report(**overrides):
    rec = sample_record()
    rep = build_report(
        rec,
        predictions=[("glaucoma", 0.8231), ("optic neuritis", 0.1002), ("macular hole", 0.0767)],
        caption_tokens=["advanced", "glaucoma", "with", "disc", "cupping"],
        image_path=rec.image_path,
        cam_path="heatmaps/case0002_cam.png",
    )
    for k, v in overrides.items():
        setattr(rep, k, v)
    return rep


class TestBuildReport:
    def test_fields(self):
        rep = sample_report()
        assert rep.case_id == "case0002"
        assert rep.caption == ["advanced", "glaucoma", "with", "disc", "cupping"]
        assert rep.description == "Advanced glaucoma with disc cupping."
        assert rep.truth_disease == "glaucoma"
        assert rep.truth_description == sample_record().description
        assert rep.predictions[0] == ("glaucoma", 0.8231)

    def test_truth_can_be_withheld(self):
        """A record with no disease gives a report with no ground truth, whose
        cell renders the placeholder."""
        rep = build_report(sample_record(disease=""), [("glaucoma", 1.0)], ["stable"],
                           "i.png", "c.png")
        assert rep.truth_disease is None
        assert rep.truth_description is None
        assert render_html([rep]).count(f"<td>{EMPTY_CELL}</td>") == 1

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            build_report(sample_record(), [], ["a"], "i.png", "c.png")

    def test_unsorted_predictions_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            build_report(sample_record(), [("a", 0.1), ("b", 0.9)], ["a"], "i.png", "c.png")


def test_format_probability():
    assert format_probability(0.54231) == "54.23%"
    assert format_probability(1.0) == "100.00%"
    assert format_probability(0.0) == "0.00%"


class TestRenderHtml:
    def test_matches_golden_file(self):
        got = render_html([sample_report()])
        want = (GOLDEN_DIR / "report_single.html").read_text()
        assert got == want

    def test_ends_with_newline(self):
        assert render_html([]).endswith("\n")

    def test_deterministic(self):
        reps = [sample_report(), sample_report(case_id="case0001")]
        assert render_html(reps) == render_html(reps)

    def test_group_by_disease_sorts_rows(self):
        a = sample_report(case_id="z")
        b = sample_report(case_id="a")
        b.predictions = [("amd", 0.9), ("glaucoma", 0.1)]
        out = render_html([a, b], group_by="disease")
        assert out.index("amd (90.00%)") < out.index("glaucoma (82.31%)")

    def test_group_by_validated(self):
        with pytest.raises(ValueError):
            render_html([], group_by="severity")

    def test_escapes_markup_in_content(self):
        rep = sample_report(caption=["<script>alert(1)</script>"])
        out = render_html([rep])
        assert "<script>" not in out
        assert "&lt;script&gt;" in out

    def test_empty_keywords_render_placeholder(self):
        rep = sample_report(keywords=[])
        assert f"<td>{EMPTY_CELL}</td>" in render_html([rep])

    def test_missing_truth_renders_placeholder(self):
        rep = sample_report(truth_disease=None, truth_description=None)
        assert render_html([rep]).count(EMPTY_CELL) == 1


class TestRenderText:
    def test_matches_golden_file(self):
        got = render_text(sample_report())
        want = (GOLDEN_DIR / "report_single.txt").read_text()
        assert got == want.rstrip("\n")

    def test_all_sections_present(self):
        out = render_text(sample_report())
        for prefix in ("Case:", "Prediction:", "Keywords:", "Description:"):
            assert any(line.startswith(prefix) for line in out.splitlines())

    def test_empty_keywords(self):
        out = render_text(sample_report(keywords=[]))
        assert f"Keywords: {EMPTY_CELL}" in out
