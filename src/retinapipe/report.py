"""Table-based medical report assembly and rendering (HTML + plain text).

Rendering is a pure function of its inputs: no timestamps, no absolute
paths, so re-rendering the same reports is byte-identical.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

from .data import CaseRecord
from .textgen import detokenize

EMPTY_CELL = "—"  # em dash placeholder for absent keywords/ground truth


@dataclass
class MedicalReport:
    case_id: str
    image_path: str
    cam_path: str
    predictions: list[tuple[str, float]]  # (disease, probability), sorted desc
    keywords: list[str]
    caption: list[str]  # the generated tokens
    truth_disease: str | None
    truth_description: str | None

    @property
    def description(self) -> str:
        return detokenize(self.caption)


def build_report(record: CaseRecord, predictions: list[tuple[str, float]],
                 caption_tokens: list[str], image_path: str, cam_path: str) -> MedicalReport:
    """The report of record's case; it holds the record's disease and description
    as ground truth if its disease is non-empty, and no ground truth otherwise."""
    if not predictions:
        raise ValueError("prediction list must be non-empty")
    probs = [p for _, p in predictions]
    if any(a < b for a, b in zip(probs, probs[1:])):
        raise ValueError("predictions must be sorted by probability descending")
    truth = (record.disease, record.description) if record.disease else (None, None)
    return MedicalReport(record.id, image_path, cam_path, list(predictions),
                         list(record.keywords), caption_tokens, *truth)


def format_probability(p: float) -> str:
    return f"{100.0 * p:.2f}%"


def _keyword_cell(keywords: list[str]) -> str:
    return ", ".join(keywords) if keywords else EMPTY_CELL


_COLUMNS = ("Image", "CAM", "Predicted disease", "Keywords", "Description", "Ground truth")


def render_html(reports: list[MedicalReport], group_by: str = "none") -> str:
    """One table row per case; group_by='disease' sorts by (top-1 disease, id)."""
    if group_by not in ("none", "disease"):
        raise ValueError(f"group_by must be 'none' or 'disease', got {group_by!r}")
    rows = list(reports)
    if group_by == "disease":
        rows.sort(key=lambda r: (r.predictions[0][0], r.case_id))
    esc = html.escape
    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\"><title>Medical reports</title>",
        "<style>",
        "table { border-collapse: collapse; }",
        "td, th { border: 1px solid #444; padding: 6px; vertical-align: top; }",
        "img { max-width: 160px; image-rendering: pixelated; }",
        "</style></head><body>",
        "<table>",
        "<tr>" + "".join(f"<th>{c}</th>" for c in _COLUMNS) + "</tr>",
    ]
    for r in rows:
        preds = "<br>".join(
            f"{esc(name)} ({format_probability(p)})" for name, p in r.predictions
        )
        if r.truth_disease is None:
            truth = EMPTY_CELL
        else:
            truth = esc(r.truth_disease)
            if r.truth_description:
                truth += "<br>" + esc(r.truth_description)
        lines.append(
            "<tr>"
            f"<td><img src=\"{esc(r.image_path)}\" alt=\"{esc(r.case_id)}\"></td>"
            f"<td><img src=\"{esc(r.cam_path)}\" alt=\"{esc(r.case_id)} CAM\"></td>"
            f"<td>{preds}</td>"
            f"<td>{esc(_keyword_cell(r.keywords))}</td>"
            f"<td>{esc(r.description)}</td>"
            f"<td>{truth}</td>"
            "</tr>"
        )
    lines += ["</table>", "</body></html>", ""]
    return "\n".join(lines)


def render_text(report: MedicalReport) -> str:
    """Terminal-friendly block: Case / Prediction / Keywords / Description."""
    preds = ", ".join(
        f"{name} ({format_probability(p)})" for name, p in report.predictions
    )
    return "\n".join([
        f"Case: {report.case_id}",
        f"Prediction: {preds}",
        f"Keywords: {_keyword_cell(report.keywords)}",
        f"Description: {report.description}",
    ])
