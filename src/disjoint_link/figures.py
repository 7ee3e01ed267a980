"""2-D principal-component projections exported as CSV and SVG scatter plots.

A projection is a `Dataset` with the features `pc1` and `pc2`, so it is
written as any table is (`dataset_columns`).
"""

from __future__ import annotations

from pathlib import Path

from .data import Dataset, DataError, FeatureSchema, dataset_columns, write_csv
from .reducers import fit_pca, project_pca

NEGATIVE_COLOR = "#4477aa"
POSITIVE_COLOR = "#ee6677"
PC_AXES = (FeatureSchema("pc1", "numeric"), FeatureSchema("pc2", "numeric"))


def export_projection_2d(d: Dataset) -> Dataset:
    """`d`'s rows on its top two principal axes, with `d`'s labels and id."""
    if d.k < 2:
        raise DataError("2-D projection needs at least 2 features")
    return Dataset(PC_AXES, project_pca(fit_pca(d.X, 2), d.X), d.y, d.id)


def projection_to_csv(p: Dataset, path: str | Path) -> None:
    write_csv(path, *dataset_columns(p))


def scatter_svg(p: Dataset, title: str) -> str:
    """Self-contained SVG scatter under `title`, one marker color per class."""
    width, height, margin = 640.0, 480.0, 48.0
    xs, ys = p.X[:, 0], p.X[:, 1]
    xmin, ymin = xs.min(), ys.min()
    xspan = max(xs.max() - xmin, 1e-12)
    yspan = max(ys.max() - ymin, 1e-12)
    cx = margin + (xs - xmin) / xspan * (width - 2 * margin)
    cy = height - margin - (ys - ymin) / yspan * (height - 2 * margin)
    # a title names a dataset by its file stem, which may hold markup characters
    text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{margin:.0f}" y="{margin:.0f}" width="{width - 2 * margin:.0f}" '
        f'height="{height - 2 * margin:.0f}" fill="none" stroke="#cccccc"/>',
        f'<text x="{width / 2:.0f}" y="{margin / 2 + 6:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{text}</text>',
    ]
    # negatives first so the rare positives stay visible on top
    for target, color in ((0, NEGATIVE_COLOR), (1, POSITIVE_COLOR)):
        mine = p.y == target
        parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" fill-opacity="0.7"/>'
                  for x, y in zip(cx[mine].tolist(), cy[mine].tolist())]
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">pc1</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.0f})">pc2</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_projection_svg(p: Dataset, path: str | Path, title: str) -> None:
    Path(path).write_text(scatter_svg(p, title), encoding="utf-8")
