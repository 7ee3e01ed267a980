"""2-D principal-component projections exported as CSV and SVG scatter plots."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, write_csv
from .reducers import fit_pca, project_pca

NEGATIVE_COLOR = "#4477aa"
POSITIVE_COLOR = "#ee6677"


@dataclass(frozen=True)
class Projection2D:
    points: np.ndarray  # (n, 2)
    labels: np.ndarray


def export_projection_2d(d) -> Projection2D:
    """Project any object with .X and .y onto its top two principal axes."""
    X = np.asarray(d.X, dtype=np.float64)
    if X.shape[1] < 2:
        raise DataError("2-D projection needs at least 2 features")
    reducer = fit_pca(X, 2)
    z = project_pca(reducer, X)
    return Projection2D(points=z, labels=np.asarray(d.y))


def projection_to_csv(p: Projection2D, path: str | Path) -> None:
    write_csv(path, ["pc1", "pc2", "label"], [*p.points.T, p.labels.astype(np.int64)])


def scatter_svg(p: Projection2D, title: str = "") -> str:
    """Self-contained SVG scatter, one marker color per class."""
    width, height, margin = 640.0, 480.0, 48.0
    xs, ys = p.points[:, 0], p.points[:, 1]
    xmin, ymin = xs.min(), ys.min()
    xspan = max(xs.max() - xmin, 1e-12)
    yspan = max(ys.max() - ymin, 1e-12)
    cx = margin + (xs - xmin) / xspan * (width - 2 * margin)
    cy = height - margin - (ys - ymin) / yspan * (height - 2 * margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{margin:.0f}" y="{margin:.0f}" width="{width - 2 * margin:.0f}" '
        f'height="{height - 2 * margin:.0f}" fill="none" stroke="#cccccc"/>',
    ]
    if title:
        # a title names a dataset by its file stem, which may hold markup characters
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{width / 2:.0f}" y="{margin / 2 + 6:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{text}</text>'
        )
    # negatives first so the rare positives stay visible on top
    for target, color in ((0, NEGATIVE_COLOR), (1, POSITIVE_COLOR)):
        mine = p.labels == target
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


def write_projection_svg(p: Projection2D, path: str | Path, title: str = "") -> None:
    Path(path).write_text(scatter_svg(p, title), encoding="utf-8")
