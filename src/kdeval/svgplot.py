"""Standalone SVG scatter plots of partitions, with deterministic byte output."""

import numpy as np

# Fixed 30-color palette (cluster id -> fill), chosen for adjacent contrast.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#c7c7c7", "#dbdb8d", "#9edae5",
    "#393b79", "#637939", "#8c6d31", "#843c39", "#7b4173",
    "#5254a3", "#8ca252", "#bd9e39", "#ad494a", "#a55194",
)

WIDTH = 480
HEIGHT = 480
MARGIN = 24.0


def _fmt(value):
    return f"{value:.2f}"


def emit_svg(data, partition, path, index_name="", index_value=None, ari=None):
    """Write a scatter plot of the partition as a standalone SVG file.

    Only 2-D and 3-D data are supported; 3-D points are projected onto the
    first two axes and the title says so.  The title line is
    "K=<k> <index>=<value> AR=<ari>" with 5-decimal values.  Output bytes are
    deterministic for identical inputs.
    """
    if data.d not in (2, 3):
        raise ValueError(f"SVG plots support d in {{2, 3}}, got d={data.d}")
    points = data.points[:, :2]
    labels = partition.labels
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = min((WIDTH - 2 * MARGIN) / span[0], (HEIGHT - 2 * MARGIN) / span[1])
    # center the (aspect-preserving) drawing inside the canvas
    offset_x = (WIDTH - scale * span[0]) / 2.0
    offset_y = (HEIGHT - scale * span[1]) / 2.0

    title = f"K={partition.K}"
    if index_name:
        value_text = "undefined" if index_value is None else f"{index_value:.5f}"
        title += f" {index_name}={value_text}"
    if ari is not None:
        title += f" AR={ari:.5f}"
    if data.d == 3:
        title += " (first 2 of 3 axes)"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<title>{title}</title>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_fmt(MARGIN)}" y="16" font-family="monospace" font-size="12">{title}</text>',
    ]
    # elementwise, in the same operation order as one point at a time
    cxs = offset_x + scale * (points[:, 0] - lo[0])
    cys = HEIGHT - (offset_y + scale * (points[:, 1] - lo[1]))
    for cx, cy, label in zip(cxs.tolist(), cys.tolist(), labels.tolist()):
        fill = PALETTE[label % len(PALETTE)]
        lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.5" fill="{fill}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
