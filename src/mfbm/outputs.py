"""File outputs: CSV tables, JSON reports, run manifests, SVG plots.

CSV files carry a mandatory header row, UTF-8 text, LF line endings and
full-precision decimal floats (17 significant digits).  Every command
writes a JSON run manifest recording the resolved parameters, so
deterministic runs can be replayed byte-for-byte.
"""
from __future__ import annotations

import datetime
import json
import os
from pathlib import Path

__all__ = [
    "format_float",
    "write_csv",
    "write_json",
    "write_manifest",
    "default_out_dir",
    "loglog_svg",
]

#: Environment variable naming the default output directory.
OUT_DIR_ENV = "MFBM_OUT_DIR"


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def format_float(x) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> Path:
    """Write one CSV table; text cells are written as they are, numeric
    cells at full precision, as by :func:`format_float`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    # One %-template per pattern of text cells formats a whole row at once;
    # "%.17g" formats float(cell), the same string as format_float(cell).
    templates = {}
    for row in rows:
        row = tuple(row)
        text = tuple(isinstance(cell, str) for cell in row)
        template = templates.get(text)
        if template is None:
            template = templates[text] = ",".join("%s" if is_text else "%.17g" for is_text in text)
        lines.append(template % row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8", newline="\n")
    return path


def write_manifest(path, command: str, parameters: dict, outputs, version: str) -> Path:
    manifest = {
        "command": command,
        "parameters": parameters,
        "tool_version": version,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0).isoformat(),
        "outputs": [str(p) for p in outputs],
    }
    return write_json(path, manifest)


def loglog_svg(path, lags, values, slope: float, intercept: float, target: float) -> Path:
    """Minimal log-log scatter with the fitted line and a reference line of
    the target slope, anchored at the first fitted point."""
    import numpy as np

    lags = np.asarray(lags, dtype=float)
    values = np.asarray(values, dtype=float)
    x = np.log10(lags)
    y = np.log10(values)
    width, height, margin = 640, 480, 60

    def sx(v):
        lo, hi = x.min(), x.max()
        span = hi - lo if hi > lo else 1.0
        return margin + (v - lo) / span * (width - 2 * margin)

    def sy(v):
        lo, hi = y.min(), y.max()
        span = hi - lo if hi > lo else 1.0
        return height - margin - (v - lo) / span * (height - 2 * margin)

    ln10 = np.log(10.0)
    fit_y = (slope * (x * ln10) + intercept) / ln10
    ref_y = fit_y[0] + target * (x - x[0])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        '<text x="{}" y="{}" font-size="13">log10 lag</text>'.format(width // 2 - 30, height - 20),
        '<text x="15" y="{}" font-size="13" transform="rotate(-90 15 {})">log10 value</text>'.format(
            height // 2, height // 2),
    ]
    fit_pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, fit_y))
    ref_pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, ref_y))
    parts.append(f'<polyline points="{fit_pts}" fill="none" stroke="crimson" stroke-width="1.5"/>')
    parts.append(f'<polyline points="{ref_pts}" fill="none" stroke="gray" '
                 'stroke-dasharray="6,4" stroke-width="1.5"/>')
    for a, b in zip(x, y):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="4" fill="steelblue"/>')
    parts.append(
        f'<text x="{margin + 8}" y="{margin - 8}" font-size="13">'
        f"slope {slope:.4f} (reference {target:.4f})</text>"
    )
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return path
