"""Optional SVG line plots for logged experiment series.

Matplotlib is treated as optional: when it is not importable every entry
point is a no-op returning None, so experiment code can call these
unconditionally and still run on a bare install.
"""

from __future__ import annotations

from pathlib import Path

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    _HAVE_MPL = True
except Exception:  # pragma: no cover - depends on the install
    _HAVE_MPL = False


def line_plot(path, series, title="", xlabel="epoch", ylabel="", logy=False):
    """Write an SVG with one line per ``label -> values`` entry in `series`.

    Values are plotted against their index (epoch number for metric series).
    Returns the written path, or None when matplotlib is unavailable.
    """
    if not _HAVE_MPL:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    for label, values in series.items():
        ax.plot(range(len(values)), values, label=label)
    if logy:
        ax.set_yscale("log")
    ax.set_title(title)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.legend(fontsize=8)
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)
    return path


def scatter_plot(path, xs, ys, title="", xlabel="", ylabel=""):
    """Write an SVG scatter of paired values; same contract as line_plot."""
    if not _HAVE_MPL:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fig, ax = plt.subplots(figsize=(4.8, 4.2))
    ax.scatter(xs, ys, s=24)
    ax.set_title(title)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)
    return path
