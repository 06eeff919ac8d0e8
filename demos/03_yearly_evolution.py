"""Yearly evolution of roots, maximal paths, and sector degrees.
===============================================================

Re-estimates the network inside each calendar year of the bundled panel
and prints the evolution tables: per-year root sector and maximal
information-flow path (with path weight in the x100 display unit), root
occurrence counts, and the year-by-sector degree heat-map matrix.
"""

from infoflow import (
    degree_heatmap,
    demo_dataset,
    returns_panel,
    root_occurrences,
    yearly_reports,
)
from infoflow.analysis import render_degree_heatmap_csv, render_yearly_csv


def main():
    windows = yearly_reports(returns_panel(demo_dataset()), q=15)  # one per year

    for orientation in ("outgoing", "incoming"):
        print(f"\n=== {orientation} maximal information flow paths ===")
        print(render_yearly_csv(windows, orientation, report_mode=True))

        counts = root_occurrences(windows, orientation)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        print(f"{orientation} root occurrences: "
              + ", ".join(f"{code[-3:]} x{n}" for code, n in ranked))

        print(f"\n{orientation} degree heat map (total degree):")
        print(render_degree_heatmap_csv(degree_heatmap(windows, orientation)))


if __name__ == "__main__":
    main()
