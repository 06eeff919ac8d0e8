"""Whole-sample information-flow network and its spanning arborescences.
========================================================================

Runs the full chain on the bundled 28-sector synthetic panel: log returns,
15-bin symbolization, pairwise transfer entropy, net-flow orientation, and
the outgoing/incoming maximum spanning arborescences with their maximal
information-flow paths.  Writes the panel CSV plus DOT/JSON renderings
into demo_output/ so the arborescences can be drawn with graphviz.
"""

import dataclasses
from pathlib import Path

import numpy as np

from infoflow import (
    arborescence_to_dot,
    arborescence_to_json,
    dataset_to_csv,
    degrees,
    demo_dataset,
    msas_from_returns,
    returns_panel,
)

OUT = Path(__file__).resolve().parent / "demo_output"


def describe(arb, path, label):
    root = arb.sectors[arb.root]
    print(f"\n{label} arborescence")
    print(f"  root          : {root.short_code} ({root.name})")
    print(f"  total weight  : {arb.total_weight:.4f} bits")
    print(f"  maximal path  : {'->'.join(path.codes)}")
    print(f"  path weight   : {path.total_weight:.4f} bits over {path.length} sectors")
    hubs = sorted(degrees(arb).items(), key=lambda kv: -kv[1][2])[:3]
    pretty = ", ".join(f"{code[-3:]} (total {d[2]})" for code, d in hubs)
    print(f"  top hubs      : {pretty}")


def main():
    OUT.mkdir(exist_ok=True)
    # Closes to the cent, as index closes are quoted: a last-bit difference
    # in the generator's np.exp between CPUs then leaves the files unchanged.
    dataset = [dataclasses.replace(p, closes=np.round(p.closes, 2)) for p in demo_dataset()]
    (OUT / "demo_sectors.csv").write_text(dataset_to_csv(dataset), encoding="utf-8")
    print(f"panel: {len(dataset)} sectors x {len(dataset[0])} trading days")

    window = msas_from_returns(returns_panel(dataset), q=15)
    for orientation, arb in window.trees.items():
        path = window.paths[orientation]
        describe(arb, path, orientation)
        (OUT / f"msa_{orientation}.dot").write_text(
            arborescence_to_dot(arb, path), encoding="utf-8"
        )
        (OUT / f"msa_{orientation}.json").write_text(
            arborescence_to_json(arb, path), encoding="utf-8"
        )
    print(f"\nwrote CSV/DOT/JSON into {OUT}")
    print("render with: dot -Tpng demo_output/msa_outgoing.dot -o msa.png")


if __name__ == "__main__":
    main()
