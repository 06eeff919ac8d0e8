"""Event-window study: how a synchronized stretch reshapes the trees.
====================================================================

Builds a panel whose middle stretch has strong couplings from one hub
(mimicking the synchronized information transfer seen around market
crashes) and runs the before/during/after window study.  The root degree
rises sharply in the during window and falls back afterwards, and the
maximal-path weight moves with it.
"""

from datetime import timedelta

from infoflow import (
    Coupling,
    Segment,
    SyntheticDataset,
    generate_dataset,
    returns_panel,
    turmoil_study,
)
from infoflow.analysis import render_turmoil_csv

T_LEN = 250  # trading days inside the crash interval
N_SECTORS = 8


def build_panel(seed=11):
    star = tuple(Coupling(0, t, 0.9) for t in range(1, N_SECTORS))
    spec = SyntheticDataset(
        n_sectors=N_SECTORS,
        segments=(
            Segment(2 * T_LEN, ()),       # calm
            Segment(2 * T_LEN, star),     # synchronized turmoil
            Segment(2 * T_LEN, ()),       # calm again
        ),
        seed=seed,
    )
    series = generate_dataset(spec)
    crash_start = spec.start + timedelta(days=3 * T_LEN + 1)
    crash_end = crash_start + timedelta(days=T_LEN - 1)
    return series, crash_start, crash_end


def main():
    series, crash_start, crash_end = build_panel()
    study = turmoil_study(returns_panel(series), q=15,
                          crash_start=crash_start, crash_end=crash_end)

    print(f"crash interval : {study.crash_start} .. {study.crash_end} "
          f"({study.crash_days} trading days)")
    for r in study.results:
        print(f"{r.label + ' window':<15}: {r.interval[0]} .. {r.interval[1]}")
    print()

    print(render_turmoil_csv(study, report_mode=True))

    print("outgoing root degree across windows (rise and fall):")
    degs = [study.result(k).root_degree["outgoing"] for k in ("before", "during", "after")]
    for label, deg in zip(("before", "during", "after"), degs):
        print(f"  {label:<7} {'#' * deg} ({deg})")


if __name__ == "__main__":
    main()
