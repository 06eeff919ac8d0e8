"""Are root sectors special?  Correlation with a market index.
=============================================================

Correlates each year's source/sink root returns with a market index and
compares against randomly drawn non-root sectors.  Here the index is the
equal-weight mean of all sector log returns, so genuinely idiosyncratic
roots should correlate less with it than the average sector does.
"""

import numpy as np

from infoflow import (
    PriceSeries,
    SectorMeta,
    demo_dataset,
    returns_panel,
    specificity_study,
)
from infoflow.analysis import render_specificity_csv


def equal_weight_index(dataset):
    """Synthetic market index: mean log-return across sectors, re-exponentiated."""
    log_prices = np.log(np.column_stack([p.closes for p in dataset]))
    mean_log = log_prices.mean(axis=1)
    closes = 100.0 * np.exp(mean_log - mean_log[0])
    return PriceSeries(SectorMeta("000001", "equal-weight index"), dataset[0].dates, closes)


def main():
    dataset = demo_dataset()
    returns = returns_panel(dataset)
    index = returns_panel([equal_weight_index(dataset)])
    result = specificity_study(returns, index, q=15, seed=12345, samples=5)

    print(render_specificity_csv(result))
    print(f"source-root mean correlation : {result.source_mean:.4f}")
    print(f"sink-root mean correlation   : {result.sink_mean:.4f}")
    print(f"control mean correlation     : {result.control_mean:.4f} "
          f"({len(result.windows) * result.samples_per_year} draws, seed {result.seed})")


if __name__ == "__main__":
    main()
