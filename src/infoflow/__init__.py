"""Directed information-flow networks for financial time series.

Pipeline: daily prices -> log returns -> equal-width symbolization ->
pairwise symbolic transfer entropy -> net-flow orientation -> directed
weighted network -> outgoing/incoming maximum spanning arborescences ->
maximal information-flow paths, with whole-sample, yearly, event-window,
and root-specificity studies on top.
"""

from .analysis import (
    DegreeHeatmap,
    SpecificityResult,
    TurmoilStudy,
    WindowResult,
    degree_heatmap,
    msas_from_returns,
    pearson,
    root_occurrences,
    specificity_study,
    turmoil_study,
    yearly_reports,
)
from .arborescence import (
    Arborescence,
    InfoFlowPath,
    arborescence_to_dot,
    arborescence_to_json,
    degrees,
    max_spanning_arborescence,
    maximal_information_flow_path,
)
from .entropy import DaiMatrix, TeMatrix, dai_matrix, te_matrix
from .network import InfoFlowNetwork, build_network
from .symbolize import Partition, SymbolPanel, encode, make_partition
from .synth import (
    CoupledBinaryProcess,
    Coupling,
    Segment,
    SyntheticDataset,
    analytic_te_coupled_binary,
    dataset_to_csv,
    demo_dataset,
    generate_coupled_binary,
    generate_dataset,
)
from .timeseries import (
    JB_CRITICAL_1PCT,
    DatasetError,
    Panel,
    PriceSeries,
    SectorMeta,
    SummaryStats,
    load_dataset,
    load_sector_names,
    returns_panel,
    slice_returns,
    summary_stats,
)

__version__ = "0.1.0"
