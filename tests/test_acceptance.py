"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 10 exercises externally supplied sector data and is
skipped unless INFOFLOW_DATA_CSV points at a wide-format price panel.
"""

import math
import os
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

from conftest import (
    pair_te,
    random_complete_network,
    turmoil_dataset,
)
from oracles import enumerate_arborescences, pearson_mpmath, stats_mpmath, te_bruteforce

from infoflow.analysis import (
    msas_from_returns,
    pearson,
    turmoil_study,
    yearly_reports,
)
from infoflow.arborescence import degrees, max_spanning_arborescence
from infoflow.cli import main as cli_main
from infoflow.entropy import dai_matrix, te_matrix
from infoflow.network import InfoFlowNetwork
from infoflow.synth import (
    Coupling,
    Segment,
    SyntheticDataset,
    analytic_te_coupled_binary,
    dataset_to_csv,
    demo_dataset,
    generate_coupled_binary,
    generate_dataset,
)
from infoflow.timeseries import load_dataset, returns_panel, summary_stats


@contextmanager
def criterion(num, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {num:02d} PASS {label} ({elapsed:.1f}s)")


def test_criterion_01_te_oracle_equivalence():
    with criterion(1, "TE matches brute-force summation on 500 random pairs"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(500):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(2, 13))
            src = rng.integers(1, q + 1, size=n)
            tgt = rng.integers(1, q + 1, size=n)
            got = pair_te(src, tgt)
            want = te_bruteforce(src.tolist(), tgt.tolist(), q)
            assert abs(got - want) <= 1e-12
        assert time.perf_counter() - started < 10.0


def test_criterion_02_te_analytic_convergence():
    with criterion(2, "TE converges to the closed form of the coupled binary process"):
        started = time.perf_counter()
        for k, c in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            estimate = te_matrix(generate_coupled_binary(c, 100_000, seed=300 + k))[0, 1]
            exact = analytic_te_coupled_binary(c)
            assert abs(estimate - exact) < 0.01, (c, estimate, exact)
        assert abs(analytic_te_coupled_binary(0.5) - 0.18872) < 5e-6
        assert time.perf_counter() - started < 30.0


def test_criterion_03_nonnegativity_and_bound():
    with criterion(3, "0 <= TE <= log2(q) on 10^4 random inputs; DAI antisymmetric"):
        rng = np.random.default_rng(303)
        for _ in range(10_000):
            q = int(rng.integers(2, 6))
            n = int(rng.integers(2, 31))
            src = rng.integers(1, q + 1, size=n)
            tgt = rng.integers(1, q + 1, size=n)
            te = pair_te(src, tgt)
            assert te >= -1e-12
            assert te <= math.log2(q) + 1e-12
        for trial in range(5):
            symbols = np.stack([rng.integers(1, 4, size=120) for _ in range(6)])
            d = dai_matrix(te_matrix(symbols))
            assert np.array_equal(d, -d.T)
            assert np.all(np.diag(d) == 0.0)


def test_criterion_04_edmonds_oracle_equivalence():
    with criterion(4, "solver equals exhaustive enumeration on 1000 random instances"):
        rng = np.random.default_rng(404)
        started = time.perf_counter()
        for trial in range(1000):
            n = int(rng.integers(2, 7))
            g = random_complete_network(n, rng)
            orientation = "outgoing" if trial % 2 == 0 else "incoming"
            solved = max_spanning_arborescence(g, orientation)
            brute = enumerate_arborescences(g, orientation)
            assert solved.total_weight == brute.total_weight
            assert solved.edges == brute.edges
            assert solved.root == brute.root
        assert time.perf_counter() - started < 60.0


def test_criterion_05_arborescence_invariants_and_duality():
    with criterion(5, "structural invariants and orientation duality on 100 networks"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = random_complete_network(n, rng)
            # Arborescence.__post_init__ enforces edge count, degree
            # constraints, and acyclicity; recheck the headline facts here.
            for orientation in ("outgoing", "incoming"):
                a = max_spanning_arborescence(g, orientation)
                assert len(a.edges) == n - 1
                deg = degrees(a)
                root_code = a.sectors[a.root].code
                in_pos, out_pos = (0, 1) if orientation == "outgoing" else (1, 0)
                assert deg[root_code][in_pos] == 0
                for code, d in deg.items():
                    if code != root_code:
                        assert d[in_pos] == 1
            incoming = max_spanning_arborescence(g, "incoming")
            dual = max_spanning_arborescence(InfoFlowNetwork(g.sectors, -g.dai), "outgoing")
            assert incoming.root == dual.root
            assert incoming.total_weight == dual.total_weight
            assert sorted(incoming.edges) == sorted((j, i, w) for i, j, w in dual.edges)


def test_criterion_06_direction_recovery():
    with criterion(6, "planted star hub recovered as outgoing root in >= 19/20 seeds"):
        hits = 0
        for seed in range(20):
            couplings = tuple(Coupling(0, t, 0.8) for t in range(1, 6))
            spec = SyntheticDataset(
                n_sectors=6,
                segments=(Segment(50_000, couplings),),
                seed=seed,
            )
            series = generate_dataset(spec)
            tree = msas_from_returns(returns_panel(series), q=15).trees["outgoing"]
            root = tree.sectors[tree.root]
            hits += root.code == series[0].sector.code
        assert hits >= 19, f"only {hits}/20 seeds recovered the hub"


def test_criterion_07_turmoil_synchronization():
    with criterion(7, "during-window root degree exceeds both flanks in >= 19/20 seeds"):
        hits = 0
        for seed in range(20):
            series, crash_start, crash_end = turmoil_dataset(seed=seed)
            study = turmoil_study(returns_panel(series), q=15,
                                  crash_start=crash_start, crash_end=crash_end)
            during = study.results["during"].root_degree["outgoing"]
            before = study.results["before"].root_degree["outgoing"]
            after = study.results["after"].root_degree["outgoing"]
            hits += during > before and during > after
        assert hits >= 19, f"only {hits}/20 seeds showed the synchronization peak"


def test_criterion_08_end_to_end_determinism(tmp_path):
    with criterion(8, "byte-identical outputs across runs and worker counts"):
        panel = tmp_path / "demo.csv"
        panel.write_text(dataset_to_csv(demo_dataset()), encoding="utf-8")

        def run_all(out_dir, workers):
            assert cli_main([
                "msa", "--input", str(panel), "--out-dir", str(out_dir),
                "--mode", "yearly", "--workers", str(workers),
            ]) == 0
            assert cli_main([
                "msa", "--input", str(panel), "--out-dir", str(out_dir),
                "--mode", "whole", "--workers", str(workers),
            ]) == 0
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        first = run_all(tmp_path / "run1", workers=1)
        second = run_all(tmp_path / "run2", workers=1)
        threaded = run_all(tmp_path / "run3", workers=4)
        assert first == second == threaded

        names = set(first)
        assert {"yearly_outgoing.csv", "yearly_incoming.csv",
                "yearly_reports.json", "msa_whole_outgoing.dot"} <= names
        header = first["yearly_outgoing.csv"].decode().split("\n")[0]
        assert header == "year,root_sector,maximal_information_path,n_sectors,dai_x100"
        rows = first["yearly_outgoing.csv"].decode().strip().split("\n")[1:]
        assert len(rows) == 3  # 2001, 2002, 2003


def test_criterion_09_statistics_correctness():
    with criterion(9, "summary stats and pearson match mpmath; JB level holds"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            values = rng.normal(rng.uniform(-0.01, 0.01), rng.uniform(0.005, 0.05), 200)
            s = summary_stats(values)
            mean, vmax, vmin, std, skew, kurt, jb = stats_mpmath(values)
            assert abs(s.mean - mean) <= 1e-12
            assert s.max == vmax and s.min == vmin
            assert abs(s.std - std) <= 1e-12
            assert abs(s.skewness - skew) <= 1e-12
            assert abs(s.kurtosis - kurt) <= 1e-12
            assert abs(s.jb_statistic - jb) <= 1e-12 * max(1.0, jb)

            x = rng.normal(0, 1, 100)
            y = 0.3 * x + rng.normal(0, 1, 100)
            assert abs(pearson(x, y) - pearson_mpmath(x, y)) <= 1e-12

        rejections = sum(
            summary_stats(np.random.default_rng(seed).standard_normal(2000)).jb_reject_at_1pct
            for seed in range(100)
        )
        assert rejections <= 5


# --- Criterion 10: bring-your-own-data reproduction (optional) --------------

# Published whole-sample statistics per sector: (mean*1e-3, max, min, std,
# skewness, kurtosis, jb). Values carry 3-4 significant digits, so each is
# checked within 0.5% or its printed rounding quantum, whichever is larger.
_REFERENCE_STATS = {
    "801010": (0.241, 0.092, -0.096, 0.020, -0.490, 6.202, 2035.7),
    "801020": (0.275, 0.095, -0.103, 0.021, -0.114, 5.840, 1474.3),
    "801030": (0.260, 0.093, -0.092, 0.018, -0.522, 6.394, 2289.8),
    "801040": (0.254, 0.094, -0.097, 0.020, -0.296, 6.400, 2162.5),
    "801050": (0.320, 0.095, -0.101, 0.022, -0.326, 5.586, 1291.5),
    "801080": (0.276, 0.094, -0.095, 0.021, -0.567, 5.512, 1379.1),
    "801110": (0.446, 0.094, -0.094, 0.019, -0.253, 6.084, 1773.7),
    "801120": (0.555, 0.092, -0.093, 0.017, -0.161, 6.469, 2204.2),
    "801130": (0.225, 0.093, -0.097, 0.019, -0.702, 6.940, 3177.6),
    "801140": (0.245, 0.094, -0.100, 0.019, -0.682, 6.931, 3143.4),
    "801150": (0.473, 0.091, -0.091, 0.018, -0.485, 6.599, 2522.9),
    "801160": (0.221, 0.095, -0.098, 0.017, -0.520, 7.205, 3407.3),
    "801170": (0.239, 0.095, -0.101, 0.018, -0.488, 7.302, 3532.9),
    "801180": (0.358, 0.094, -0.098, 0.020, -0.372, 5.929, 1658.1),
    "801200": (0.333, 0.093, -0.097, 0.018, -0.546, 6.479, 2414.1),
    "801210": (0.382, 0.093, -0.098, 0.020, -0.451, 6.187, 1992.0),
    "801230": (0.227, 0.092, -0.097, 0.020, -0.660, 6.017, 1968.7),
    "801710": (0.406, 0.090, -0.100, 0.020, -0.482, 6.130, 1947.0),
    "801720": (0.247, 0.094, -0.096, 0.019, -0.336, 6.488, 2290.8),
    "801730": (0.381, 0.095, -0.092, 0.019, -0.438, 5.926, 1693.9),
    "801740": (0.323, 0.096, -0.102, 0.023, -0.342, 5.919, 1631.6),
    "801750": (0.322, 0.095, -0.101, 0.021, -0.358, 5.361, 1105.2),
    "801760": (0.304, 0.095, -0.105, 0.022, -0.368, 5.340, 1092.9),
    "801770": (0.219, 0.095, -0.099, 0.020, -0.215, 6.125, 1807.1),
    "801780": (0.287, 0.096, -0.105, 0.019, 0.182, 7.128, 3117.5),
    "801790": (0.341, 0.095, -0.102, 0.024, 0.041, 5.523, 1157.4),
    "801880": (0.383, 0.093, -0.098, 0.020, -0.449, 6.236, 2048.8),
    "801890": (0.381, 0.093, -0.093, 0.019, -0.527, 6.292, 2169.6),
}

_EXPECTED_2001_PATH = ("020", "170", "120", "730", "040", "780",
                       "130", "720", "160", "890")
_EXPECTED_2001_DAI_X100 = 58.27

_DATA_ENV = "INFOFLOW_DATA_CSV"


def _close(got, want, decimals):
    tolerance = max(0.005 * abs(want), 0.5 * 10.0 ** (-decimals))
    return abs(got - want) <= tolerance


@pytest.mark.skipif(
    not os.environ.get(_DATA_ENV),
    reason=f"set {_DATA_ENV} to a 28-sector wide-format price CSV to enable",
)
def test_criterion_10_bring_your_own_data():
    with criterion(10, "externally supplied sector panel reproduces headline results"):
        returns = returns_panel(load_dataset(os.environ[_DATA_ENV]))
        by_code = {s.code: row for s, row in zip(returns.sectors, returns.values)}
        assert set(_REFERENCE_STATS) <= set(by_code), "panel must carry all 28 codes"

        for code, (mean3, vmax, vmin, std, skew, kurt, jb) in _REFERENCE_STATS.items():
            s = summary_stats(by_code[code])
            assert _close(s.mean * 1e3, mean3, 3), (code, "mean", s.mean)
            assert _close(s.max, vmax, 3), (code, "max", s.max)
            assert _close(s.min, vmin, 3), (code, "min", s.min)
            assert _close(s.std, std, 3), (code, "std", s.std)
            assert _close(s.skewness, skew, 3), (code, "skewness", s.skewness)
            assert _close(s.kurtosis, kurt, 3), (code, "kurtosis", s.kurtosis)
            assert _close(s.jb_statistic, jb, 1), (code, "jb", s.jb_statistic)

        windows = {w.label: w for w in yearly_reports(returns, q=15)}
        path2001 = windows["2001"].paths["outgoing"]
        assert path2001.codes == _EXPECTED_2001_PATH
        dai_x100 = path2001.total_weight * 100.0
        assert abs(dai_x100 - _EXPECTED_2001_DAI_X100) <= 0.01 * _EXPECTED_2001_DAI_X100

        trees = msas_from_returns(returns, q=15).trees
        assert trees["outgoing"].root_sector.code == "801230"
        assert trees["incoming"].root_sector.code == "801790"
