"""Closed-loop study runner: one client runs CLI studies back to back.

Run by ``run.py`` in a process of its own, so that its peak resident memory
is the workload's and not the checker's.  Usage:

    PYTHONPATH=src python3 bench/worker.py <config.json>

The config names the CLI arguments, the output root, the seconds to
measure, and whether to trace.  In a traced run, untraced and traced
studies alternate, so both see the same machine conditions and their
ratio gives the tracing overhead.  Results go
to the config's ``result`` file as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter, perf_counter_ns

import infoflow.cli

from tracer import Tracer, layer_metrics


def run_study(argv: list[str], out_dir: Path) -> dict:
    """One in-process CLI study; its wall time spans argv to last file written."""
    errors = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
        warnings.simplefilter("always")
        start = perf_counter_ns()
        try:
            code = infoflow.cli.main(argv + ["--out-dir", str(out_dir)])
        except Exception:  # a crashing study is a failed study, not a failed run
            code = None
            errors.write(traceback.format_exc())
        wall = (perf_counter_ns() - start) / 1e9
    skipped = sum(1 for w in caught if str(w.message).startswith("skipping year"))
    return {"dir": str(out_dir), "wall_s": wall, "exit": code,
            "error": errors.getvalue()[-2000:], "years_skipped": skipped}


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out_root = Path(cfg["out_root"])
    tracer = Tracer() if cfg["trace"] else None
    # Untraced runs need min_studies timed studies; traced runs that many pairs.
    minimum = cfg["min_studies"] * (2 if tracer else 1)
    studies = []
    deadline = perf_counter() + cfg["seconds"]
    while len(studies) < minimum or perf_counter() < deadline:
        k = len(studies)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.study = k
            with tracer.installed():
                study = run_study(cfg["argv"], out_root / f"study{k:03d}")
        else:
            study = run_study(cfg["argv"], out_root / f"study{k:03d}")
        study["traced"] = traced
        studies.append(study)

    result = {"studies": studies,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        traced = [k for k, s in enumerate(studies) if s["traced"]]
        result["layers"] = layer_metrics(tracer, traced)
        result["layers"]["analysis.windows_skipped"] = (
            sum(studies[k]["years_skipped"] for k in traced) / len(traced))
        result["absent"] = tracer.absent
    if cfg.get("reference_argv"):
        result["reference"] = run_study(cfg["reference_argv"], out_root / "reference")
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
