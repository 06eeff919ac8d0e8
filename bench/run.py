"""infoflow benchmark: seeded CLI studies, oracle-checked, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload yearly_n28 --seed 1 --seconds 20 --trace 0

Each run generates a seeded synthetic panel, writes it as a wide CSV, and
runs real ``infoflow msa`` studies through ``infoflow.cli.main(argv)`` back
to back in a worker process (a closed loop with one client) for
``--seconds``.  Every study's output is checked outside the timed region.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracer.py``).  The line before it holds a report: machine, software,
input and output sha256, sample counts and any problem found.  The exit
status is 1 if any study or output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

DAYS = 4400  # about 2000-2017 on a Mon-Fri calendar, the paper's sample length
Q = 15
MIN_YEAR_DAYS = 30  # the CLI skips shorter calendar years
# study_s is the mean study time of a run: its timed study time over its
# studies, so pairs_per_s is the closed loop's throughput.  On a shared host
# whose CPU drifts between fast and slow phases, run means spread less from
# run to run than run medians did.  Medians and samples go to the report.
IMPORTS = 9  # fresh-interpreter imports per run for setup_s
MIN_STUDIES = 3
WORKER_TIMEOUT_S = 150

# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "whole_n28": {"n": 28, "mode": "whole", "workers": 1},
    "yearly_n28": {"n": 28, "mode": "yearly", "workers": 1, "reference_workers": 2},
}


def machine() -> dict:
    import networkx
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "networkx": networkx.__version__}


def study_argv(csv: Path, spec: dict, workers: int) -> list[str]:
    return ["msa", "--input", str(csv), "--mode", spec["mode"], "--q", str(Q),
            "--format", "csv,json,dot", "--workers", str(workers)]


def import_times(env: dict, count: int) -> list[float]:
    """Times for fresh interpreters to import infoflow.cli.

    The child times its own import: waiting on a child with a timeout polls
    in steps of up to 50 ms, which would quantize a parent-side timing.
    """
    code = ("import time; t = time.perf_counter(); import infoflow.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(count)]


def run_worker(cfg: dict, work: Path, env: dict) -> dict:
    cfg_path = work / "worker.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), str(cfg_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))


def check_outputs(result: dict, checker) -> tuple[int, list[str], str | None]:
    """Failed study count, problems, and the sha256 of the correct outputs.

    The first study that exited 0 is checked against the oracle; every study
    must then have written byte-identical files, and so must the reference
    study, when there is one.
    """
    import networkx as nx
    from oracle import digest_dir

    studies = result["studies"]
    ok = [s for s in studies if s["exit"] == 0]
    problems = [f"study {k} exited {s['exit']}: {s['error'].strip()[-300:]}"
                for k, s in enumerate(studies) if s["exit"] != 0]
    good = None
    if ok:
        try:
            found = checker(Path(ok[0]["dir"]))
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                nx.NetworkXException) as exc:
            found = [f"output check raised {type(exc).__name__}: {exc}"]
        problems += found
        good = None if found else digest_dir(Path(ok[0]["dir"]))
    digests = [digest_dir(Path(s["dir"])) if s["exit"] == 0 else None for s in studies]
    failed = sum(1 for d in digests if good is None or d != good)
    if good is not None and failed:
        problems.append(f"{failed} studies wrote files differing from the checked study")
    ref = result.get("reference")
    if ref is not None and good is not None:
        if ref["exit"] != 0 or digest_dir(Path(ref["dir"])) != good:
            problems.append("outputs differ from the reference study's other worker count")
            failed, good = len(studies), None
    return failed, problems, good


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "infoflow" / "cli.py").is_file():
        print(f"error: no infoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from oracle import check_study, yearly_windows
    from panel import make_panel, panel_csv

    spec = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    codes, dates, closes = make_panel(spec["n"], DAYS, args.seed)
    data = panel_csv(codes, dates, closes).encode()
    csv = work / "panel.csv"
    csv.write_bytes(data)
    cfg = {"argv": study_argv(csv, spec, spec["workers"]), "out_root": str(work / "out"),
           "seconds": args.seconds, "trace": bool(args.trace), "min_studies": MIN_STUDIES,
           "result": str(work / "result.json")}
    if "reference_workers" in spec:
        cfg["reference_argv"] = study_argv(csv, spec, spec["reference_workers"])
    try:
        result = run_worker(cfg, work, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # After the worker, whose import compiled the bytecode.  Timed from an idle
    # CPU, imports on a shared host were up to twice as slow.
    imports = import_times(env, IMPORTS) if not args.trace else []

    failed, problems, digest = check_outputs(
        result, lambda out: check_study(out, spec["mode"], codes, dates, closes, Q,
                                         MIN_YEAR_DAYS))
    studies = result["studies"]
    timed = [s["wall_s"] for s in studies if not s["traced"]]
    study_s = statistics.fmean(timed)
    windows = 1 if spec["mode"] == "whole" else len(yearly_windows(dates, MIN_YEAR_DAYS))
    n = spec["n"]

    if args.trace:
        layers = dict(result["layers"])
        traced = [s["wall_s"] for s in studies if s["traced"]]
        layers["trace.overhead"] = statistics.fmean(traced) / study_s
        out_dir = Path(studies[0]["dir"])
        files = list(out_dir.iterdir()) if out_dir.is_dir() else []
        layers["cli.files_written"] = len(files)
        layers["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        values = layers
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith("_s") and k != "trace.study_s" and v is not None)
        extra = {"self_time_sum_s": self_sum, "traced_studies": len(traced),
                 "unmeasured": sorted(k for k, v in layers.items() if v is None),
                 "absent_functions": result["absent"]}
    else:
        values = {"study_s": study_s, "pairs_per_s": windows * n * (n - 1) / study_s,
                  "setup_s": statistics.median(imports),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024}
        extra = {"study_s_median": statistics.median(timed), "study_s_samples": timed,
                 "setup_s_samples": imports}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    if "reference" in result:
        extra["reference_workers"] = spec["reference_workers"]
        extra["reference_study_s"] = result["reference"]["wall_s"]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "input_sha256": hashlib.sha256(data).hexdigest(), "output_sha256": digest,
              "timed_studies": len(timed), "fail_ratio": failed / len(studies),
              "problems": problems[:20], **extra}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(studies), "failed": failed,
                      "metrics": metrics}))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
