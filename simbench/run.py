#!/usr/bin/env python3
"""Benchmark of the ofdm_bitload simulator, end to end and per module.

Run from the root of a checkout:

    python3 simbench/run.py --workload offset-sweep --seed 1 --seconds 18 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:
``setup_s``, the median over fresh processes of the time from just before
``import ofdm_bitload`` to the return of the workload's smallest first call;
``round_s``, the median wall time of the timed rounds run for ``--seconds``;
and ``peak_rss_mib`` of the process that ran the rounds. With ``--trace 1``
it runs one round untraced and the same round traced, each in a fresh
process, checks that their outputs are equal, and prints the per-layer
metrics. Every workload process runs serially with workers=1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance. Both, and the spans of a traced run, are also written under
simbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "table1.cfg"
OUT = HERE / "out"
WORKLOADS = ("offset-sweep", "deep-loading", "light-loading", "oracle")
SETUPS = 3          # fresh processes whose set-up times give setup_s
CHILD_TIMEOUT_S = 170


# --- workload processes -----------------------------------------------------

def child_main(args) -> dict:
    """Set up in this fresh process, then run what ``args.child`` asks for."""
    start = time.perf_counter()
    import ofdm_bitload
    import_s = time.perf_counter() - start
    if not Path(ofdm_bitload.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ofdm_bitload imported from {ofdm_bitload.__file__}, not {SRC}")
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    cfg = workloads.base_config(CONFIG, wl.overrides)
    wl.setup(cfg, workloads.round_rng(args.seed, 0))
    out = {"import_s": import_s, "setup_s": time.perf_counter() - start}
    if args.child == "setup":
        return out

    import numpy
    import scipy
    import resource
    from spans import Capture, Tracer
    out.update(numpy=numpy.__version__, scipy=scipy.__version__,
               ofdm_bitload=ofdm_bitload.__version__, rounds=[])
    capture = Capture(wl.captures)
    tracer = Tracer() if args.child == "traced" else None
    timed = 0.0
    index = 1
    while True:
        rng = workloads.round_rng(args.seed, index)
        inputs = wl.inputs(rng)
        capture.calls.clear()
        restore_capture, _ = capture.install()
        restore_trace, absent = tracer.install() if tracer else (None, [])
        t0 = time.perf_counter()
        try:
            outputs, errors = wl.run(cfg, inputs)
        finally:
            elapsed = time.perf_counter() - t0
            if restore_trace:
                restore_trace()
            restore_capture()
        bad = wl.check(cfg, inputs, outputs, list(capture.calls))
        for op, reason in sorted({**bad, **errors}.items()):
            print(f"{args.workload} round {index} op {op}: {reason}", file=sys.stderr)
        out["rounds"].append({"inputs": inputs, "round_s": elapsed, "ops": wl.ops,
                              "raised": sorted(errors), "wrong": sorted(bad),
                              "digest": wl.digest(outputs)})
        timed += elapsed
        index += 1
        if args.child != "rounds" or timed >= args.seconds:
            break
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["absent"] = absent
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"spans": tracer.spans}))
    return out


def run_child(role, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                       if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{role} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- provenance ---------------------------------------------------------------

def git_sha():
    """HEAD of the checkout's own git directory, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the package sources and the config, to name the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [CONFIG]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, child):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": child["numpy"], "scipy": child["scipy"],
        "ofdm_bitload": child["ofdm_bitload"],
    }


# --- the two modes --------------------------------------------------------------

def tally(*children):
    rounds = [r for c in children for r in c["rounds"]]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(len(set(r["raised"]) | set(r["wrong"])) for r in rounds)
    correct = not any(r["wrong"] for r in rounds)
    return rounds, attempted, failed, correct


def end_to_end(args):
    setups = [run_child("setup", args)["setup_s"] for _ in range(SETUPS - 1)]
    main = run_child("rounds", args)
    setups.append(main["setup_s"])
    rounds, attempted, failed, correct = tally(main)
    times = [r["round_s"] for r in rounds]
    metrics = {"setup_s": statistics.median(setups), "round_s": statistics.median(times),
               "peak_rss_mib": main["peak_rss_mib"]}
    info = provenance(args, main)
    info.update(setup_times_s=setups, round_times_s=times, import_s=main["import_s"],
                round_seeds=[r["inputs"] for r in rounds])
    return metrics, attempted, failed, correct, info, rounds


def traced(args):
    plain = run_child("untraced", args)
    seen = run_child("traced", args)
    rounds, attempted, failed, correct = tally(plain, seen)
    same = plain["rounds"][0]["digest"] == seen["rounds"][0]["digest"]
    if not same:
        print(f"{args.workload}: traced round's outputs differ from the untraced round's",
              file=sys.stderr)
    metrics = dict(seen["layers"], **{"package.import_s": seen["import_s"]})
    info = provenance(args, seen)
    untraced_s, traced_s = plain["rounds"][0]["round_s"], seen["rounds"][0]["round_s"]
    info.update(outputs_equal=same, absent=seen["absent"], untraced_round_s=untraced_s,
                traced_round_s=traced_s, trace_overhead=traced_s / untraced_s - 1.0,
                round_seeds=[rounds[0]["inputs"]], layers=seen["layers"])
    return metrics, attempted, failed, correct and same, info, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rounds", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    if not (SRC / "ofdm_bitload" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"no ofdm_bitload sources under {SRC} or no {CONFIG}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, attempted, failed, correct, info, rounds = (traced if args.trace else end_to_end)(args)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    info.update(attempted=attempted, failed=failed)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result,
                                                  "rounds": rounds}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
