"""End-to-end benchmark of the `bonnet` command line.

    python3 bench/run.py --workload verify-ladder --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Load model: one closed-loop client.  This process runs the workload's
`python -m bonnet ...` commands one after another, each as a fresh child
with numpy/BLAS pinned to one thread, so at most this process and one
child run at a time.  A *pass* is one run over the workload's command
list; passes repeat until --seconds have gone by, and times are medians
over passes.

Workloads (why each exists is also recorded in BENCHMARK.json):

  verify-ladder     `verify --refine 4` on configs/demo_rational.json
                    (64^2 -> 505^2): check batteries, ladder, every march
                    at four levels held in memory at once.
  mesh-deform-fine  `mesh`, then `deform --t0 T` on the demo window at
                    505^2: one big frame march, the tau march (twice), and
                    about 84 MB of CSV/OBJ output.
  solve-branches    `solve --refine 3` on the seven configs in
                    bench/configs/: every Q evaluator, the marched psi,
                    no embedding, many short processes.

Seed 0 reproduces the recorded inputs exactly and is checked against the
reference snapshot in bench/reference.json.  Any other seed draws t0 and
the psi shifts (sigma, eta) from the ranges in SHIFT_RANGES; for those
seeds result_drift is not applicable, while determinism across passes and
the failing-check set are still checked.

With --trace 1 the benchmark alternates untraced passes with passes run
under bench/tracer.py and reports the per-layer metrics instead; the
tracing overhead is the traced minus the untraced median pass time.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
SEED_COUNTS = BENCH_DIR / "seed_counts.json"
DEMO_CONFIG = ROOT / "configs" / "demo_rational.json"
WORKLOADS = ("verify-ladder", "mesh-deform-fine", "solve-branches")
SOLVE_CONFIGS = (
    "rational_plus", "rational_minus", "trig_plus", "trig_minus",
    "hyper_plus", "hyper_minus", "rational_marched",
)
FINE_NODES = 505        # level 3 of the 64^2 demo ladder
SETUP_PER_PASS = 3      # fresh processes timed for setup_s before each pass
COMMAND_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 140.0  # stop starting passes after this, whatever --seconds says
DRIFT_BOUND = 1e-6      # largest result_drift still counted as correct
DRIFT_FLOOR = 1e-6      # a residual ladder wholly below this is rounding noise
SAMPLES = 128           # rows kept per big output file in the reference

# ranges for seeds other than 0; each keeps its branch in the same regime
# (same failing-check set as the seed inputs, no config or domain error)
SHIFT_RANGES = {
    "t0": (0.5, 1.5),
    "sigma": (-0.25, 0.25),      # rational branches
    "eta_trig": (0.2, 0.4),      # trig_appendix
    "eta_hyper": (-0.1, 0.1),    # hyper_appendix
}

SETUP_SNIPPET = (
    "import sys, bonnet; from bonnet.cli import load_config\n"
    "for p in sys.argv[1:]: load_config(p)\n"
    "print(bonnet.__file__)"
)

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "checks_failed": "count", "ops_failed": "count", "result_drift": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken checkout)."""


# ---------------------------------------------------------------------------
# inputs


class Command:
    """One `bonnet` invocation and the directory its outputs land in."""

    def __init__(self, key: str, args: list, out: Path):
        self.key = key
        self.args = args
        self.out = out


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


def draw_shifts(seed: int) -> dict | None:
    """None for seed 0 (the recorded inputs), else shifts drawn from SHIFT_RANGES."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    return {name: rng.uniform(lo, hi) for name, (lo, hi) in sorted(SHIFT_RANGES.items())}


def _shifted(cfg: dict, shifts: dict | None) -> dict:
    cfg = json.loads(json.dumps(cfg))
    if shifts is None:
        return cfg
    cfg["t0"] = shifts["t0"]
    psi = cfg["psi"]
    case = psi.get("case", "")
    if case.startswith("rational"):
        psi["sigma"] = shifts["sigma"]
    elif case == "trig_appendix":
        psi["eta"] = shifts["eta_trig"]
    elif case == "hyper_appendix":
        psi["eta"] = shifts["eta_hyper"]
    return cfg


def make_inputs(workload: str, seed: int, work: Path) -> tuple[list, list]:
    """(commands, config paths) of one workload, written under `work`."""
    shifts = draw_shifts(seed)
    inputs, out = work / "inputs", work / "out"
    if workload == "verify-ladder":
        cfg = _write_config(inputs / "demo.json", _shifted(_load_json(DEMO_CONFIG), shifts))
        return [Command("verify", ["verify", "--config", str(cfg), "--refine", "4",
                                   "--out", str(out / "verify")], out / "verify")], [cfg]
    if workload == "mesh-deform-fine":
        data = _shifted(_load_json(DEMO_CONFIG), shifts)
        data["grid"]["ns"] = data["grid"]["nt"] = FINE_NODES
        cfg = _write_config(inputs / "fine.json", data)
        t0 = repr(float(data["t0"]))
        return [
            Command("mesh", ["mesh", "--config", str(cfg), "--out", str(out / "mesh")],
                    out / "mesh"),
            Command("deform", ["deform", "--config", str(cfg), "--out", str(out / "deform"),
                               "--t0", t0], out / "deform"),
        ], [cfg]
    if workload == "solve-branches":
        cmds, cfgs = [], []
        for name in SOLVE_CONFIGS:
            cfg = _write_config(inputs / f"{name}.json",
                                _shifted(_load_json(BENCH_DIR / "configs" / f"{name}.json"), shifts))
            cfgs.append(cfg)
            cmds.append(Command(name, ["solve", "--config", str(cfg), "--refine", "3",
                                       "--out", str(out / name)], out / name))
        return cmds, cfgs
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, cwd: Path, stderr_path: Path) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one child, the RSS from its own rusage."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(configs: list, work: Path, repeats: int) -> list:
    """Seconds for `repeats` fresh processes that import bonnet and load the configs."""
    argv = [sys.executable, "-c", SETUP_SNIPPET] + [str(c) for c in configs]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=work, env=child_env(), capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"cannot import bonnet from {SRC}: {proc.stderr.strip()}")
        origin = Path(proc.stdout.strip()).resolve()
        if SRC.resolve() not in origin.parents:
            raise BenchError(f"bonnet imported from {origin}, not from {SRC}")
        times.append(seconds)
    return times


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class PassResult:
    """Timing, memory and checked outputs of one pass."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.commands = {}   # key -> {"exit", "traceback", "hashes", "failing", "bytes"}
        self.trace_files = []
        self.layer = {}      # per-layer metrics of a traced pass
        self.edges = set()   # its (callee, caller) span pairs


def run_pass(commands: list, work: Path, traced: bool) -> PassResult:
    res = PassResult(traced)
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
    t_pass = time.perf_counter()
    for cmd in commands:
        if traced:
            trace = work / "trace" / f"{cmd.key}.npz"
            trace.parent.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace)] + cmd.args
            res.trace_files.append(trace)
        else:
            argv = [sys.executable, "-m", "bonnet"] + cmd.args
        code, rss = run_child(argv, work, logs / f"{cmd.key}.err")
        res.peak_rss_mb = max(res.peak_rss_mb, rss)
        res.commands[cmd.key] = {"exit": code}
    res.wall_s = time.perf_counter() - t_pass
    for cmd in commands:
        info = res.commands[cmd.key]
        info["traceback"] = b"Traceback" in (logs / f"{cmd.key}.err").read_bytes()
        files = sorted(p for p in cmd.out.glob("*") if p.is_file()) if cmd.out.is_dir() else []
        info["hashes"] = {p.name: _sha256(p) for p in files}
        info["bytes"] = sum(p.stat().st_size for p in files)
        info["failing"] = failing_checks(cmd.out)
    return res


def failing_checks(out: Path) -> list:
    names = []
    for report in sorted(out.glob("*_report.json")):
        names += [c["name"] for c in _load_json(report).get("checks", []) if not c["passed"]]
    return names


# ---------------------------------------------------------------------------
# reference snapshot and result drift


def _numeric_rows(path: Path):
    """Numeric rows of a CSV (after its header) or the vertex rows of an OBJ."""
    obj = path.suffix == ".obj"
    with open(path) as fh:
        if not obj:
            next(fh)
        for line in fh:
            if obj:
                if not line.startswith("v "):
                    return
                line = line[2:].replace(" ", ",")
            yield line


def _sampled_rows(path: Path, stride: int) -> list:
    return [[float(x) for x in line.split(",")]
            for n, line in enumerate(_numeric_rows(path)) if n % stride == 0]


def snapshot(out: Path) -> dict:
    """The reference record of one command's output directory."""
    snap = {"hashes": {p.name: _sha256(p) for p in sorted(out.glob("*")) if p.is_file()},
            "samples": {}, "residuals": {}}
    for path in sorted(out.glob("*")):
        if path.suffix in (".csv", ".obj"):
            stride = max(1, sum(1 for _ in _numeric_rows(path)) // SAMPLES)
            snap["samples"][path.name] = {"stride": stride,
                                          "rows": _sampled_rows(path, stride)}
        elif path.name == "verify_report.json":
            for chk in _load_json(path)["checks"]:
                if "residuals" in chk.get("details", {}):
                    snap["residuals"][chk["name"]] = chk["details"]["residuals"]
    return snap


def _normwise(values: list, ref: list, floor: float = 0.0) -> float:
    """max |x - r| / max(max |r|, floor) over one column or ladder."""
    if len(values) != len(ref):
        return float("inf")
    scale = max(max(abs(r) for r in ref), floor)
    dev = max(abs(x - r) for x, r in zip(values, ref))
    return dev / scale if scale > 0 else (0.0 if dev == 0 else float("inf"))


def drift(out: Path, hashes: dict, ref: dict) -> float:
    """Largest relative deviation of one command's outputs (with their
    sha256 `hashes`) from the reference."""
    worst = 0.0
    if set(hashes) != set(ref["hashes"]):
        return float("inf")
    for name, sample in ref["samples"].items():
        if hashes[name] == ref["hashes"][name]:
            continue
        rows = _sampled_rows(out / name, sample["stride"])
        if len(rows) != len(sample["rows"]) or any(len(r) != len(s) for r, s in
                                                  zip(rows, sample["rows"])):
            return float("inf")
        for col in range(len(rows[0]) if rows else 0):
            worst = max(worst, _normwise([r[col] for r in rows],
                                         [s[col] for s in sample["rows"]]))
    if ref["residuals"]:
        report = _load_json(out / "verify_report.json")
        got = {c["name"]: c.get("details", {}).get("residuals") for c in report["checks"]}
        for name, ladder in ref["residuals"].items():
            if got.get(name) is None:
                return float("inf")
            worst = max(worst, _normwise(got[name], ladder, DRIFT_FLOOR))
    return worst


# ---------------------------------------------------------------------------
# one run of one workload


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "bonnet" / "cli.py").is_file():
        raise BenchError(f"no bonnet sources under {SRC}")
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands, configs = make_inputs(workload, seed, work)
    reference = _load_json(REFERENCE)[workload] if REFERENCE.is_file() else None

    measure_setup(configs, work, 1)   # fills the bytecode cache; not counted
    # setup samples are spread over the run, between passes, so that they
    # see the same machine as the passes do
    setup_times, passes, drifts = [], [], []
    ops_failed = attempted = 0
    bad_checks = set()
    first_hashes = None
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        setup_times += measure_setup(configs, work, SETUP_PER_PASS)
        res = run_pass(commands, work, traced)
        if traced:
            res.layer, res.edges = summarize(res.trace_files)
        for cmd in commands:
            info = res.commands[cmd.key]
            attempted += 1
            miss = info["exit"] not in (0, 1) or info["traceback"]
            if first_hashes is not None and info["hashes"] != first_hashes[cmd.key]:
                miss = True
            expected = set(reference[cmd.key]["failing"]) if reference else set()
            bad_checks |= {(cmd.key, n) for n in info["failing"] if n not in expected}
            if seed == 0 and reference and not passes:
                d = drift(cmd.out, info["hashes"], reference[cmd.key])
                drifts.append(d)
                miss = miss or not d <= DRIFT_BOUND
            ops_failed += bool(miss)
        if first_hashes is None:
            first_hashes = {k: v["hashes"] for k, v in res.commands.items()}
        passes.append(res)
        for cmd in commands:
            shutil.rmtree(cmd.out, ignore_errors=True)
        elapsed = time.perf_counter() - t_start
        enough = elapsed >= seconds and (not trace or len(passes) >= 2)
        if enough or elapsed >= RUN_DEADLINE_S:
            break

    plain = [p for p in passes if not p.traced]
    first = passes[0]
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "attempted": attempted,
        "ops_failed": ops_failed,
        "unexpected_failing_checks": sorted(f"{k}:{n}" for k, n in bad_checks),
        "wall_s": _median([p.wall_s for p in plain]),
        "wall_samples": [p.wall_s for p in plain],
        "setup_s": _median(setup_times),
        "setup_samples": len(setup_times),
        "peak_rss_mb": _median([p.peak_rss_mb for p in plain]),
        "checks_failed": sum(len(c["failing"]) for c in first.commands.values()),
        "failing": {k: c["failing"] for k, c in first.commands.items() if c["failing"]},
        "result_drift": max(drifts) if drifts else None,
        "output_bytes": sum(c["bytes"] for c in first.commands.values()),
    }
    if trace:
        traced = [p for p in passes if p.traced]
        layer = {}
        for name in traced[0].layer:
            vals = [p.layer[name] for p in traced]
            layer[name] = vals[0] if isinstance(vals[0], int) else _median(vals)
        layer["cli.output_bytes"] = result["output_bytes"]
        layer["trace.overhead_s"] = _median([p.wall_s for p in traced]) - result["wall_s"]
        result["layer"] = layer
        result["counts_repeat"] = all(
            p.layer[n] == traced[0].layer[n] for p in traced for n in layer
            if isinstance(traced[0].layer.get(n), int))
        result["edges_repeat"] = all(p.edges == traced[0].edges for p in traced)
    shutil.rmtree(work / "out", ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# output


def contract_line(result: dict, trace: bool) -> dict:
    spec = _load_json(ROOT / "BENCHMARK.json")
    if trace:
        metrics = {m["name"]: {"value": result["layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = (result["ops_failed"] == 0 and not result["unexpected_failing_checks"]
               and result.get("counts_repeat", True) and result.get("edges_repeat", True))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["ops_failed"], "metrics": metrics}


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']}  commands {result['attempted']}")
    walls = sorted(result["wall_samples"])
    print(f"  wall_s        {result['wall_s']:.4f} {UNITS['wall_s']}"
          f"  (median; min {walls[0]:.4f}, max {walls[-1]:.4f})")
    print(f"  setup_s       {result['setup_s']:.4f} {UNITS['setup_s']}"
          f"  (median of {result['setup_samples']} fresh processes)")
    print(f"  peak_rss_mb   {result['peak_rss_mb']:.1f} {UNITS['peak_rss_mb']}")
    failing = "; ".join(f"{k}: {', '.join(v)}" for k, v in result["failing"].items())
    print(f"  checks_failed {result['checks_failed']} {UNITS['checks_failed']}"
          + (f"  ({failing})" if failing else ""))
    print(f"  ops_failed    {result['ops_failed']} {UNITS['ops_failed']}")
    d = result["result_drift"]
    print(f"  result_drift  {'n/a (seed is not 0)' if d is None else f'{d:.3e}'}"
          f" {UNITS['result_drift']}")
    if result["unexpected_failing_checks"]:
        print("  checks failing beyond the seed record: "
              + ", ".join(result["unexpected_failing_checks"]))
    for name, value in result.get("layer", {}).items():
        print(f"  {name:34s} {value}")


def record(seconds: float) -> None:
    """Rewrite reference.json and seed_counts.json from seed-0 runs."""
    ref, counts = {}, {}
    for workload in WORKLOADS:
        work = WORK / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        commands, _ = make_inputs(workload, 0, work)
        run_pass(commands, work, traced=False)
        ref[workload] = {}
        for cmd in commands:
            ref[workload][cmd.key] = dict(snapshot(cmd.out), failing=failing_checks(cmd.out))
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    for workload in WORKLOADS:
        res = run_workload(workload, 0, seconds, trace=True)
        counts[workload] = {k: v for k, v in res["layer"].items() if isinstance(v, int)}
    with open(SEED_COUNTS, "w") as fh:
        json.dump(counts, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the seed reference snapshot and counts, then exit")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record(args.seconds)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_table(result)
            lines[name] = contract_line(result, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(lines, sort_keys=True))
    else:
        print(json.dumps(lines[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
