#!/usr/bin/env python3
"""The AncstrGNN-rs benchmark: three seeded workloads through the shipped
`ancstr` binary, plus a traced in-process run for per-layer numbers.

    python3 perfbench/run.py --workload fit-suite|stress-100k|serve-mixed
                             --seed N --seconds S --trace 0|1

Run from the repository root. The script builds `ancstr` and the
benchmark's helper (`perfbench/harness`) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), writes its scratch files
under `.bench_out/`, and prints, as its last line, one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

Workloads (set-up is repeated from scratch, at least SETUP_REPS times
and for SETUP_MIN_S, and timed each time; a new unit of work starts
while fewer than --seconds have passed):

* fit-suite: `ancstr extract adcN.sp --seed S` over ADC1-ADC5 in turn
  (train on the design, then extract), pass after pass.
* stress-100k: `ancstr extract corpus.sp --model M` on the
  `ancstr corpus --devices 100000 --seed S` netlist, again and again; M
  is trained in set-up by `ancstr train --seed S` on the Table IV blocks
  (`block_benchmarks(S)`), so the corpus is unseen.
* serve-mixed: `ancstr serve --model M --port 0` with default flags, two
  closed-loop clients POSTing `/v1/extract`. Each client walks rounds
  over the 20 base netlists (ADC1-ADC5 and the 15 blocks), one whole
  round after another until --seconds have passed: every new body (a
  base made unique by a comment line, so it misses the cache) is
  followed by an exact repeat of one of that client's recent bodies,
  drawn by the seed (a cache hit). One client's warm-up round over the
  bases precedes the measured window.

Every spawned `ancstr` runs with its default thread count and backend,
with every `ANCSTR_*` variable removed from its environment. Outputs are
checked: CLI runs must exit 0, their constraints must parse back with
`read_constraints` and be byte-identical across the runs of a set, and
every served reply must equal the one-shot `ancstr extract --model`
reference for its base netlist. A wrong output, a non-200 or a timeout
counts as failed and is never timed.

With `--trace 0` the metrics are the end-to-end ones (END_TO_END:
set-up cost, steal-free wall time and CPU time of the unit of work, and
peak RSS). With
`--trace 1` the run sets up once, runs the workload's CLI work once
untraced, repeats it in-process through the helper (one span per
library call; see `perfbench/harness`), and drives a daemon on the
workload's netlists; it reports the per-layer metrics (PER_LAYER). Each
run also prints, on the line before the result, a report with the host
record, input hashes and every figure measured, and keeps it in
`.bench_out/<workload>-seed<S>-trace<T>/`.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit-suite", "stress-100k", "serve-mixed")
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPS), so a cheap set-up is timed often
# enough for a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
STRESS_DEVICES = 100_000
CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0
# A repeat re-sends one of the client's last REPEAT_WINDOW new bodies,
# well inside the daemon's default 256-entry result cache.
REPEAT_WINDOW = 32
# Hot repeats per base netlist in the traced run's serve probe.
PROBE_REPEATS = 3
# The traced serve-mixed run drives the mix for this share of --seconds.
TRACE_SERVE_SHARE = 0.4
# A seed no tuning used; later claims must also hold on it.
HELD_OUT_SEED = 20261017

# End-to-end metrics: name -> (unit, better). Every workload reports
# every one. On a small shared VM the hypervisor takes 0-36% of the CPU
# from a run and moves raw wall times by 20-30% between sets of runs,
# so the wall metric takes the stolen share out (`benchlib.steal_free`,
# from the host's busy and steal counters over each timed interval).
# CPU times need no such step: taking the same share out of them made
# them spread more, not less. Raw wall times are in each report.
#
# * `setup_s`: median cost in seconds of one set-up: the `ancstr`
#   processes' CPU time (model training, corpus, references, daemon
#   start until `listening on`) plus the library's input generation,
#   timed inside the helper.
# * `op_wall_ms`: steal-free wall milliseconds of the workload's unit of
#   work, the median over units: fit-suite, one pass over ADC1-ADC5;
#   stress-100k, one extract of the corpus; serve-mixed, one client's
#   round of 40 requests while the other client runs its own. It is the
#   metric that sees parallelism won or lost (par regions, kernel
#   threads against the daemon's worker pool, batching).
# * `op_cpu_ms`: CPU milliseconds (user + sys, all threads) of the
#   same unit: the median per pass or extract, and for
#   serve-mixed the daemon's CPU over the measured window divided by
#   the client rounds.
# * `peak_rss_mb`: the peak RSS of a unit's largest CLI run, the median
#   over units (one run in about 25 peaks 8% higher on the corpus; all
#   unit peaks are in the report), or for serve-mixed the daemon's after
#   a one-client warm-up round over the 20 bases (its peak under the two
#   concurrent clients moves by tens of percent from run to run and is
#   in the report).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_wall_ms": ("ms", "lower"),
    "op_cpu_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics of the traced run: name -> (unit, better, the
# end-to-end metric it should move, on which workload).
PER_LAYER = {
    "netlist.parse_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on serve-mixed"),
    "netlist.elaborate_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k"),
    "graph.build_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k"),
    "graph.edges": ("count", "lower", "op_wall_ms, op_cpu_ms, peak_rss_mb on stress-100k"),
    "gnn.tensors_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k"),
    "gnn.adj_nnz": ("count", "lower", "op_wall_ms, op_cpu_ms, peak_rss_mb on stress-100k"),
    "gnn.train_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on fit-suite"),
    "gnn.epoch_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on fit-suite"),
    "gnn.forward_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on fit-suite"),
    "gnn.loss_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on fit-suite"),
    "gnn.backward_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on fit-suite"),
    "nn.adam_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on fit-suite"),
    "gnn.step_sum_vs_train_pct": ("%", "higher", "none: per-step spans x steps against gnn.train_ms"),
    "gnn.embed_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k"),
    "gnn.embed_batch_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on serve-mixed"),
    "core.features_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k"),
    "core.embed_blocks_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k and serve-mixed"),
    "core.pairs_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k and serve-mixed"),
    "core.pairs": ("count", "lower", "op_wall_ms, op_cpu_ms on stress-100k and serve-mixed"),
    "core.detect_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k and serve-mixed"),
    "core.detect_score_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k and serve-mixed"),
    "core.detect_pruned_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k if pruned detect ships"),
    "core.export_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on stress-100k"),
    "core.constraints": ("count", "higher", "none: must not move (detect_f1 in the report)"),
    "hier.align_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on serve-mixed"),
    "nn.matmul.calls": ("count", "lower", "op_wall_ms, op_cpu_ms on fit-suite and stress-100k"),
    "nn.matmul.elements": ("count", "lower", "op_wall_ms, op_cpu_ms on fit-suite and stress-100k"),
    "nn.spmm.calls": ("count", "lower", "op_wall_ms, op_cpu_ms on fit-suite and stress-100k"),
    "nn.spmm.elements": ("count", "lower", "op_wall_ms, op_cpu_ms on fit-suite and stress-100k"),
    "nn.axpy.calls": ("count", "lower", "op_wall_ms, op_cpu_ms on fit-suite and stress-100k"),
    "nn.row_norms.calls": ("count", "lower", "op_wall_ms, op_cpu_ms on fit-suite and stress-100k"),
    "par.region.calls": ("count", "lower", "op_wall_ms on stress-100k (may fall), on serve-mixed (may rise)"),
    "par.region.chunks": ("count", "lower", "op_wall_ms on stress-100k (may fall), on serve-mixed (may rise)"),
    "serve.cache_hit_ratio": ("ratio", "higher", "op_wall_ms, op_cpu_ms on serve-mixed"),
    "serve.batch_size_mean": ("count", "higher", "op_wall_ms on serve-mixed (cold tail)"),
    "serve.server_cold_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on serve-mixed"),
    "serve.server_hot_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on serve-mixed (hot p50 in the report)"),
    "serve.wait_ms": ("ms", "lower", "op_wall_ms, op_cpu_ms on serve-mixed (hot p50 in the report)"),
    "serve.rejected": ("count", "lower", "failed/attempted on serve-mixed"),
    "obs.profile_overhead_pct": ("%", "lower", "op_wall_ms, op_cpu_ms on serve-mixed"),
    "unattributed_ms": ("ms", "lower", "none: traced wall time no layer span covers"),
    "trace_overhead_pct": ("%", "lower", "none: traced against untraced CLI time"),
}

# Span names of the traced run that are layer calls, by metric name.
LAYER_SPANS = {
    "netlist.parse_ms": "netlist.parse",
    "netlist.elaborate_ms": "netlist.elaborate",
    "graph.build_ms": "graph.build",
    "gnn.tensors_ms": "gnn.tensors",
    "gnn.train_ms": "gnn.train",
    "gnn.embed_ms": "gnn.embed",
    "gnn.embed_batch_ms": "gnn.embed_batch",
    "core.features_ms": "core.features",
    "core.embed_blocks_ms": "core.embed_blocks",
    "core.pairs_ms": "core.pairs",
    "core.detect_ms": "core.detect",
    "core.detect_pruned_ms": "core.detect_pruned",
    "core.export_ms": "core.export",
    "hier.align_ms": "hier.align",
}
# Per-step training spans, reported as the mean per step.
STEP_SPANS = {
    "gnn.forward_ms": "gnn.forward",
    "gnn.loss_ms": "gnn.loss",
    "gnn.backward_ms": "gnn.backward",
    "nn.adam_ms": "nn.adam",
}
# Spans that hold layer calls without being one.
SCAFFOLD_SPANS = ("tour", "setup", "input", "steps")
# Calls the traced run adds beyond what the CLI does, left out when
# the traced run's time is compared with the untraced one.
EXTRA_SPANS = ("core.embed_blocks.warm-up", "core.embed_blocks", "core.pairs",
               "core.detect_pruned", "hier.align")
KERNEL_COUNTS = {
    "nn.matmul.calls": ("matmul", "calls"),
    "nn.matmul.elements": ("matmul", "elements"),
    "nn.spmm.calls": ("spmm", "calls"),
    "nn.spmm.elements": ("spmm", "elements"),
    "nn.axpy.calls": ("axpy", "calls"),
    "nn.row_norms.calls": ("row_norms", "calls"),
    "par.region.calls": ("par_region", "calls"),
    "par.region.chunks": ("par_region", "elements"),
}


class BenchError(Exception):
    """A failure that leaves no valid result: the run prints none."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        raise BenchError(f"{ROOT} holds no AncstrGNN-rs workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ancstr-bench", "--bin", "ancstr"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(ROOT / "perfbench" / "harness" / "Cargo.toml")],
    ):
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n" + p.stderr[-2000:])
    release = target_dir() / "release"
    return release / "ancstr", release / "perfbench-harness"


def clean_env():
    """The environment for every spawned program: no `ANCSTR_*` switch."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ANCSTR_")}


# --------------------------------------------------------- processes


class Tools:
    """The two built programs, spawned with a clean environment. Their
    output goes to numbered files under `io_dir`, and each child is
    reaped with wait4 so its own peak RSS is known."""

    def __init__(self, ancstr, harness, io_dir):
        self.ancstr = str(ancstr)
        self.harness = str(harness)
        self.env = clean_env()
        self.io_dir = io_dir
        self.spawned = 0
        # CPU seconds (user + sys) of every `ancstr` run so far; the
        # helper's own runs are the benchmark's cost, not the program's.
        self.cpu_s = 0.0

    def run(self, program, args, cwd):
        """Run to completion. Returns (exit code, seconds, peak RSS MB,
        stdout, stderr)."""
        self.spawned += 1
        out_path = self.io_dir / f"{self.spawned}.out"
        err_path = self.io_dir / f"{self.spawned}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen([program, *args], cwd=cwd, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(p.pid, 0)
            seconds = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        if program == self.ancstr:
            self.cpu_s += usage.ru_utime + usage.ru_stime
        return (p.returncode, seconds, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())

    def ancstr_ok(self, args, cwd):
        code, _, _, _, err = self.run(self.ancstr, args, cwd)
        if code != 0:
            raise BenchError(f"ancstr {' '.join(args)} exited {code}: {err.strip()[-500:]}")

    def harness_json(self, args, cwd):
        code, _, _, out, err = self.run(self.harness, args, cwd)
        if code != 0:
            raise BenchError(f"harness {args[0]} exited {code}: {err.strip()[-800:]}")
        return json.loads(out)


def cpu_ticks():
    """(busy, steal) jiffies of all CPUs so far (`benchlib.cpu_ticks`)."""
    return benchlib.cpu_ticks(Path("/proc/stat").read_text())


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest(mapping):
    h = hashlib.sha256()
    for k in sorted(mapping):
        h.update(f"{k}={mapping[k]}\n".encode())
    return h.hexdigest()


# ------------------------------------------------------------ daemon


class Daemon:
    """`ancstr serve --model M --port 0` with its default flags."""

    # Every daemon started, so an aborted run still stops them all.
    started = []

    def __init__(self, tools, model, cwd):
        self.proc = subprocess.Popen(
            [tools.ancstr, "serve", "--model", str(model), "--port", "0", "--quiet"],
            cwd=cwd, env=tools.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        Daemon.started.append(self)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def request(self, method, path, body=None, timeout=REQUEST_TIMEOUT_S):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self):
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return benchlib.parse_prometheus(body.decode())

    def cpu_s(self):
        """CPU seconds (user + sys, all threads) the daemon used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request("POST", "/v1/shutdown", timeout=5)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------- set-up


def adc_names():
    return [f"adc{i}.sp" for i in range(1, 6)]


def block_names():
    return [f"block{j:02d}.sp" for j in range(1, 16)]


def setup_once(tools, workload, seed, d, with_model):
    """Generate inputs, train the model, write references and start the
    daemon as the workload needs. Returns the started daemon or None,
    and the CPU seconds the library took to generate and write the
    inputs (timed inside the helper, without its process start)."""
    d.mkdir(parents=True)
    kinds = {"fit-suite": ["adc"], "stress-100k": ["blocks"], "serve-mixed": ["adc", "blocks"]}
    kinds = list(kinds[workload])
    if with_model and "blocks" not in kinds:
        kinds.append("blocks")
    gen_s = tools.harness_json(["gen", str(seed), str(d), *kinds], d)["gen_s"]
    if workload == "stress-100k":
        tools.ancstr_ok(["corpus", "--devices", str(STRESS_DEVICES), "--seed", str(seed),
                         "-o", "corpus.sp", "--quiet"], d)
    if workload != "fit-suite" or with_model:
        tools.ancstr_ok(["train", *block_names(), "--model-out", "model.txt",
                         "--seed", str(seed), "--quiet"], d)
    if workload == "serve-mixed":
        (d / "ref").mkdir()
        for base in adc_names() + block_names():
            tools.ancstr_ok(["extract", base, "--model", "model.txt",
                             "-o", f"ref/{base[:-3]}.out", "--quiet"], d)
        return Daemon(tools, d / "model.txt", d), gen_s
    return None, gen_s


def input_hashes(d):
    return {p.name: sha256_file(p) for p in sorted(d.glob("*.sp"))}


def setup(tools, workload, seed, out, reps, min_s=0.0, with_model=False):
    """Set up from scratch at least `reps` times and until `min_s` have
    passed; keep the last. Every set-up must write byte-identical inputs.
    Returns (directory, daemon, per-rep wall seconds, per-rep cost in
    seconds: the `ancstr` processes' CPU time plus the input
    generation's)."""
    times, cpu = [], []
    daemon = None
    first = None
    while len(times) < reps or (sum(times) < min_s and len(times) < SETUP_MAX_REPS):
        if daemon is not None:
            daemon.stop()
        d = out / f"setup{len(times)}"
        start = time.perf_counter()
        cpu_start = tools.cpu_s
        daemon, gen_s = setup_once(tools, workload, seed, d, with_model)
        times.append(time.perf_counter() - start)
        cpu.append(gen_s + tools.cpu_s - cpu_start + (daemon.cpu_s() if daemon else 0.0))
        hashes = input_hashes(d)
        if first is None:
            first = hashes
        elif hashes != first:
            if daemon is not None:
                daemon.stop()
            raise BenchError(f"set-up {len(times)} wrote other inputs than set-up 1 for seed {seed}")
    return d, daemon, times, cpu


# ---------------------------------------------------------- CLI loops


def score(tools, d, pairs):
    """Pooled Eq. 6 F1 of constraint files against ground truth; raises
    when a file does not parse back with `read_constraints`."""
    args = ["score"]
    for netlist, constraints in pairs:
        args += [str(netlist), str(constraints)]
    rows = tools.harness_json(args, d)
    tp = sum(r["tp"] for r in rows)
    fp = sum(r["fp"] for r in rows)
    fn = sum(r["fn"] for r in rows)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
    return f1, {"tp": tp, "fp": fp, "fn": fn, "constraints": sum(r["constraints"] for r in rows)}


def cli_loop(tools, d, seconds, ops):
    """Repeat one unit of work, a list of `(name, args)` CLI runs, and
    start a new unit while fewer than `seconds` have passed. Each run
    writes `-o units/<k>/<name>.out`, which must match the first unit's.
    Returns wall times, steal-free wall times (`benchlib.steal_free`,
    taken per run), CPU times and peak RSS (of the unit's largest run)
    of the units whose every run succeeded, and run counts."""
    unit_times, unit_steady, unit_cpu, unit_peak, attempted, failed = [], [], [], [], 0, 0
    first_outputs = {}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        unit_dir = d / "units" / str(k)
        unit_dir.mkdir(parents=True)
        ok = True
        unit_start = time.perf_counter()
        cpu_start = tools.cpu_s
        steady = peak = 0.0
        for name, args in ops:
            out = unit_dir / f"{name}.out"
            ticks = cpu_ticks()
            code, secs, rss, _, err = tools.run(tools.ancstr, [*args, "-o", str(out), "--quiet"], d)
            steady += benchlib.steal_free(secs, ticks, cpu_ticks())
            attempted += 1
            peak = max(peak, rss)
            good = code == 0 and out.is_file()
            if good:
                text = out.read_bytes()
                good = first_outputs.setdefault(name, text) == text
            if not good:
                log(f"run {name} of unit {k} failed (exit {code}): {err.strip()[-300:]}")
                failed += 1
                ok = False
        if ok:
            unit_times.append(time.perf_counter() - unit_start)
            unit_steady.append(steady)
            unit_cpu.append(tools.cpu_s - cpu_start)
            unit_peak.append(peak)
        k += 1
    return {"unit_times": unit_times, "unit_steady": unit_steady, "unit_cpu": unit_cpu,
            "unit_peak": unit_peak, "attempted": attempted, "failed": failed,
            "window_s": time.perf_counter() - start,
            "outputs": first_outputs}


def fit_ops(seed):
    return [(n[:-3], ["extract", n, "--seed", str(seed)]) for n in adc_names()]


def stress_ops():
    return [("corpus", ["extract", "corpus.sp", "--model", "model.txt"])]


def measure_cli(tools, workload, seed, seconds, d):
    ops = fit_ops(seed) if workload == "fit-suite" else stress_ops()
    r = cli_loop(tools, d, seconds, ops)
    # Outputs are byte-identical across units (checked above), so one
    # copy of each stands for all of them.
    kept = d / "outputs"
    kept.mkdir()
    pairs = []
    for name, text in r["outputs"].items():
        (kept / f"{name}.out").write_bytes(text)
        pairs.append((d / f"{name}.sp", kept / f"{name}.out"))
    # Constraints that do not parse back fail every run: no result.
    f1, confusion = score(tools, d, pairs)
    hashes = {name: hashlib.sha256(text).hexdigest() for name, text in r["outputs"].items()}
    if not r["unit_times"]:
        raise BenchError("no unit of work succeeded")
    n_units = len(r["unit_times"])
    report = {
        ("suite_s" if workload == "fit-suite" else "stress_s"): benchlib.timing_summary(r["unit_times"]),
        "unit_s": r["unit_times"],
        "unit_steady_s": r["unit_steady"],
        "unit_cpu_s": r["unit_cpu"],
        "runs_per_s": (r["attempted"] - r["failed"]) / r["window_s"],
        "unit_peak_rss_mb": r["unit_peak"],
        "units": n_units,
        "detect_f1": f1,
        "confusion": confusion,
        "constraint_hashes": hashes,
    }
    metrics = {
        "op_wall_ms": benchlib.median(r["unit_steady"]) * 1e3,
        "op_cpu_ms": benchlib.median(r["unit_cpu"]) * 1e3,
        "peak_rss_mb": benchlib.median(r["unit_peak"]),
    }
    return metrics, report, r["attempted"], r["failed"]


# ------------------------------------------------------------ serving


class Client(threading.Thread):
    """One closed-loop client: sends its next request only after the
    reply to the previous one arrived."""

    def __init__(self, daemon, idx, seed, bases, refs, deadline):
        super().__init__(daemon=True)
        self.daemon_ = daemon
        self.idx = idx
        self.rng = random.Random(f"{seed}/client{idx}")
        self.bases = bases
        self.refs = refs
        self.deadline = deadline
        self.samples = []  # (kind, base, ok, seconds, cached flag, status)
        # (wall, steal-free wall) seconds of each round whose every reply
        # was right.
        self.rounds = []
        self.rounds_run = 0

    def send(self, kind, base, body):
        start = time.perf_counter()
        ok, cached, status = False, None, None
        try:
            status, payload = self.daemon_.request("POST", "/v1/extract", body)
            if status == 200:
                reply = json.loads(payload)
                cached = reply.get("cached")
                ok = reply.get("constraints_text") == self.refs[base]
        except (OSError, ValueError):
            pass
        self.samples.append((kind, base, ok, time.perf_counter() - start, cached, status))

    def run(self):
        """Whole rounds until the deadline. A round walks
        `round_order(client)`; every new body is followed by a
        repeat of one of the client's recent bodies, drawn from the
        seeded generator. Stopping only between rounds, and the fixed
        order, keep the mix and the way the two clients' requests
        overlap the same whatever the timing and the seed."""
        recent = []
        n = 0
        order = round_order(self.idx)
        while time.perf_counter() < self.deadline:
            ticks = cpu_ticks()
            start = time.perf_counter()
            first = len(self.samples)
            for base in order:
                self.send("cold", base, self.body(base, n))
                recent.append((base, self.body(base, n)))
                n += 1
                del recent[:-REPEAT_WINDOW]
                self.send("hot", *self.rng.choice(recent))
            self.rounds_run += 1
            if all(s[2] for s in self.samples[first:]):
                wall = time.perf_counter() - start
                self.rounds.append((wall, benchlib.steal_free(wall, ticks, cpu_ticks())))

    def body(self, base, n):
        """Base netlist `base` made unique by a comment line."""
        return self.bases[base] + f"* perfbench client {self.idx} body {n}\n".encode()


def round_order(client):
    """ADC1-ADC5 spread evenly among the 15 blocks; client k starts the
    round k half-rounds in, so the big netlists of the two clients are
    not requested in step."""
    blocks = [n[:-3] for n in block_names()]
    order = []
    for i, adc in enumerate(n[:-3] for n in adc_names()):
        order += [adc] + blocks[3 * i:3 * i + 3]
    shift = (len(order) // CLIENTS) * client
    return order[shift:] + order[:shift]


def drive(daemon, seed, bases, refs, seconds):
    """Two closed-loop clients for `seconds`, in whole rounds. Returns the
    request samples, the times of the rounds that succeeded, the window,
    the `/metrics` deltas and the daemon's CPU seconds per round run."""
    before = daemon.metrics()
    cpu_before = daemon.cpu_s()
    start = time.perf_counter()
    workers = [Client(daemon, i, seed, bases, refs, start + seconds) for i in range(CLIENTS)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    window = time.perf_counter() - start
    cpu_per_round = (daemon.cpu_s() - cpu_before) / sum(w.rounds_run for w in workers)
    after = daemon.metrics()
    samples = [s for w in workers for s in w.samples]
    rounds = [r for w in workers for r in w.rounds]
    return samples, rounds, window, benchlib.delta(before, after), cpu_per_round


def warm_up(daemon, bases, refs):
    """One client, one new body per base, one request at a time: fills
    the daemon's lazily built state before the measured window. Returns
    the samples and the daemon's peak RSS after them."""
    client = Client(daemon, "warm-up", 0, bases, refs, 0.0)
    for n, base in enumerate(round_order(0)):
        client.send("cold", base, client.body(base, n))
    return client.samples, daemon.peak_rss_mb()


def serve_layer(samples, d):
    """Per-layer serve figures from client samples and `/metrics` deltas."""
    hits = benchlib.counter_total(d, "ancstr_serve_cache_hits_total")
    misses = benchlib.counter_total(d, "ancstr_serve_cache_misses_total")
    batches = benchlib.counter_total(d, "ancstr_serve_batches_total")
    batched = benchlib.counter_total(d, "ancstr_serve_batched_requests_total")
    by_cache = benchlib.histogram_by_label(d, "ancstr_serve_request_duration_seconds", "cache",
                                           route="/v1/extract")

    def mean_ms(label):
        s, c = by_cache.get(label, (0.0, 0.0))
        return s / c * 1e3 if c else 0.0

    server_sum = sum(s for s, _ in by_cache.values())
    server_count = sum(c for _, c in by_cache.values())
    client_ms = [s[3] * 1e3 for s in samples]
    wait_ms = (sum(client_ms) / len(client_ms) - server_sum / server_count * 1e3) \
        if client_ms and server_count else 0.0
    return {
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.batch_size_mean": batched / batches if batches else 0.0,
        "serve.server_cold_ms": mean_ms("miss"),
        "serve.server_hot_ms": mean_ms("hit"),
        "serve.wait_ms": wait_ms,
        "serve.rejected": sum(1 for s in samples if s[5] in (429, 503)),
    }


def load_refs(d, names):
    """Base netlist bytes and their reference constraint text, by stem."""
    bases = {n[:-3]: (d / n).read_bytes() for n in names}
    refs = {n[:-3]: (d / "ref" / f"{n[:-3]}.out").read_text() for n in names}
    return bases, refs


def measure_serve(tools, seed, seconds, d, daemon):
    bases, refs = load_refs(d, adc_names() + block_names())
    warm, warm_peak = warm_up(daemon, bases, refs)
    samples, rounds, window, deltas, cpu_per_round = drive(daemon, seed, bases, refs, seconds)
    peak = daemon.peak_rss_mb()
    daemon.stop()
    if not rounds:
        raise BenchError("no round of requests succeeded")
    samples_all = warm + samples
    ok = [s for s in samples if s[2]]
    cold = [s[3] * 1e3 for s in ok if s[0] == "cold"]
    hot = [s[3] * 1e3 for s in ok if s[0] == "hot"]
    if not cold or not hot:
        raise BenchError("no successful cold or hot request")
    f1, confusion = score(tools, d, [(d / f"{b}.sp", d / "ref" / f"{b}.out") for b in sorted(bases)])
    report = {
        "serve_rps": len(ok) / window,
        "round_ms": benchlib.timing_summary([r[0] * 1e3 for r in rounds]),
        "round_steady_ms": benchlib.timing_summary([r[1] * 1e3 for r in rounds]),
        "peak_rss_mb_warm_up": warm_peak,
        "peak_rss_mb_window": peak,
        "serve_cold_ms": benchlib.timing_summary(cold),
        "serve_hot_ms": benchlib.timing_summary(hot),
        "cold_answered_from_cache": sum(1 for s in ok if s[0] == "cold" and s[4]),
        "hot_recomputed": sum(1 for s in ok if s[0] == "hot" and not s[4]),
        "detect_f1": f1,
        "confusion": confusion,
        "constraint_hashes": {b: hashlib.sha256(t.encode()).hexdigest() for b, t in refs.items()},
        "layer": serve_layer(samples, deltas),
    }
    metrics = {
        "op_wall_ms": benchlib.median([r[1] for r in rounds]) * 1e3,
        "op_cpu_ms": cpu_per_round * 1e3,
        "peak_rss_mb": warm_peak,
    }
    failed = sum(1 for s in samples_all if not s[2])
    return metrics, report, len(samples_all), failed


# ------------------------------------------------------------- traced


def serve_probe(tools, d, bases, refs):
    """A short closed loop of one client against a fresh daemon: each
    base netlist once (a cache miss), then PROBE_REPEATS exact repeats."""
    daemon = Daemon(tools, d / "model.txt", d)
    try:
        before = daemon.metrics()
        client = Client(daemon, "probe", 0, bases, refs, 0.0)
        for base in sorted(bases):
            for kind in ["cold"] + ["hot"] * PROBE_REPEATS:
                client.send(kind, base, bases[base])
        deltas = benchlib.delta(before, daemon.metrics())
    finally:
        daemon.stop()
    return client.samples, deltas


def traced(tools, workload, seed, seconds, out):
    d, daemon, _, _ = setup(tools, workload, seed, out, 1, with_model=True)
    if daemon is not None:
        daemon.stop()
    attempted = failed = 0
    # The untraced reference: the CLI runs the traced tour repeats.
    if workload == "fit-suite":
        inputs = adc_names()
        ops = fit_ops(seed)
    elif workload == "stress-100k":
        inputs = ["corpus.sp"]
        ops = stress_ops()
    else:
        inputs = adc_names() + block_names()
        ops = [(n[:-3], ["extract", n, "--model", "model.txt"]) for n in inputs]
    cli_dir = d / "cli"
    cli_dir.mkdir()
    untraced_s = 0.0
    for name, args in ops:
        code, secs, _, _, err = tools.run(
            tools.ancstr, [*args, "-o", str(cli_dir / f"{name}.out"), "--quiet"], d)
        attempted += 1
        if code != 0:
            raise BenchError(f"ancstr {' '.join(args)} exited {code}: {err[-300:]}")
        untraced_s += secs

    tdir = d / "traced"
    tdir.mkdir()
    args = ["trace", "--seed", str(seed), "--model", "model.txt",
            "--spans", str(out / "spans.jsonl"), "--out", str(tdir)]
    if workload == "fit-suite":
        args.append("--fit")
    else:
        args += ["--train", ",".join(block_names())]
    summary = tools.harness_json(args + inputs, d)
    for name, _ in ops:
        attempted += 1
        if (cli_dir / f"{name}.out").read_bytes() != (tdir / f"{name}.out").read_bytes():
            log(f"traced output of {name} differs from the CLI's")
            failed += 1
    spans = [json.loads(line) for line in (out / "spans.jsonl").read_text().splitlines()]
    layer = layer_metrics(spans, summary, untraced_s)

    if workload == "serve-mixed":
        bases, refs = load_refs(d, adc_names() + block_names())
        daemon = Daemon(tools, d / "model.txt", d)
        try:
            samples, _, _, deltas, _ = drive(daemon, seed, bases, refs,
                                             seconds * TRACE_SERVE_SHARE)
        finally:
            daemon.stop()
    else:
        # The corpus is too large for a request under the daemon's
        # always-on kernel counters; stress probes with its set-up
        # netlists instead.
        names = adc_names() if workload == "fit-suite" else block_names()
        (d / "ref").mkdir(exist_ok=True)
        for n in names:
            tools.ancstr_ok(["extract", n, "--model", "model.txt", "-o", f"ref/{n[:-3]}.out",
                             "--quiet"], d)
        bases, refs = load_refs(d, names)
        samples, deltas = serve_probe(tools, d, bases, refs)
    attempted += len(samples)
    failed += sum(1 for s in samples if not s[2])
    layer.update(serve_layer(samples, deltas))
    return layer, {"summary": summary, "untraced_s": untraced_s}, attempted, failed


def layer_metrics(spans, summary, untraced_s):
    st = benchlib.self_times(spans)

    def self_ms(name):
        return st.get(name, (0, 0))[0] / 1e6

    def calls(name):
        return st.get(name, (0, 0))[1]

    m = {metric: self_ms(span) for metric, span in LAYER_SPANS.items()}
    steps = calls("gnn.forward")
    for metric, span in STEP_SPANS.items():
        m[metric] = self_ms(span) / steps if steps else 0.0
    step_ms = sum(m[k] for k in STEP_SPANS)
    m["gnn.epoch_ms"] = m["gnn.train_ms"] / summary["train_epochs"]
    m["gnn.step_sum_vs_train_pct"] = 100.0 * step_ms * summary["train_steps"] / m["gnn.train_ms"]
    m["core.detect_score_ms"] = m["core.detect_ms"] - m["core.embed_blocks_ms"] - m["core.pairs_ms"]
    m["graph.edges"] = summary["graph_edges"]
    m["gnn.adj_nnz"] = summary["adj_nnz"]
    m["core.pairs"] = summary["pairs"]
    m["core.constraints"] = summary["constraints"]
    for metric, (kernel, field) in KERNEL_COUNTS.items():
        m[metric] = summary["kernels"][kernel][field]
    m["unattributed_ms"] = sum(self_ms(s) for s in SCAFFOLD_SPANS)
    # The traced counterpart of the untraced CLI runs: every input's
    # span, less the calls only the traced run makes.
    by_id = {s["id"]: s for s in spans}

    def under_input(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == "input":
                return True
            p = by_id[p]["parent"]
        return False

    inputs_ns = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "input")
    extra_ns = sum(s["end_ns"] - s["start_ns"] for s in spans
                   if s["name"] in EXTRA_SPANS and under_input(s))
    traced_s = (inputs_ns - extra_ns) / 1e9
    m["trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    off, on = summary["profile_off_ms"], summary["profile_on_ms"]
    m["obs.profile_overhead_pct"] = 100.0 * (on - off) / off
    return m


# --------------------------------------------------------------- host


def host_record(tools):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    sources = {}
    for pattern in ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                    "vendor/**/*.rs", "perfbench/**/*.rs", "perfbench/*.py"):
        for p in ROOT.glob(pattern):
            sources[str(p.relative_to(ROOT))] = sha256_file(p)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compute": tools.harness_json(["host"], ROOT),
        "rustc": rustc,
        "git_revision": git.stdout.strip() if git.returncode == 0 else None,
        "source_digest": digest(sources),
        "clients": CLIENTS,
        "held_out_seed": HELD_OUT_SEED,
    }


# --------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    ancstr, harness = build()
    out = ROOT / ".bench_out" / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "io").mkdir(parents=True)
    tools = Tools(ancstr, harness, out / "io")
    report = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "host": host_record(tools)}

    ticks = cpu_ticks()
    if a.trace:
        metrics, extra, attempted, failed = traced(tools, a.workload, a.seed, a.seconds, out)
        report.update(extra)
        report["layer_moves"] = {k: v[2] for k, v in PER_LAYER.items()}
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        d, daemon, setup_wall, setup_cpu = setup(tools, a.workload, a.seed, out, SETUP_REPS,
                                                 SETUP_MIN_S)
        report["setup_wall_s"] = setup_wall
        report["setup_cpu_s"] = setup_cpu
        report["input_hashes"] = input_hashes(d)
        report["input_digest"] = digest(report["input_hashes"])
        if a.workload == "serve-mixed":
            metrics, extra, attempted, failed = measure_serve(tools, a.seed, a.seconds, d, daemon)
        else:
            metrics, extra, attempted, failed = measure_cli(tools, a.workload, a.seed, a.seconds, d)
        metrics["setup_s"] = benchlib.median(setup_cpu)
        report.update(extra)
        units = {k: v[0] for k, v in END_TO_END.items()}
    report["host_steal_pct"] = 100.0 * benchlib.steal_share(ticks, cpu_ticks())
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} missing or unexpected")
    report["error_rate"] = failed / attempted
    print(json.dumps(report, sort_keys=True))
    (out / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    # Keep the report and the spans; drop the bulky inputs and outputs.
    for p in out.iterdir():
        if p.is_dir():
            shutil.rmtree(p)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    finally:
        for daemon in Daemon.started:
            daemon.stop()
