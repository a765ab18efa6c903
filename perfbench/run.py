#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adc-fit --seed 1 --seconds 25 --trace 0

It builds the `ancstr` binary and this benchmark's helper from source,
makes the workload's inputs from the seed, drives `ancstr` through its
user interfaces (`extract`, `train`, `corpus`, `stats`, and `serve` over
HTTP), checks every output, and prints one JSON result as the last line
of stdout. `--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` reports the per-layer metrics from a separate traced run.
See perfbench/README.md for the workloads, the metrics and the
layer-to-end-to-end map.

Other modes:
    --smoke                  every workload at both trace levels on small
                             inputs; checks each metric name and unit
    --out FILE               also write the result with its fingerprints
    --compare OLD NEW        compare two `--out` files of one workload
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("adc-fit", "stress-100k", "serve-mix")
# Later claims must also hold on this seed; do not tune against it.
HELD_OUT_SEED = 9001
STRESS_DEVICES = 100_000
SETUP_REPS = 3
# adc-fit's set-up (`ancstr stats` on the five inputs) takes ~25 ms, so it
# is repeated more often than a training set-up for a steady median.
STATS_SETUP_REPS = 15
# Serve mix: the largest body (ADC5) has weight 2, so a deck is 105
# requests, 84 hot and 21 cold (80/20). With 21 cold requests per deck
# the median miss falls mid-way through one body's misses and p99 falls
# mid-way through ADC5's misses, instead of on the edge between two
# bodies, where it would jump between them from run to run.
SERVE_WEIGHTS = {"ADC5": 2}
# One closed-loop connection. With two, a small body's miss either runs
# alone or waits behind an ADC4/ADC5 miss on the other connection, so the
# median miss sat between those two modes (IQR/median 0.50 over four runs
# of one build) and no bound could hold it.
CONNECTIONS = 1
# With one connection the daemon never holds two requests at once, so the
# batcher always runs singleton passes. The traced run adds a short
# untimed window with three connections and takes `serve.batch_size_mean`
# from it. Three is the fewest that fuse: when a leader finishes, the
# batcher wakes its queued follower at once, so with two connections that
# follower always leads a pass of one (batch_size_mean read exactly 1.0).
BATCH_CONNECTIONS = 3
BATCH_WINDOW_S = 4.0
# The Table IV blocks are made at the paper experiments' fixed seed, not
# the workload seed: seeding them changed the trained model, and with it
# serve-mix FPR by 0.37 IQR/median over five seeds.
BLOCK_SEED = 20210705
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw", "avx512vl",
             "avx512_vnni", "amx_tile", "sha_ni", "aes")


class BenchError(Exception):
    """The benchmark itself cannot run (no result is printed)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Run:
    """One benchmark run: build products, work directory, op accounting."""

    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.work = os.path.join(self.root, ".bench_work", f"{args.workload}-{os.getpid()}")
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(self.root, target)
        self.ancstr = os.path.join(self.target, "release", "ancstr")
        self.helper_bin = os.path.join(self.target, "release", "perfbench-helper")
        self.attempted = 0
        self.failed = 0
        self.output_hashes = set()
        self.detail = {}
        self.children = []

    # -- accounting -------------------------------------------------------

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok

    def same_output(self, got, want, what):
        """Output gate: every output must equal the reference bytes."""
        return self.op(got == want, f"output differs from the reference: {what}")

    # -- processes --------------------------------------------------------

    def build(self):
        if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
            raise BenchError("run from the repository root (no Cargo workspace here)")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "ancstr-bench",
                     "--bin", "ancstr"],
                    ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                     os.path.join("perfbench", "Cargo.toml")]):
            if subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=1500).returncode:
                raise BenchError(f"build failed: {' '.join(cmd)}")

    def cli(self, args, stdout=None):
        """Run `ancstr` to completion: (wall seconds, peak RSS MB, ok)."""
        with open(os.path.join(self.work, "ancstr.log"), "ab") as err:
            out = open(stdout, "wb") if stdout else subprocess.DEVNULL
            try:
                start = time.perf_counter()
                proc = subprocess.Popen([self.ancstr] + args, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if stdout:
                    out.close()
        ok = self.op(proc.returncode == 0, f"ancstr {' '.join(args)} exited {proc.returncode}")
        return wall, usage.ru_maxrss / 1024.0, ok

    def helper(self, *args):
        proc = subprocess.run([self.helper_bin] + [str(a) for a in args], capture_output=True,
                              timeout=170)
        if proc.returncode:
            raise BenchError(f"helper {args[0]} failed: {proc.stderr.decode().strip()}")
        return json.loads(proc.stdout)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    # -- shared workload pieces ------------------------------------------

    def fingerprint_inputs(self, inputs, **extra):
        desc = self.helper("describe", *inputs)
        self.detail["workload"] = {
            "name": self.args.workload, "seed": self.args.seed,
            "config_hash": desc["config_hash"], "epochs": desc["epochs"],
            "inputs": desc["inputs"], "corpus_sha256": sha256_files(inputs), **extra,
        }

    def quality(self, pairs):
        """Mean system TPR, device F1 and all-pairs FPR over (netlist,
        constraints) pairs, scored against the generators' annotations."""
        tpr, f1, fpr = [], [], []
        for netlist, constraints in pairs:
            q = self.helper("quality", netlist, constraints)
            tpr.append(q["sys_tp"] / max(1, q["sys_tp"] + q["sys_fn"]))
            f1.append(2 * q["dev_tp"] / max(1, 2 * q["dev_tp"] + q["dev_fp"] + q["dev_fn"]))
            neg = q["sys_fp"] + q["sys_tn"] + q["dev_fp"] + q["dev_tn"]
            fpr.append((q["sys_fp"] + q["dev_fp"]) / max(1, neg))
        return {"sys_tpr": statistics.mean(tpr), "dev_f1": statistics.mean(f1),
                "fpr": statistics.mean(fpr)}

    def train(self, blocks, model):
        wall, _, _ = self.cli(["train"] + blocks + ["--model-out", model])
        return wall

    def time_up(self, start, done):
        return done >= 1 and (self.args.quick or time.perf_counter() - start >= self.args.seconds)

    def cli_passes(self, inputs, model, refs, tag, count=None):
        """CLI extract passes over `inputs`: `count` of them, or as many
        as the run's seconds allow. Returns per-pass walls, per-pass peak
        RSS, and per-design walls."""
        passes, rss, per_design = [], [], {}
        start = time.perf_counter()
        while len(passes) < count if count else not self.time_up(start, len(passes)):
            wall_sum, peak = 0.0, 0.0
            for netlist in inputs:
                name = os.path.splitext(os.path.basename(netlist))[0]
                out = self.path("out", f"{tag}-{len(passes)}-{name}.txt")
                args = ["extract", netlist, "-o", out] + (["--model", model] if model else [])
                wall, mb, ok = self.cli(args)
                if ok:
                    if name in refs:
                        self.same_output(read(out), refs[name], f"{name} pass {len(passes)}")
                    else:
                        refs[name] = read(out)
                wall_sum += wall
                peak = max(peak, mb)
                per_design.setdefault(name, []).append(wall)
            passes.append(wall_sum)
            rss.append(peak)
        self.output_hashes.add(hashlib.sha256(b"".join(refs[k] for k in sorted(refs))).hexdigest())
        return passes, rss, per_design

    def traced(self, inputs, model, refs, tag, profile=False):
        """The in-process run: same public calls as `ancstr extract`,
        timed per layer (or counted, with `profile`). Its output must
        equal the CLI's byte for byte."""
        out = self.path("out", tag)
        args = ["trace", out] + (["--model", model] if model else [])
        result = self.helper(*(args + (["--profile"] if profile else []) + inputs))
        for netlist in inputs:
            name = os.path.splitext(os.path.basename(netlist))[0]
            self.same_output(read(os.path.join(out, f"{name}.txt")), refs[name],
                             f"{name} traced{' (profiled)' if profile else ''} vs CLI")
        return result

    def kernel_counts(self, inputs, model, refs):
        """The count-only pass, as nn/par per-layer metrics."""
        k = self.traced(inputs, model, refs, "count", profile=True)["kernels"]
        return {"nn.matmul_calls": k["matmul.calls"], "nn.matmul_madds": k["matmul.elems"],
                "nn.spmm_calls": k["spmm.calls"], "nn.spmm_madds": k["spmm.elems"],
                "nn.axpy_calls": k["axpy.calls"], "par.regions": k["par_region.calls"],
                "par.chunks": k["par_region.elems"]}

    def trace_metrics(self, inputs, model, refs):
        """Alternate untraced CLI passes and traced passes for the run's
        seconds, then one count-only pass. Returns the per-layer metrics."""
        cli_walls, traced, per_design = [], [], {}
        start = time.perf_counter()
        while not self.time_up(start, len(traced)):
            walls, _, designs = self.cli_passes(inputs, model, refs, f"cli{len(traced)}", 1)
            cli_walls += walls
            for name, w in designs.items():
                per_design.setdefault(name, []).extend(w)
            traced.append(self.traced(inputs, model, refs, f"trace{len(traced)}"))
        metrics = layer_metrics(traced, median(cli_walls) * 1e3)
        metrics.update(self.kernel_counts(inputs, model, refs))
        self.detail["samples"] = {"cli_passes": len(cli_walls), "traced_passes": len(traced)}
        return metrics, per_design


# The layers timed inside a traced pass's wall. `gnn.load_ms` is not one:
# the trace loads its model once, before the pass.
LAYER_TIMES = ("netlist.parse_ms", "netlist.elaborate_ms", "graph.build_ms",
               "core.features_ms", "gnn.train_ms", "gnn.embed_ms", "core.detect_ms",
               "core.export_ms")
LAYER_NAMES = LAYER_TIMES + ("gnn.load_ms", "netlist.devices", "netlist.nets", "graph.edges",
                             "gnn.steps", "gnn.retries", "core.block_embed_ms", "core.pairs_ms",
                             "core.candidates", "core.constraints")


def layer_metrics(traced, untraced_pass_ms):
    """Medians over traced passes, plus the derived per-layer metrics."""
    m = {name: median([t["layers"].get(name, 0.0) for t in traced]) for name in LAYER_NAMES}
    m["core.score_ms"] = m["core.detect_ms"] - m["core.block_embed_ms"] - m["core.pairs_ms"]
    m["core.accept_ratio"] = m["core.constraints"] / max(1.0, m["core.candidates"])
    m["gnn.epoch_ms"] = median([e for t in traced for e in t["epoch_ms"]])
    traced_ms = median([t["pass_ms"] for t in traced])
    m["trace.overhead_frac"] = (traced_ms - untraced_pass_ms) / untraced_pass_ms
    m["trace.uncovered_frac"] = median([
        (t["pass_ms"] - sum(t["layers"].get(k, 0.0) for k in LAYER_TIMES)) / t["pass_ms"]
        for t in traced])
    return m


def cli_end_to_end(run, passes, rss, per_design, quality):
    ops = [w for walls in per_design.values() for w in walls]
    run.detail["samples"] = {"passes": len(passes), "extracts": len(ops)}
    run.detail["pass_walls_s"] = passes
    return {
        "pass_s": median(passes), "peak_rss_mb": median(rss), **quality,
        "rps": len(ops) / sum(passes),
        "p50_ms": median(ops) * 1e3, "p99_ms": nearest_rank(ops, 0.99) * 1e3,
    }


def cli_rows(per_design):
    return {f"cli.extract_s.ADC{i}": median(per_design.get(f"ADC{i}", [])) for i in range(1, 6)}


# -- workloads -------------------------------------------------------------

def adc_fit(run):
    """`ancstr extract ADCi.sp` (self-training, 60 epochs) for i = 1..5."""
    run.helper("inputs", "adc", run.path("adc"))
    inputs = [run.path("adc", f"ADC{i}.sp") for i in range(1, 6)]
    run.fingerprint_inputs(inputs)
    refs = {}
    if run.args.trace:
        metrics, per_design = run.trace_metrics(inputs, None, refs)
        return {**metrics, **cli_rows(per_design)}
    # Set-up: transductive extraction needs no model, so its set-up is
    # what a flow does first, load and check the five inputs with `ancstr
    # stats`. That is mostly process start and parse + elaborate, the same
    # start-up each extract pays. One untimed call first, so a binary
    # evicted from the page cache by an earlier run is not charged to it.
    run.cli(["stats", inputs[0]])
    setups = []
    for _ in range(1 if run.args.quick else STATS_SETUP_REPS):
        setups.append(sum(run.cli(["stats", n])[0] for n in inputs))
    passes, rss, per_design = run.cli_passes(inputs, None, refs, "pass")
    quality = run.quality([(n, run.path("out", f"pass-0-ADC{i}.txt"))
                           for i, n in enumerate(inputs, 1)])
    return {"setup_s": median(setups), **cli_end_to_end(run, passes, rss, per_design, quality)}


def adc_quality(run, model):
    """Quality of a trained model on ADC1-5 (`ancstr extract --model`)."""
    run.helper("inputs", "adc", run.path("adc"))
    pairs = []
    for i in range(1, 6):
        netlist, out = run.path("adc", f"ADC{i}.sp"), run.path("out", f"model-ADC{i}.txt")
        run.cli(["extract", netlist, "--model", model, "-o", out])
        pairs.append((netlist, out))
    return run.quality(pairs)


def train_models(run, blocks, reps):
    """`ancstr train` on the Table IV blocks, `reps` times; every model
    must be byte-identical. Returns (model path, walls)."""
    walls, first = [], None
    for k in range(reps):
        model = run.path(f"model{k}.txt")
        walls.append(run.train(blocks, model))
        if first is None:
            first = read(model)
        else:
            run.same_output(read(model), first, f"trained model {k}")
    return run.path("model0.txt"), walls


def stress(run):
    """`ancstr extract s.sp --model m.txt` on a seeded 10^5-device corpus."""
    devices = 10_000 if run.args.quick else STRESS_DEVICES
    corpus = run.path("s.sp")
    run.cli(["corpus", "--devices", str(devices), "--seed", str(run.args.seed), "-o", corpus])
    run.helper("inputs", "blocks", run.path("blocks"), BLOCK_SEED)
    blocks = sorted(run.path("blocks", f) for f in os.listdir(run.path("blocks")))
    run.fingerprint_inputs([corpus], stress_devices=devices,
                           blocks_sha256=sha256_files(blocks))
    reps = 1 if (run.args.trace or run.args.quick) else SETUP_REPS
    model, setups = train_models(run, blocks, reps)
    refs = {}
    if run.args.trace:
        metrics, _ = run.trace_metrics([corpus], model, refs)
        return {**metrics, **cli_rows({})}
    # Warm-up pass: fills the page cache; its output is the reference.
    if not run.args.quick:
        run.cli_passes([corpus], model, refs, "warm", 1)
    passes, rss, per_design = run.cli_passes([corpus], model, refs, "pass")
    # The corpus's own scores move with the seed (system TPR is 0.85 or
    # 1.0 depending on the cell sizes drawn), so the metrics score this
    # workload's model on ADC1-5, as serve-mix does.
    return {"setup_s": median(setups), **cli_end_to_end(run, passes, rss, per_design,
                                                        adc_quality(run, model))}


class Daemon:
    """`ancstr serve --model M --port 0` with default settings."""

    def __init__(self, run, model):
        self.addr = None
        start = time.perf_counter()
        self.log = open(run.path("serve.log"), "ab")
        self.proc = subprocess.Popen([run.ancstr, "serve", "--model", model, "--port", "0"],
                                     stdout=subprocess.PIPE, stderr=self.log)
        run.children.append(self)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise BenchError(f"daemon did not start: {line!r}")
        self.start_s = time.perf_counter() - start
        self.addr = line.split("listening on", 1)[1].strip()

    def request(self, method, path, body=b""):
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request(method, path, body=body)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def metrics(self):
        _, text = self.request("GET", "/metrics")
        totals = {}
        for line in text.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                key = name.split("{", 1)[0]
                totals[key] = totals.get(key, 0.0) + float(value)
        return totals

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.log.closed:
            return
        if self.proc.poll() is None:
            try:
                if self.addr is None:
                    raise OSError("never listened")
                self.request("POST", "/v1/shutdown")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def serve_mix(run):
    """`ancstr serve` under a seeded closed-loop 80/20 hot/cold mix over
    the 15 Table IV blocks and ADC1-5."""
    run.helper("inputs", "adc", run.path("bodies"))
    run.helper("inputs", "blocks", run.path("bodies"), BLOCK_SEED)
    names = sorted(os.path.splitext(f)[0] for f in os.listdir(run.path("bodies")))
    bodies = {n: run.path("bodies", f"{n}.sp") for n in names}
    blocks = [bodies[n] for n in names if not n.startswith("ADC")]
    run.fingerprint_inputs([bodies[n] for n in names], connections=CONNECTIONS,
                           hot_share=0.8, weights=SERVE_WEIGHTS,
                           batch_window={"connections": BATCH_CONNECTIONS,
                                         "seconds": BATCH_WINDOW_S})

    setups, warm_rss, refs, ref_walls, daemon = [], [], {}, {}, None
    reps = 1 if (run.args.trace or run.args.quick) else SETUP_REPS
    try:
        for k in range(reps):
            model = run.path(f"model{k}.txt")
            train_s = run.train(blocks, model)
            if k == 0:
                # Reference bytes: one-shot `extract --model` per body
                # (outside set-up time; it is the benchmark's own check).
                for n in names:
                    out = run.path("ref", f"{n}.txt")
                    ref_walls[n], _, _ = run.cli(["extract", bodies[n], "--model", model,
                                                  "-o", out])
                    refs[n] = read(out)
            else:
                run.same_output(read(model), read(run.path("model0.txt")), f"trained model {k}")
            if daemon:
                daemon.stop()
            daemon = Daemon(run, model)
            start = time.perf_counter()
            for n in names:
                status, doc = daemon.request("POST", "/v1/extract", read(bodies[n]))
                text = json.loads(doc).get("constraints_text", "") if status == 200 else ""
                run.same_output(text.encode(), refs[n], f"daemon warm-up reply for {n}")
            setups.append(train_s + daemon.start_s + time.perf_counter() - start)
            warm_rss.append(daemon.peak_rss_mb())

        manifest = run.path("manifest.tsv")
        with open(manifest, "w") as f:
            for n in names:
                f.write(f"{SERVE_WEIGHTS.get(n, 1)}\t{bodies[n]}\t{run.path('ref', n + '.txt')}\n")
        def drive(seconds, conns):
            before = daemon.metrics()
            load = run.helper("load", "--addr", daemon.addr, "--manifest", manifest, "--seed",
                              run.args.seed, "--seconds", seconds, "--conns", conns)
            after = daemon.metrics()
            for ok in load["ok"]:
                run.op(ok == 1, "serve reply was not 200 with the reference constraints")
            return load, {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}

        load, delta = drive(1.0 if run.args.quick else run.args.seconds, CONNECTIONS)
        run.detail["daemon_peak_rss_mb_after_load"] = daemon.peak_rss_mb()
        if run.args.trace:
            _, batch_delta = drive(1.0 if run.args.quick else BATCH_WINDOW_S, BATCH_CONNECTIONS)
    finally:
        if daemon:
            daemon.stop()
    # Only whole decks count, so every run measures the same mix.
    per_deck = load["per_deck"]
    sizes = {}
    for d in load["deck"]:
        sizes[d] = sizes.get(d, 0) + 1
    whole = [i for i, d in enumerate(load["deck"]) if sizes[d] == per_deck]
    start = [load["start_ms"][i] for i in whole]
    end = [load["end_ms"][i] for i in whole]
    lat = [e - s for s, e in zip(start, end)]
    cold = [lat[k] for k, i in enumerate(whole) if load["cold"][i]]
    hot = [lat[k] for k, i in enumerate(whole) if not load["cold"][i]]
    run.output_hashes.add(hashlib.sha256(b"".join(refs[n] for n in names)).hexdigest())
    run.detail["samples"] = {"requests": len(lat), "cold": len(cold), "hot": len(hot)}

    if run.args.trace:
        hits = delta.get("ancstr_serve_cache_hits_total", 0.0)
        misses = delta.get("ancstr_serve_cache_misses_total", 0.0)
        framing = median(hot)
        inputs = [bodies[n] for n in names]
        model = run.path("model0.txt")
        pipe = run.helper("pipeline", run.path("out", "pipeline"), "--model", model,
                          "--reps", 1 if run.args.quick else 3, *inputs)["pipeline_ms"]
        for n in names:
            run.same_output(read(run.path("out", "pipeline", f"{n}.txt")), refs[n],
                            f"{n} service::extract_source vs CLI")
        # Weighted like the mix, so it lines up with the median miss.
        pipeline_ms = median([median(pipe[n]) for n in names
                              for _ in range(SERVE_WEIGHTS.get(n, 1))])
        traced = [run.traced(inputs, model, refs, "trace")]
        metrics = layer_metrics(traced, sum(median(pipe[n]) for n in names))
        metrics.update(run.kernel_counts(inputs, model, refs))
        metrics.update({
            "serve.hit_ratio": hits / max(1.0, hits + misses),
            # Misses per fused forward pass, in the three-connection window.
            "serve.batch_size_mean": batch_delta.get("ancstr_serve_cache_misses_total", 0.0)
            / max(1.0, batch_delta.get("ancstr_serve_batches_total", 0.0)),
            "serve.rejected": delta.get("ancstr_serve_rejected_total", 0.0),
            "serve.miss_p50_ms": median(cold),
            "serve.framing_ms": framing, "serve.pipeline_ms": pipeline_ms,
            "serve.queue_ms": median(cold) - pipeline_ms - framing,
        })
        return {**metrics, **cli_rows({n: [w] for n, w in ref_walls.items()})}

    decks = {}
    for i in whole:
        lo, hi = decks.get(load["deck"][i], (math.inf, 0.0))
        decks[load["deck"][i]] = (min(lo, load["start_ms"][i]), max(hi, load["end_ms"][i]))
    deck_walls = [(hi - lo) / 1e3 for lo, hi in decks.values()]
    window = (max(end) - min(start)) / 1e3
    quality = run.quality([(bodies[f"ADC{i}"], run.path("ref", f"ADC{i}.txt"))
                           for i in range(1, 6)])
    run.detail["samples"]["decks"] = len(deck_walls)
    return {
        "setup_s": median(setups),
        "pass_s": median(deck_walls),
        # After the warm-up (each body once, one at a time). The peak after
        # the load swung between ~148 and ~184 MB from run to run with the
        # number of worker threads whose allocator arenas had held an
        # ADC5 pipeline; it is kept in the fingerprint line.
        "peak_rss_mb": median(warm_rss), **quality, "rps": len(lat) / window,
        "p50_ms": median(lat), "p99_ms": nearest_rank(lat, 0.99),
    }


RUNNERS = {"adc-fit": adc_fit, "stress-100k": stress, "serve-mix": serve_mix}


# -- result, fingerprint, comparison ---------------------------------------

def hardware():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "available": len(os.sched_getaffinity(0)),
            "cpu_model": model, "isa": [f for f in ISA_FLAGS if f in flags],
            "kernel": platform.release()}


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def result(run, values):
    spec = load_spec()
    wanted = spec["per_layer"] if run.args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] == "success_rate":
            value = 1.0 - run.failed / max(1, run.attempted)
        elif m["name"] in values:
            value = values[m["name"]]
        else:
            value = 0.0 if run.args.trace else None
        if value is None:
            raise BenchError(f"workload did not produce {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": run.failed == 0 and len(run.output_hashes) <= 1,
            "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def compare(old_path, new_path):
    """Compare two `--out` files. Refuses different workloads, inputs or
    hardware; flags any output change; marks each end-to-end delta as
    inside or outside the metric's bound."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in ("workload", "hardware"):
        if old["fingerprint"][key] != new["fingerprint"][key]:
            print(f"refused: {key} fingerprints differ\n  old {old['fingerprint'][key]}\n"
                  f"  new {new['fingerprint'][key]}")
            return 2
    if old["fingerprint"]["trace"] != new["fingerprint"]["trace"]:
        print("refused: one file is a traced run and the other is not")
        return 2
    status = 0
    if old["fingerprint"]["output_sha256"] != new["fingerprint"]["output_sha256"]:
        print("output changed: constraint hashes differ")
        status = 1
    spec = load_spec()
    spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in new["result"]["metrics"].items():
        a, b = old["result"]["metrics"][name]["value"], entry["value"]
        m = spec[name]
        delta = (b - a) / a if a else 0.0
        worse = delta if m["better"] == "lower" else -delta
        bound = m.get("bound")
        verdict = "" if bound is None else ("REGRESSION" if worse > bound else "within bound")
        if verdict == "REGRESSION":
            status = 1
        print(f"{name:28s} {a:14.6g} -> {b:14.6g} {m['unit']:8s} {delta:+8.2%} {verdict}")
    return status


def smoke():
    """Every workload at both trace levels on small inputs: each must
    print every BENCHMARK.json metric of its level, with its unit."""
    spec = load_spec()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            problems = [] if proc.returncode == 0 and lines else [f"exit {proc.returncode}"]
            if not problems:
                res = json.loads(lines[-1])
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(res)}")
                if not res["correct"]:
                    problems.append("correct is false")
                want = spec["per_layer"] if trace else spec["end_to_end"]
                for m in want:
                    got = res["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append(f"{m['name']}: {got}")
                extra = set(res["metrics"]) - {m["name"] for m in want}
                if extra:
                    problems.append(f"unexpected metrics {sorted(extra)}")
            print(f"{workload:12s} trace={trace}: {'ok' if not problems else problems}")
            if problems:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")

    run = Run(args)
    # A terminated run still stops its daemon (the `finally` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run.build()
        os.makedirs(run.path("out"), exist_ok=True)
        os.makedirs(run.path("ref"), exist_ok=True)
        values = RUNNERS[args.workload](run)
        res = result(run, values)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    finally:
        for child in run.children:
            child.stop()
        shutil.rmtree(run.work, ignore_errors=True)
        if os.path.isdir(os.path.dirname(run.work)) and not os.listdir(os.path.dirname(run.work)):
            os.rmdir(os.path.dirname(run.work))
    fingerprint = {"hardware": hardware(), "workload": run.detail.get("workload"),
                   "trace": args.trace, "output_sha256": sorted(run.output_hashes),
                   "samples": run.detail.get("samples"), "held_out_seed": HELD_OUT_SEED,
                   **{k: v for k, v in run.detail.items() if k not in ("workload", "samples")}}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fingerprint, "result": res}, f, indent=1)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
