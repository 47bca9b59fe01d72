"""Turn the driver's raw samples into the benchmark's named metrics.

The driver (driver.cpp) reports raw material only: per-batch and per-job
wall times, per-request timestamps, per-layer time sums.  Every
percentile, ratio and unit conversion happens here, so each rule has one
definition and a unit test (test_stats.py).
"""

import math
import statistics

# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

# Per-layer metrics only a serve run measures, with their units; batch
# runs, which do not exercise these layers, report them as 0.
SERVE_ONLY = {
    "serve.small_exec_ms": "ms", "serve.large_exec_ms": "ms",
    "serve.small_wait_p50_ms": "ms", "serve.small_wait_p99_ms": "ms",
    "serve.large_wait_p50_ms": "ms", "serve.large_wait_p99_ms": "ms",
    "serve.batch_requests": "count", "serve.queue_depth_max": "count",
    "serve.decode_us": "us", "serve.encode_us": "us",
    "serve.response_kb": "KiB", "serve.threads": "count",
    "serve.open_fds": "count", "loadgen.lag_p99_ms": "ms",
}


def nearest_rank(values, q):
    """Nearest-rank q-th percentile of `values`, for an integer 0 < q <= 100,
    clamped so that at least MIN_BEYOND samples lie beyond it.

    Returns (value, q_used, n): q_used is the percentile actually reported
    (below q when there are fewer than 100 * MIN_BEYOND / (100 - q) samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples: need more than {MIN_BEYOND} for a percentile")
    rank = max(1, -(-q * n // 100))  # ceil(q * n / 100) in integers
    rank = min(rank, n - MIN_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n, n


def percentile(values, q):
    """The value of `nearest_rank`, without its bookkeeping."""
    return nearest_rank(values, q)[0]


def from_due(records):
    """Open-loop latency and send lag, both in ms, of answered requests.

    Each record is (due_s, sent_s, done_s).  Latency runs from the time a
    request was *due*, so a stalled sender charges its stall to every
    request it delayed; lag is how late the request actually went out.
    """
    latency = [(done - due) * 1e3 for due, _, done in records if done >= 0]
    lag = [(sent - due) * 1e3 for due, sent, _ in records if sent >= 0]
    return latency, lag


def coverage(layers):
    """Share of the traced job time that the timed layers account for."""
    parts = ("truth_s", "graph_s", "measure_s", "greedy_s", "amp_s",
             "eval_s")
    if layers["total_s"] <= 0:
        raise ValueError("traced replay took no time")
    return sum(layers[p] for p in parts) / layers["total_s"]


def overhead(layers, untraced_job_s):
    """Traced ÷ untraced mean per-job time, both on one worker."""
    traced = layers["total_s"] / layers["jobs"]
    return traced / statistics.fmean(untraced_job_s)


def _ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------------ batch

def batch_latencies(out):
    """Per-job latency in ms, from batch submission to the job's result,
    split into (small, large) by the job's m against the plan's median m."""
    pairs = list(zip(out["done_ms"], out["job_large"]))
    return ([ms for ms, big in pairs if not big],
            [ms for ms, big in pairs if big])


def batch_metrics(out, setup_s):
    """End-to-end metrics of an untraced batch run."""
    walls = [b["wall_s"] for b in out["batches"]]
    wall_s = statistics.median(walls)
    jobs = out["batches"][0]["plan_jobs"]
    small, large = batch_latencies(out)
    return {
        "wall_s": (wall_s, "s"),
        "success_rate": (out["success_sum"] / out["success_jobs"], "fraction"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
        "small_p50_ms": (percentile(small, 50), "ms"),
        "small_p99_ms": (percentile(small, 99), "ms"),
        "large_p50_ms": (percentile(large, 50), "ms"),
        "large_p99_ms": (percentile(large, 99), "ms"),
        "capacity_rps": (jobs / wall_s, "req/s"),
    }


def layer_metrics(study):
    """Per-layer metrics of a traced layer study (batch or served mix)."""
    eng = study["engine"]
    lay = study["layers"]
    jobs = lay["jobs"]
    job_s = eng["job_s"]
    ms = 1e3 / jobs
    return {
        "engine.plan_s": (statistics.median(eng["plan_s"]), "s"),
        "engine.job_p50_ms": (percentile(job_s, 50) * 1e3, "ms"),
        "engine.job_p99_ms": (percentile(job_s, 99) * 1e3, "ms"),
        "engine.parallel_eff": (
            sum(job_s) / (eng["run_s"] * eng["workers"]), "fraction"),
        "engine.report_s": (eng["report_s"], "s"),
        "pooling.truth_ms": (lay["truth_s"] * ms, "ms"),
        "pooling.graph_ms": (lay["graph_s"] * ms, "ms"),
        "pooling.edges": (lay["edges"], "count"),
        "pooling.graph_ns_per_edge": (
            lay["graph_s"] / lay["edges"] * 1e9, "ns"),
        "noise.measure_ms": (lay["measure_s"] * ms, "ms"),
        "noise.measure_ns_per_edge": (
            lay["measure_s"] / lay["edges"] * 1e9, "ns"),
        "solve.greedy_ms": (lay["greedy_s"] * ms, "ms"),
        "solve.amp_ms": (lay["amp_s"] * ms, "ms"),
        "solve.amp_iterations": (
            _ratio(lay["amp_iterations"], lay["amp_jobs"]), "count"),
        "solve.amp_ms_per_iter": (
            _ratio(lay["amp_s"] * 1e3, lay["amp_iterations"]), "ms"),
        "solve.amp_converged_frac": (
            _ratio(lay["amp_converged"], lay["amp_jobs"]), "fraction"),
        "core.eval_us": (lay["eval_s"] * 1e6 / jobs, "us"),
        "trace.coverage": (coverage(lay), "fraction"),
        "trace.overhead": (overhead(lay, eng["serial_job_s"]), "ratio"),
    }


# ------------------------------------------------------------------ serve

# Columns of a request record in the driver's "open"/"closed" arrays.
LARGE, DUE, SENT, DONE, OK, EXEC, BATCH, SUCCESS, BYTES = range(9)


def serve_metrics(out):
    """End-to-end metrics of an untraced serve run."""
    answered = [r for r in out["open"] + out["closed"] if r[OK]]
    lat = {}
    for cls, name in ((0, "small"), (1, "large")):
        rows = [r for r in out["open"] if r[OK] and r[LARGE] == cls]
        lat[name], _ = from_due([(r[DUE], r[SENT], r[DONE]) for r in rows])
    closed_ok = sum(1 for r in out["closed"] if r[OK])
    return {
        "wall_s": (out["closed_wall_s"], "s"),
        "success_rate": (
            statistics.fmean(r[SUCCESS] for r in answered), "fraction"),
        "setup_s": (statistics.median(out["setup_s"]), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
        "small_p50_ms": (percentile(lat["small"], 50), "ms"),
        "small_p99_ms": (percentile(lat["small"], 99), "ms"),
        "large_p50_ms": (percentile(lat["large"], 50), "ms"),
        "large_p99_ms": (percentile(lat["large"], 99), "ms"),
        "capacity_rps": (closed_ok / out["closed_wall_s"], "req/s"),
    }


def serve_layer_metrics(out):
    """Serve- and client-side per-layer metrics of a traced serve run."""
    rows = [r for r in out["open"] if r[OK]]
    metrics = {}
    for cls, name in ((0, "small"), (1, "large")):
        mine = [r for r in rows if r[LARGE] == cls]
        latency, _ = from_due([(r[DUE], r[SENT], r[DONE]) for r in mine])
        wait = [ms - r[EXEC] * 1e3 for ms, r in zip(latency, mine)]
        metrics[f"serve.{name}_exec_ms"] = (
            percentile([r[EXEC] * 1e3 for r in mine], 50), "ms")
        metrics[f"serve.{name}_wait_p50_ms"] = (percentile(wait, 50), "ms")
        metrics[f"serve.{name}_wait_p99_ms"] = (percentile(wait, 99), "ms")
    _, lag = from_due([(r[DUE], r[SENT], r[DONE]) for r in out["open"]])
    metrics.update({
        "serve.batch_requests": (
            statistics.fmean(r[BATCH] for r in rows), "count"),
        "serve.queue_depth_max": (out["queue_depth_max"], "count"),
        "serve.decode_us": (out["decode_us"], "us"),
        "serve.encode_us": (out["encode_us"], "us"),
        "serve.response_kb": (
            statistics.fmean(r[BYTES] for r in rows) / 1024.0, "KiB"),
        "serve.threads": (out["threads"], "count"),
        "serve.open_fds": (out["open_fds"], "count"),
        "loadgen.lag_p99_ms": (percentile(lag, 99), "ms"),
    })
    return metrics


def failures(records):
    """Requests refused, errored or never answered."""
    return sum(1 for r in records if not r[OK] or r[DONE] < 0)


def tail_note(values, q):
    """'p<q_used> of <n>' for the info lines."""
    _, used, n = nearest_rank(values, q)
    return f"p{used:.4g} of {n}"


def is_finite(metrics):
    return all(math.isfinite(v) for v, _ in metrics.values())
