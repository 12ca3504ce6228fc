"""Turn a :class:`harness.Run` into the metrics ``BENCHMARK.json`` names.

End-to-end metrics come only from untraced repetitions.  Per-layer
metrics come from traced repetitions: span self times and counts
(``spans.Tracer``), the program's own ``repro.utils.profiling`` op table
for ``nn``, and the benchmark's own measurements at the layer boundaries.
Per-layer totals are per repetition (mean over traced repetitions); a
layer a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics

from harness import rss_peak_mb

#: profiling op-table names (repro.utils.profiling) read for ``nn.*``.
NN_OPS = {
    "nn.train_step": ("train.step",),
    "nn.optim_step": ("optim.step",),
    "nn.dense_fwd": ("dense.fused_forward",),
    "nn.dense_bwd": ("dense.fused_backward",),
    "nn.embedding_fwd": ("embedding.forward",),
    "nn.embedding_bwd": ("embedding.backward.sparse",
                         "embedding.backward.dense"),
    "nn.loss": ("loss.bce_fused_forward", "loss.bce_fused_backward"),
}


#: Whole-request figures that repeat too poorly on a shared host to carry
#: a bound (see README.md); reported per layer from the same samples.
MOVED = {
    "serving.p99_ms.r2000": ("lat_ms.r2000", 99),
    "serving.p50_ms.r6000": ("lat_ms.r6000", 50),
    "serving.p99_ms.r6000": ("lat_ms.r6000", 99),
    "serving.freshness_p50_ms": ("freshness_ms", 50),
    "serving.batch_p99_ms": ("batch_ms", 99),
}


def end_to_end(run):
    metrics = {
        "setup_s": run.median("setup_s"),
        "wall_s": run.median("wall_s"),
        "auc": run.median("auc"),
        "p50_ms.r2000": run.percentile("lat_ms.r2000", 50),
        # Sustained capacity: the slowest round.  The host's speed
        # alternates between states for seconds at a time; the slow state
        # is the one every run sees, so its rate repeats across runs.
        "capacity_rps": min(run.values.get("capacity_rps", [0.0])),
        "rss_peak_mb": rss_peak_mb(),
    }
    # Last: the percentile sample checks above count as operations too.
    metrics["ok_frac"] = 1.0 - run.failed / run.attempted
    return metrics


def absorb_trace(run, tracer, profile):
    """Fold one traced repetition's spans and op table into ``run``."""
    table = tracer.self_times()

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    run.add("layer:data.generate_s", total("data.generate"))
    run.add("layer:data.minibatch.calls", calls("data.minibatch"))
    run.add("layer:data.minibatch.self_s", self_s("data.minibatch"))
    run.add("layer:data.window_read_s", total("data.window_read"))
    for span, key in (("core.dn_epoch", "dn_epoch"),
                      ("core.dr_round", "dr_round")):
        run.add(f"layer:core.{key}.self_s", self_s(span))
        run.add(f"layer:core.{key}.calls", calls(span))
    run.add("layer:core.select.s", total("core.select"))
    run.add("layer:core.plan_clusters.s", total("core.plan_clusters"))
    groups = [span[5]["groups"] for span in tracer.of("core.training_plan")
              if span[5]]
    run.add("layer:core.groups", max(groups) if groups else 0)
    run.add("layer:metrics.evaluate.s", total("metrics.evaluate"))
    run.add("layer:serving.publish_s", total("serving.publish"))
    run.add("layer:serving.save_s", total("serving.save"))

    for name, ops in NN_OPS.items():
        stats = [profile.ops[op] for op in ops if op in profile.ops]
        run.add(f"layer:{name}.s", sum(s.seconds for s in stats))
        run.add(f"layer:{name}.calls", sum(s.calls for s in stats))

    # Serving batches: duration, forward child, the rest is preparation.
    batches = {span[0]: span for span in tracer.of("serving.predict_batch")}
    forward = {}
    for span in tracer.of("nn.predict"):
        if span[4] in batches:
            forward[span[4]] = span[3] - span[2]
    previous = None
    switches = 0
    for span_id, _name, start, end, _parent, attrs in batches.values():
        duration = end - start
        run.extend("layer:serving.predict_batch_us", [duration * 1e6])
        run.extend("layer:serving.forward_us",
                   [forward.get(span_id, 0.0) * 1e6])
        run.extend("layer:serving.prepare_us",
                   [(duration - forward.get(span_id, 0.0)) * 1e6])
        run.extend("layer:serving.batch_rows", [attrs["rows"]])
        switches += previous is not None and attrs["domain"] != previous
        previous = attrs["domain"]
    if len(batches) > 1:
        run.add("layer:serving.domain_switch_frac",
                switches / (len(batches) - 1))

    for span, key in (("traffic.pool_publish", "traffic.pool_publish_ms"),
                      ("online.ingest", "online.ingest_ms"),
                      ("online.update", "online.update_ms"),
                      ("online.gate_publish", "online.gate_publish_ms")):
        run.extend(f"layer:{key}",
                   [(s[3] - s[2]) * 1e3 for s in tracer.of(span)])


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _layer_percentile(run, key, q):
    # Per-layer figures carry no bound: a layer the workload never reaches,
    # or reaches too rarely to support the percentile (e.g. few accepted
    # windows on online_drift), reads 0 and is listed in the accounting.
    return run.percentile(key, q, required=False)


def per_layer(run, names, overhead_s):
    """Every per-layer metric in ``names``, from traced repetitions."""
    values = {}
    for name in names:
        key = f"layer:{name}"
        base, _, stat = name.rpartition(".")
        samples = run.samples.get(key)
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name in MOVED:
            values[name] = _layer_percentile(run, *MOVED[name])
        elif stat.startswith("p") and stat[1:].isdigit():
            values[name] = _layer_percentile(run, f"layer:{base}",
                                             int(stat[1:]))
        elif stat == "max":
            values[name] = max(run.samples.get(f"layer:{base}", [0.0]))
        elif stat == "mean":
            values[name] = _mean(run.samples.get(f"layer:{base}", []))
        elif samples is not None:
            values[name] = _mean(samples)        # mean per call
        else:
            values[name] = _mean(run.values.get(key, []))
    return values
