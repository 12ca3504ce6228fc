"""Run accounting shared by every workload: repetitions, samples, checks.

A workload repeats one fixed unit of work (set-up, then its timed region)
until the ``--seconds`` budget is used, with at least ``MIN_REPS``
repetitions.  Each repetition adds values (``setup_s``, ``wall_s``, one
``capacity_rps`` per round, ...) and raw samples (request latencies, ...)
to one :class:`Run`; end-to-end metrics are medians of the values (the
minimum for capacity) and blocked percentiles of the samples
(:meth:`Run.percentile`).  Every correctness check and every request is
counted, so ``ok_frac`` is the share of attempted operations that
succeeded.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".e2ebench_out"

#: Every run repeats its unit at least this often, so medians and pooled
#: percentiles never rest on a single repetition.
MIN_REPS = 2

#: A reported percentile needs this many samples beyond it.
MIN_TAIL_SAMPLES = 10

clock = time.perf_counter


class Run:
    """Everything one benchmark run measured and checked."""

    def __init__(self):
        self.values = defaultdict(list)      # per-repetition/round values
        self.samples = defaultdict(list)     # pooled raw samples
        self.checks = defaultdict(lambda: [0, 0])     # name -> [ok, failed]
        # name -> [sent, succeeded, failed]
        self.phases = defaultdict(lambda: [0, 0, 0])
        self.too_few = {}    # percentile -> sample count, when not reported

    # -- measurements ---------------------------------------------------
    def add(self, name, value):
        self.values[name].append(float(value))

    def extend(self, name, samples):
        self.samples[name].extend(float(s) for s in samples)

    def median(self, name):
        values = self.values.get(name)
        return statistics.median(values) if values else 0.0

    def percentile(self, name, q, required=True):
        """Percentile ``q`` of the ``name`` samples, robust to host noise.

        The samples, in the order they were taken, are cut into
        consecutive blocks just large enough to hold ``MIN_TAIL_SAMPLES``
        beyond the percentile (20 for p50, 1000 for p99); the result is
        the median over blocks of each block's percentile, so a burst of
        interference from other tenants of a shared host moves one block,
        not the estimate.  With fewer samples than one block nothing is
        reported (0.0): a failed check when ``required``, otherwise a note
        in the accounting.
        """
        samples = self.samples.get(name, [])
        block = math.ceil(MIN_TAIL_SAMPLES / (min(q, 100 - q) / 100.0))
        n_blocks = len(samples) // block
        if required:
            self.check(f"samples:{name}:p{q:g}", n_blocks >= 1)
        if n_blocks == 0:
            self.too_few[f"{name}:p{q:g}"] = len(samples)
            return 0.0
        # The remainder joins the last block.
        cuts = [k * block for k in range(n_blocks)] + [len(samples)]
        return statistics.median(
            float(np.percentile(samples[lo:hi], q))
            for lo, hi in zip(cuts[:-1], cuts[1:])
        )

    # -- accounting -----------------------------------------------------
    def check(self, name, ok):
        self.checks[name][0 if ok else 1] += 1
        return bool(ok)

    def requests(self, phase, sent, ok):
        entry = self.phases[phase]
        entry[0] += int(sent)
        entry[1] += int(ok)
        entry[2] += int(sent) - int(ok)

    @property
    def attempted(self):
        return (sum(ok + bad for ok, bad in self.checks.values())
                + sum(sent for sent, _ok, _bad in self.phases.values()))

    @property
    def failed(self):
        return (sum(bad for _ok, bad in self.checks.values())
                + sum(bad for _sent, _ok, bad in self.phases.values()))

    def accounting(self):
        late = self.samples.get("layer:serving.gen_late_ms")
        return {
            "phases": {name: {"sent": s, "succeeded": ok, "failed": bad}
                       for name, (s, ok, bad) in sorted(self.phases.items())},
            "checks": {name: {"passed": ok, "failed": bad}
                       for name, (ok, bad) in sorted(self.checks.items())},
            "sample_counts": {name: len(v)
                              for name, v in sorted(self.samples.items())},
            "percentiles_not_reported": self.too_few,
            "repetitions": len(self.values.get("wall_s", [])),
            "values": {name: v for name, v in sorted(self.values.items())},
            "generator_late_ms": None if not late else {
                "p50": float(np.percentile(late, 50)),
                "p99": float(np.percentile(late, 99)),
                "max": max(late),
            },
        }


def check_auc(run, name, value):
    """AUCs must be finite probabilities; anything else is a failure."""
    ok = (isinstance(value, float) and math.isfinite(value)
          and 0.0 <= value <= 1.0)
    run.check(f"auc_finite:{name}", ok)
    return ok


def rss_peak_mb(pid="self"):
    """Peak resident set (VmHWM) of a process in MiB, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(seed, seconds, trace):
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "argv": sys.argv[1:],
    }


def input_digest(*arrays, dataset=None, trace=None):
    """SHA-256 over generated inputs (the seed-determinism probe).

    Covers ``arrays`` plus every split of ``dataset`` and every column of
    ``trace`` when given.
    """
    arrays = list(arrays)
    if trace is not None:
        arrays += [trace.times, trace.users, trace.items, trace.domains]
    for domain in dataset or ():
        for table in (domain.train, domain.val, domain.test):
            arrays += [table.users, table.items, table.labels]
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
