"""The four workloads: real ``repro-branches`` commands on private caches.

Each workload has a one-time ``prepare`` (cache fill), a per-operation
``setup`` (fresh directories, server start) and the timed ``run``.
Both set-up steps are timed into ``setup_s``; only ``run`` is timed
into ``wall_s``.  Every operation checks its own output.
"""

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import analyze

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

#: Input scale of every workload (``--scale``).
SCALE = 0.05

#: ``sweep_warm`` runs the whole 23-point grid on these benchmarks.  Their
#: 16-entry points and the 64-entry CBTB take over 95% of its time; the
#: traces that also make the 64-entry SBTB slow (cccp, compress, grep)
#: take tens of seconds per sweep, too long for one operation.
SWEEP_BENCHMARKS = ("make", "tar")

#: Fuzz seeds ``conformance`` replays, starting at the benchmark seed.
CONFORMANCE_SEEDS = 25

#: The paper's ten benchmarks (``repro.experiments.paper_values``).
CAMPAIGN_BENCHMARKS = ("cccp", "cmp", "compress", "grep", "lex", "make",
                       "tar", "tee", "wc", "yacc")
CAMPAIGN_SCHEMES = (
    {"scheme": "SBTB", "label": "SBTB"},
    {"scheme": "CBTB", "label": "CBTB"},
    {"scheme": "FS", "label": "FS"},
    {"scheme": "SBTB", "entries": 1024, "label": "SBTB-1024"},
    {"scheme": "CBTB", "associativity": 4, "label": "CBTB-256x4"},
)
#: Campaign column -> Table 3 column it must agree with.
TABLE3_COLUMN = {"SBTB": "A_S%", "CBTB": "A_C%", "FS": "A_FS%"}


def nproc():
    return len(os.sched_getaffinity(0))


class Child:
    """One launched ``repro-branches`` process, reaped with its rusage."""

    def __init__(self, args, cache_dir, deadline, spans=None,
                 first_seed=None, stderr_path=None):
        command = [sys.executable, os.path.join(HERE, "launch.py")]
        if spans:
            command += ["--spans", spans]
        if first_seed is not None:
            command += ["--first-seed", str(first_seed)]
        self.spans = spans
        self.stderr = open(stderr_path or os.devnull, "wb")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command + ["--"] + list(args), env=child_env(cache_dir),
            stdout=subprocess.PIPE, stderr=self.stderr)
        self._arm(deadline - time.monotonic())

    def _arm(self, seconds):
        """Kill the process after ``seconds`` (it is past its deadline)."""
        self._timer = threading.Timer(max(seconds, 1.0), self.process.kill)
        self._timer.start()

    def readline(self):
        return self.process.stdout.readline().decode()

    def finish(self):
        """(exit code, stdout text, peak RSS in MB, end time)."""
        try:
            output = self.process.stdout.read().decode()
            _pid, status, usage = os.wait4(self.process.pid, 0)
            ended = time.monotonic()
            self.process.returncode = os.waitstatus_to_exitcode(status)
        finally:
            self._timer.cancel()
            self.process.stdout.close()
            self.stderr.close()
        return (self.process.returncode, output, usage.ru_maxrss / 1024.0,
                ended)

    def interrupt(self):
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGINT)
            self._timer.cancel()
            self._arm(10.0)


def child_env(cache_dir):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0",
               REPRO_CACHE_DIR=cache_dir)
    return env


def run_command(args, cache_dir, deadline, **options):
    """Run one command to completion; returns an Outcome."""
    child = Child(args, cache_dir, deadline, **options)
    code, output, rss, ended = child.finish()
    outcome = Outcome(ended - child.started, rss, code, output,
                      [child.spans] if child.spans else [],
                      (child.started, ended))
    if code != 0:
        tail = ""
        if options.get("stderr_path"):
            with open(options["stderr_path"], errors="replace") as handle:
                tail = handle.read()[-400:].strip()
        outcome.check(False, "%s exited %s: %s" % (args[0], code, tail))
    return outcome


class Outcome:
    """One timed operation and its checks."""

    def __init__(self, wall, rss_mb, code, output, spans, window):
        self.wall = wall
        self.rss_mb = rss_mb
        self.code = code
        self.output = output
        self.spans = spans
        self.window = window
        self.attempted = 1
        self.failures = []
        self.failed_units = set()
        self.extra = {}

    @property
    def failed(self):
        """Failed units of work (campaign cells), at least 1 on a failure."""
        count = max(len(self.failed_units), 1 if self.failures else 0)
        return min(count, self.attempted)

    def check(self, condition, message, units=()):
        """Record ``message`` if not ``condition``; ``units`` failed."""
        if not condition:
            self.failures.append(message)
            self.failed_units.update(units)


def reference_text(name):
    with open(os.path.join(REFERENCE, name)) as handle:
        return handle.read()


class Workload:
    name = None
    #: units of work one operation attempts
    attempted = 1
    #: spans dropped before analysis (see analyze.load_spans)
    drop = ()

    def __init__(self, scratch, seed, deadline):
        self.scratch = scratch
        self.seed = seed
        self.deadline = deadline
        self.cache = os.path.join(scratch, "cache")
        os.makedirs(self.cache)

    def prepare(self):
        """One-time set-up before the first operation; may run again."""

    def setup(self, index, spans):
        """Per-operation set-up; returns the operation's state.

        ``spans`` is the spans file of a traced operation, else None.
        """
        return {"index": index, "spans": spans}

    def run(self, state):
        raise NotImplementedError

    def teardown(self, state):
        """Undo ``setup`` (stop servers)."""

    def stderr(self, index):
        return os.path.join(self.scratch, "op%d.stderr" % index)

    def fill(self, args):
        """Fill an empty cache with ``args``; returns their output."""
        shutil.rmtree(self.cache)
        os.makedirs(self.cache)
        outcome = run_command(args, self.cache, self.deadline,
                              stderr_path=self.stderr(-1))
        if outcome.failures:
            raise RuntimeError("set-up failed: %s" % outcome.failures[0])
        return outcome.output


class ColdAll(Workload):
    name = "cold_all"
    args = ("all", "--scale", str(SCALE))
    reference = "all-s%s.txt" % SCALE

    def setup(self, index, spans):
        cache = os.path.join(self.scratch, "op%d" % index)
        os.makedirs(cache)
        return {"cache": cache, "index": index, "spans": spans}

    def run(self, state):
        outcome = run_command(self.args, state["cache"], self.deadline,
                              spans=state["spans"],
                              stderr_path=self.stderr(state["index"]))
        outcome.check(outcome.output == reference_text(self.reference),
                      "output differs from reference/%s" % self.reference)
        outcome.extra["paper_acc_err_pp"] = analyze.paper_error(
            analyze.table3_rows(outcome.output))
        shutil.rmtree(state["cache"], ignore_errors=True)
        return outcome


class SweepWarm(Workload):
    name = "sweep_warm"
    args = ("--scale", str(SCALE), "--benchmarks") + SWEEP_BENCHMARKS
    reference = "sweeps-s%s-%s.txt" % (SCALE, "-".join(SWEEP_BENCHMARKS))

    def prepare(self):
        self.fill(("table3",) + self.args)

    def run(self, state):
        outcome = run_command(("sweeps",) + self.args, self.cache,
                              self.deadline, spans=state["spans"],
                              stderr_path=self.stderr(state["index"]))
        outcome.check(outcome.output == reference_text(self.reference),
                      "output differs from reference/%s" % self.reference)
        return outcome


class Conformance(Workload):
    name = "conformance"

    def prepare(self):
        # Fills the golden tables' trace cache, so operations replay it.
        self.fill(("conformance", "--seeds", "1"))

    def run(self, state):
        outcome = run_command(
            ("conformance", "--seeds", str(CONFORMANCE_SEEDS)), self.cache,
            self.deadline, spans=state["spans"], first_seed=self.seed,
            stderr_path=self.stderr(state["index"]))
        outcome.check("RESULT: PASS" in outcome.output,
                      "no 'RESULT: PASS' in the report")
        return outcome


class Campaign(Workload):
    name = "campaign"
    drop = ("cli.main",)
    cells = [(benchmark, scheme["label"]) for benchmark in CAMPAIGN_BENCHMARKS
             for scheme in CAMPAIGN_SCHEMES]
    attempted = len(cells)

    def prepare(self):
        if os.path.abspath("src") not in sys.path:
            sys.path.insert(0, os.path.abspath("src"))
        text = self.fill(("table3", "--scale", str(SCALE)))
        self.table3 = analyze.table3_rows(text)
        # A fixed order: the order sets which shards run last, which moves
        # wall_s by 20% between orders.
        self.spec = {"kind": "sweep", "benchmarks": list(CAMPAIGN_BENCHMARKS),
                     "schemes": list(CAMPAIGN_SCHEMES), "scale": SCALE}

    def setup(self, index, spans):
        # A fresh journal: a reused one resolves every cell from disk.
        shutil.rmtree(os.path.join(self.cache, "service"),
                      ignore_errors=True)
        server = Child(("serve", "--workers", str(nproc()), "--port", "0"),
                       self.cache, self.deadline, spans=spans,
                       stderr_path=self.stderr(index))
        line = server.readline()
        if not line.startswith("serving on http://127.0.0.1:"):
            server.interrupt()
            server.finish()
            raise RuntimeError("serve did not start: %r" % line)
        return {"server": server, "url": line.split()[-1], "spans": spans}

    def run(self, state):
        spans = state["spans"]
        from repro.service.client import ServiceClient

        client = ServiceClient(state["url"], timeout=60.0)
        seen = {}
        started = time.monotonic()
        campaign = client.submit(self.spec)["id"]
        since, status = 0, "running"
        while status == "running" and time.monotonic() < self.deadline:
            payload = client.results(campaign, since=since, wait=10.0)
            now = time.monotonic()
            for event in payload["events"]:
                seen.setdefault((event["row"], event["column"]),
                                (now - started, event["status"]))
            since, status = payload["next"], payload["status"]
        tables = client.tables(campaign)
        ended = time.monotonic()

        server = state.pop("server")
        server.interrupt()
        code, _output, rss, _ended = server.finish()
        outcome = Outcome(ended - started, rss, code, tables["text"],
                          [spans] if spans else [], (started, ended))
        outcome.attempted = self.attempted
        outcome.extra["cell_s"] = [latency for latency, _ in seen.values()]
        self._check(outcome, status, tables, seen)
        return outcome

    def _check(self, outcome, status, tables, seen):
        """Failures are counted per cell, plus one for the server."""
        outcome.check(outcome.code == 0, "serve exit code %s" % outcome.code,
                      ["serve"])
        outcome.check(status == "done", "campaign ended %s" % status)
        outcome.check(not tables["degraded"],
                      "degraded cells: %s" % tables["missing"])
        undone = [cell for cell in self.cells
                  if seen.get(cell, (None, None))[1] != "done"]
        outcome.check(not undone, "%d of %d cells not resolved done: %s"
                      % (len(undone), len(self.cells), undone[:5]), undone)
        headers = tables["headers"]
        for row in tables["rows"]:
            reference = self.table3.get(row[0], {})
            for column, value in zip(headers[1:], row[1:]):
                if value is None:
                    continue
                if column in TABLE3_COLUMN:
                    # Table 3 prints percent to one decimal, the campaign
                    # table fractions to four: both round half a unit.
                    expected = reference.get(TABLE3_COLUMN[column])
                    outcome.check(
                        expected is not None
                        and abs(100.0 * value - expected) <= 0.055 + 1e-9,
                        "%s/%s = %s, table3 says %s"
                        % (row[0], column, value, expected),
                        [(row[0], column)])

    def teardown(self, state):
        server = state.get("server")
        if server is not None:
            server.interrupt()
            server.finish()


WORKLOADS = {workload.name: workload
             for workload in (ColdAll, SweepWarm, Conformance, Campaign)}
