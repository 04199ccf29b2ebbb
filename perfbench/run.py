#!/usr/bin/env python3
"""Serving benchmark for the gfq subgraph-query server.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-recurring --seed 1 --seconds 30 --trace 0

Builds `gfq` and the benchmark's helper (`perfbench/pbtool.exe`) with dune,
generates the workload's inputs from --seed, starts the server process(es),
runs a fixed warm-up pass, then drives a closed loop for --seconds and checks
every reply against an oracle computed apart from the executor (`Naive`).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones (see README.md).

`--self-test` runs the output checker against known-bad and known-good
replies and exits.
"""

import argparse
import bisect
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

GFQ = os.path.join("_build", "default", "bin", "gfq.exe")
TOOL = os.path.join("_build", "default", "perfbench", "pbtool.exe")
WORK = ".perfbench_work"
CACHE = os.path.join(WORK, "cache")
SETUPS = 3  # set-ups per run unless the workload says; setup_s is their median
MUTATIONS = 200000  # length of read-write's mutation stream
WRITE_PERIOD_S = 0.01  # read-write sends ten writes per period: 1000 writes/s

# Workload make-up. Datasets are the repository's seeded generators; only
# the seeded inputs derived from them (query text, mutation lines, a
# snapshot) reach the program.
WORKLOADS = {
    # paper-recurring's rounds of 30 send Q9 (about 25 ms) 11 times and
    # Q11 (about 40 ms) 7 times. The median then falls in the middle of
    # Q9's latency cluster instead of among the few-ms templates, whose
    # time is mostly the socket round trip, and the 95th percentile in the
    # middle of Q12's (second slowest), not on the edge between two
    # templates. One domain: on two, every query waits for the slower of
    # the host's two vCPUs (see README.md, "Steadying").
    "paper-recurring": {"dataset": "google", "scale": 0.02, "serve": ["--domains", "1"],
                        "renumberings": 8, "extra": {9: 10, 11: 6}},
    "adhoc-labeled": {"dataset": "human", "scale": 1.0, "serve": ["--domains", "1"],
                      "clients": 2, "pool": 6000, "classes": 12, "warmup": 36},
    # read-write's set-up takes about 0.15 s, most of it the genesis
    # store's fsyncs, which the shared disk makes jittery: nine set-ups
    # give a steadier median at little cost.
    "read-write": {"dataset": "amazon", "scale": 0.25, "serve": ["--domains", "2"], "setups": 9},
    "cluster-rows": {"dataset": "amazon", "scale": 0.25, "templates": [1, 2, 3, 4, 5]},
}

E2E_UNITS = {"setup_s": "s", "query_p50_ms": "ms", "query_p95_ms": "ms",
             "query_throughput_qps": "1/s", "server_peak_rss_mb": "MB"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# --- spans (traced runs only) ------------------------------------------------

class Spans:
    """Spans around the benchmark's calls into the program, kept in memory
    and written out at the end as Chrome-trace JSON."""

    def __init__(self, on):
        self.on = on
        self.items = []  # (id, parent, layer, name, t0, t1, req)
        self.lock = threading.Lock()
        self.next = 1
        self.local = threading.local()

    def start(self, layer, name, req=0):
        if not self.on:
            return None
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        with self.lock:
            sid = self.next
            self.next += 1
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return (sid, parent, layer, name, time.time(), req)

    def end(self, tok):
        if tok is None:
            return
        sid, parent, layer, name, t0, req = tok
        self.local.stack.pop()
        with self.lock:
            self.items.append((sid, parent, layer, name, t0, time.time(), req))

    def add_external(self, path, base_id, parent_id):
        """Merge the helper's spans (JSON lines, ids offset by base_id; its
        root spans become children of parent_id)."""
        with open(path) as f:
            for line in f:
                s = json.loads(line)
                parent = s["parent"] + base_id if s["parent"] else parent_id
                self.items.append((s["id"] + base_id, parent, s["layer"], s["name"],
                                   s["ts_us"] / 1e6, (s["ts_us"] + s["dur_us"]) / 1e6, 0))

    def chrome(self):
        ev = []
        for sid, parent, layer, name, t0, t1, req in self.items:
            ev.append({"name": name, "cat": layer, "ph": "X", "pid": 1,
                       "tid": 1 if layer in ("client", "setup", "oracle") else 2,
                       "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                       "args": {"id": sid, "parent": parent, "req": req}})
        return {"traceEvents": ev, "displayTimeUnit": "ms"}

    def self_times(self):
        """Per layer: span time minus the part of it covered by child spans."""
        kids = {}
        for s in self.items:
            kids.setdefault(s[1], []).append((s[4], s[5]))
        out = {}
        for sid, _, layer, _, t0, t1, _ in self.items:
            covered, end = 0.0, t0
            for a, b in sorted(kids.get(sid, [])):
                a, b = max(a, end), min(b, t1)
                if b > a:
                    covered += b - a
                    end = b
            out[layer] = out.get(layer, 0.0) + (t1 - t0 - covered)
        return out


SPANS = Spans(False)


# --- processes and sockets ----------------------------------------------------

class Proc:
    def __init__(self, argv, cwd, log):
        self.log = open(log, "ab")
        self.p = subprocess.Popen(argv, cwd=cwd, stdout=self.log, stderr=subprocess.STDOUT,
                                  stdin=subprocess.DEVNULL)

    def peak_rss_mb(self):
        try:
            with open("/proc/%d/status" % self.p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self, sock=None):
        if self.p.poll() is None and sock:
            try:
                Conn(sock, timeout=5).call("shutdown")
            except OSError:
                pass
            try:
                self.p.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()
        self.log.close()


class Conn:
    def __init__(self, path, timeout=120):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.settimeout(timeout)
        self.s.connect(path)
        self.f = self.s.makefile("rb")

    def call(self, line):
        self.s.sendall(line.encode() + b"\n")
        r = self.f.readline()
        if not r:
            raise OSError("connection closed")
        return r.decode().rstrip("\n")

    def close(self):
        self.f.close()
        self.s.close()


def wait_ready(path, proc, timeout=90):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.p.poll() is not None:
            die("server exited during start-up (see %s)" % proc.log.name)
        try:
            c = Conn(path, timeout=10)
            r = c.call("ping")
            c.close()
            if '"pong"' in r:
                return
        except OSError:
            time.sleep(0.02)
    die("server did not answer ping within %ds" % timeout)


def run_tool(*args):
    r = subprocess.run([TOOL] + [str(a) for a in args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("pbtool %s failed: %s" % (args[0], r.stderr.strip()))
    return r


def write_lines(path, lines):
    with open(path, "w") as f:
        for l in lines:
            f.write(l + "\n")


def read_lines(path):
    with open(path) as f:
        return [l.rstrip("\n") for l in f if l.strip()]


def server_metric(conn, name):
    """Sum of one counter in the server's Prometheus exposition."""
    expo = json.loads(conn.call("metrics"))["metrics"]
    total = 0.0
    for line in expo.splitlines():
        if line.startswith(name) and (len(line) == len(name) or line[len(name)] in " {"):
            total += float(line.split()[-1])
    return total


# --- queries ------------------------------------------------------------------

def templates():
    path = os.path.join(CACHE, "templates.tsv")
    if not os.path.exists(path):
        write_lines(path, run_tool("templates").stdout.splitlines())
    out = {}
    for line in read_lines(path):
        i, n, edges = line.split("\t")
        out[int(i)] = (int(n), [tuple(map(int, e.split("-"))) for e in edges.split(",")])
    return out


def template_dsl(n, edges):
    return ", ".join("a%d->a%d" % (s + 1, d + 1) for s, d in edges)


def renumbered_dsl(rng, n, edges):
    """The template under a seeded renaming of its vertices and a shuffled
    edge order: isomorphic text the plan cache must recognise."""
    names = ["v%d" % k for k in rng.sample(range(10, 100), n)]
    es = list(edges)
    rng.shuffle(es)
    return ", ".join("%s->%s" % (names[s], names[d]) for s, d in es)


def naive_counts(dataset, scale, dsl_lines, rows=False):
    """Naive counts of each query, cached by content under the work dir."""
    digest = hashlib.sha1("\n".join(dsl_lines).encode()).hexdigest()[:16]
    key = "%s-%s-%s" % (dataset, scale, digest)
    qf = os.path.join(CACHE, key + ".dsl")
    out = os.path.join(CACHE, key + (".rows" if rows else ".counts"))
    if not os.path.exists(out):
        write_lines(qf, dsl_lines)
        args = ["naive", dataset, scale, qf, out + ".tmp"]
        if rows:
            args.append(out + ".r")
        run_tool(*args)
        os.replace(out + ".tmp", out)
    counts = [int(x) for x in read_lines(out)]
    return counts, (out + ".r") if rows else None


# --- output checks --------------------------------------------------------------

def check_count(reply, expected):
    """A count-only run reply passes when ok, completed, and exact."""
    return (reply.get("ok") is True and reply.get("outcome") == "completed"
            and reply.get("matches") == expected)


def rows_match(rows, expected):
    """A rows reply passes when, under one column order, its rows are
    distinct and are exactly the expected matches. The server lists rows in
    the plan's column order and does not say which (so every order of the
    expected columns is tried, pruned by the first row)."""
    if len(rows) != len(expected):
        return False
    if not rows:
        return True
    k = len(rows[0])
    if any(len(r) != k for r in rows):
        return False
    tuples = [tuple(r) for r in rows]
    if len(set(tuples)) != len(tuples):
        return False
    first = tuples[0]
    for perm in itertools.permutations(range(k)):
        # reply column j holds expected column perm[j]
        cand = [0] * k
        for j in range(k):
            cand[perm[j]] = first[j]
        if tuple(cand) not in expected:
            continue
        ok = True
        for t in tuples:
            c = [0] * k
            for j in range(k):
                c[perm[j]] = t[j]
            if tuple(c) not in expected:
                ok = False
                break
        if ok:
            return True
    return False


def self_test():
    """The checker must reject a dropped row, an altered row and a count
    off by one, and accept a correctly permuted row set."""
    rng = random.Random(5)
    expected = set()
    while len(expected) < 300:
        expected.add((rng.randrange(50), rng.randrange(50), rng.randrange(50)))
    good = [(c, a, b) for a, b, c in expected]  # columns rotated
    rng.shuffle(good)
    dropped = good[1:]
    altered = list(good)
    altered[7] = (altered[7][0], altered[7][1], altered[7][2] + 1000)
    reply = {"ok": True, "outcome": "completed", "matches": 300}
    off = dict(reply, matches=301)
    cases = [("dropped row", rows_match(dropped, expected), False),
             ("altered row", rows_match(altered, expected), False),
             ("count off by one", check_count(off, 300), False),
             ("duplicated row", rows_match(good[:-1] + [good[0]], expected), False),
             ("permuted rows", rows_match(good, expected), True),
             ("exact count", check_count(reply, 300), True)]
    bad = [name for name, got, want in cases if got != want]
    for name, got, want in cases:
        print("self-test %-18s %s" % (name, "ok" if got == want else "WRONG"))
    return not bad


# --- statistics -------------------------------------------------------------------

def pct(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    if not s:
        return 0.0
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def med(values):
    return statistics.median(values) if values else 0.0


# --- the closed loop ----------------------------------------------------------------

class Recorder:
    """Per-request records of the measured phase: (kind, tag, send, recv,
    raw reply line)."""

    def __init__(self):
        self.items = []
        self.lines = []
        self.traced = []
        self.lock = threading.Lock()
        self.n = 0

    def ticket(self):
        with self.lock:
            self.n += 1
            return self.n

    def add(self, rec, line, traced):
        with self.lock:
            self.items.append(rec)
            self.lines.append(line)
            self.traced.append(traced)


def timed_call(conn, line, rec, kind, tag, layer="client"):
    """One request, timed from sending the line to reading the full reply.
    In a traced run half the requests, picked by a hash of their ticket so
    that no round structure lines up with the choice, also record a span;
    the two halves give the tracing overhead."""
    n = rec.ticket()
    tok = SPANS.start(layer, kind, req=n) if (n * 2654435761) >> 16 & 1 else None
    t0 = time.perf_counter()
    r = conn.call(line)
    t1 = time.perf_counter()
    SPANS.end(tok)
    rec.add((kind, tag, t0, t1, r), line, tok is not None)
    return r


def loop_clients(sock, n_clients, make_round, seconds, rec, kind):
    """n_clients closed-loop connections sharing one queue of rounds; each
    sends its next request only after the previous reply. A new round is
    queued only while time remains, so every run attempts whole rounds.
    Returns the measured wall time."""
    stop_at = time.perf_counter() + seconds
    queue, lock, errors = [], threading.Lock(), []

    def take():
        with lock:
            if not queue:
                if time.perf_counter() >= stop_at:
                    return None
                queue.extend(make_round())
            return queue.pop(0)

    def client():
        c = Conn(sock)
        try:
            item = take()
            while item is not None:
                tag, line = item
                timed_call(c, line, rec, kind, tag)
                item = take()
        except OSError as e:
            errors.append(str(e))
        finally:
            c.close()

    t0 = time.perf_counter()
    ts = [threading.Thread(target=client) for _ in range(n_clients)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    if errors:
        die("client connection failed: " + errors[0])
    return time.perf_counter() - t0


def latency_ms(rec, kind):
    return [(t1 - t0) * 1e3 for k, _, t0, t1, _ in rec.items if k == kind]


# --- workloads ------------------------------------------------------------------------

PROCS = []  # every process started, stopped on any exit path


def spawn(argv, cwd, name):
    p = Proc([os.path.abspath(GFQ)] + argv, cwd, os.path.join(cwd, name + ".log"))
    PROCS.append(p)
    return p


def stop_all():
    while PROCS:
        p = PROCS.pop()
        p.stop()


class Workload:
    """One workload: inputs from the seed, server set-up, a fixed warm-up
    pass, the measured closed loop, and the output checks."""

    def __init__(self, name, seed, seconds, work):
        self.name, self.seed, self.seconds, self.work = name, seed, seconds, work
        self.cfg = WORKLOADS[name]
        self.ds, self.scale = self.cfg["dataset"], self.cfg["scale"]
        self.rng = random.Random("%s/%d" % (name, seed))
        self.rec = Recorder()  # measured phase
        self.warm = Recorder()  # warm-up pass of the kept set-up
        self.procs = []  # (proc, socket) of the current set-up
        self.failures = []
        self.extra_attempted = 0

    # Paths handed to the servers are relative to the work dir (their cwd),
    # which keeps unix socket paths short wherever the checkout lives.
    def path(self, name):
        return os.path.join(self.work, name)

    def serve(self, name, argv):
        p = spawn(["serve", "--socket", name + ".sock"] + argv, self.work, name)
        self.procs.append((p, self.path(name + ".sock")))
        return p

    def stop(self):
        for p, sock in reversed(self.procs):
            p.stop(sock)
            if p in PROCS:
                PROCS.remove(p)
        self.procs = []

    def rss_mb(self):
        return sum(p.peak_rss_mb() for p, _ in self.procs)

    def fail(self, what):
        if len(self.failures) < 5:
            print("FAILED: " + what[:300], file=sys.stderr)
        self.failures.append(what)

    def start(self):
        p = self.serve("s", ["--dataset", self.ds, "--scale", str(self.scale)] + self.cfg["serve"])
        wait_ready(self.path("s.sock"), p)

    def start_cluster(self):
        """A 1x2 cluster on a snapshot of the workload's graph: two workers
        attaching it, each shard naming the other worker as replica, and a
        coordinator with default flags."""
        tok = SPANS.start("setup", "pbtool snapshot")
        store = self.path("store")
        shutil.rmtree(store, ignore_errors=True)
        run_tool("snapshot", self.ds, self.scale, store)
        SPANS.end(tok)
        with open(self.path("workers.conf"), "w") as f:
            f.write("shard 0 unix:w0.sock unix:w1.sock\nshard 1 unix:w1.sock unix:w0.sock\n")
        ws = [self.serve("w%d" % i, ["--worker", "w%d" % i, "--attach-snapshot", "store"])
              for i in range(2)]
        for i, w in enumerate(ws):
            wait_ready(self.path("w%d.sock" % i), w)
        c = self.serve("c", ["--coordinator", "workers.conf"])
        wait_ready(self.path("c.sock"), c)

    def group(self, tag):
        """Requests of one group do the same work (for the overhead line)."""
        return tag

    # Each workload defines prepare (inputs from the seed), warmup, measure
    # (returns the wall time), check (returns the operations attempted) and
    # sample (its distinct queries as DSL lines, for the in-process probes).


def reply_json(raw):
    try:
        return json.loads(raw)
    except ValueError:
        return {"ok": False, "raw": raw[:200]}


class PaperRecurring(Workload):
    def prepare(self):
        tpl = templates()
        self.ids, self.tpl = sorted(tpl), tpl
        r = self.cfg["renumberings"]
        self.text = {t: [renumbered_dsl(self.rng, *tpl[t]) for _ in range(r)] for t in self.ids}
        counts, _ = naive_counts(self.ds, self.scale, [template_dsl(*tpl[t]) for t in self.ids])
        self.expected = dict(zip(self.ids, counts))
        self.order_rng = random.Random(self.rng.random())

    def warmup(self):
        # The warm-up sends each template's own text, the same for every
        # seed, twice. The plan it caches then serves every renaming. A
        # renamed first arrival would pick a plan that varies with the
        # names, and so would the drift-triggered replan that some
        # templates' second run makes (Q13's takes over a second).
        self.warm = Recorder()
        c = Conn(self.path("s.sock"))
        for _ in range(2):
            for t in self.ids:
                timed_call(c, "run q=" + template_dsl(*self.tpl[t]), self.warm, "query", t,
                           layer="setup")
        c.close()

    def measure(self):
        r = self.cfg["renumberings"]
        rounds = itertools.count()

        def make_round():
            # Q1-Q14 once each, plus the extra copies of the middle
            # templates (see WORKLOADS), in seeded order; copies of one
            # template take successive renamings.
            k = next(rounds)
            order = [(t, j) for t in self.ids for j in range(1 + self.cfg["extra"].get(t, 0))]
            self.order_rng.shuffle(order)
            return [(t, "run q=" + self.text[t][(k + j) % r]) for t, j in order]

        return loop_clients(self.path("s.sock"), 1, make_round, self.seconds, self.rec, "query")

    def check(self):
        for rec in (self.warm, self.rec):
            for _, t, _, _, raw in rec.items:
                if not check_count(reply_json(raw), self.expected[t]):
                    self.fail("Q%d: expected %d, got %s" % (t, self.expected[t], raw[:200]))
        return len(self.rec.items) + len(self.warm.items)

    def sample(self):
        return [template_dsl(*self.tpl[t]) for t in self.ids]


class AdhocLabeled(Workload):
    def prepare(self):
        key = os.path.join(CACHE, "adhoc-%s-%s-%d-%d" % (self.ds, self.scale, self.seed,
                                                          self.cfg["pool"]))
        if not os.path.exists(key):
            run_tool("adhoc", self.ds, self.scale, self.seed, self.cfg["pool"], key + ".tmp")
            os.replace(key + ".tmp", key)
        self.pool = read_lines(key)
        warm = os.path.join(CACHE, "adhoc-%s-%s-warmup" % (self.ds, self.scale))
        if not os.path.exists(warm):
            run_tool("adhoc", self.ds, self.scale, 0, self.cfg["warmup"], warm + ".tmp")
            os.replace(warm + ".tmp", warm)
        self.warm_pool = read_lines(warm)
        self.order_rng = random.Random(self.rng.random())

    def warmup(self):
        self.warm = Recorder()
        c = Conn(self.path("s.sock"))
        for i, q in enumerate(self.warm_pool):
            timed_call(c, "run q=" + q, self.warm, "query", ("w", i), layer="setup")
        c.close()

    def measure(self):
        # The pool comes in rounds of one query per (size, density) class,
        # so every run sends the same mix whatever the seed.
        k = self.cfg["classes"]
        rounds = itertools.count()

        def make_round():
            n = next(rounds)
            if (n + 1) * k > len(self.pool):
                die("adhoc pool exhausted; raise its size")
            idx = list(range(n * k, (n + 1) * k))
            self.order_rng.shuffle(idx)
            return [(("m", i), "run q=" + self.pool[i]) for i in idx]

        return loop_clients(self.path("s.sock"), self.cfg["clients"], make_round, self.seconds,
                            self.rec, "query")

    def check(self):
        items = self.warm.items + self.rec.items
        dsl = [self.warm_pool[i] if src == "w" else self.pool[i] for _, (src, i), _, _, _ in items]
        qf, out = self.path("sent.dsl"), self.path("sent.counts")
        write_lines(qf, dsl)
        tok = SPANS.start("oracle", "Naive.count")
        run_tool("naive", self.ds, self.scale, qf, out)
        SPANS.end(tok)
        for (_, tag, _, _, raw), want, q in zip(items, map(int, read_lines(out)), dsl):
            if want < 1 or not check_count(reply_json(raw), want):
                self.fail("%s: expected %d, got %s" % (q, want, raw[:200]))
        return len(items)

    def sample(self):
        return self.pool[:40]

    def group(self, tag):
        return tag[1] % self.cfg["classes"]  # size and density class


class ClusterRows(Workload):
    def prepare(self):
        tpl = templates()
        self.ids = self.cfg["templates"]
        self.tpl = tpl
        counts, prefix = naive_counts(self.ds, self.scale,
                                      [template_dsl(*tpl[t]) for t in self.ids], rows=True)
        self.expected = {}
        for j, t in enumerate(self.ids):
            self.expected[t] = set(tuple(map(int, l.split())) for l in read_lines("%s.%d" % (prefix, j)))
            assert len(self.expected[t]) == counts[j]
        self.order_rng = random.Random(self.rng.random())
        self.text_rng = random.Random(self.rng.random())

    def start(self):
        self.start_cluster()

    def warmup(self):
        # One distinct query at a time, so both workers fill their
        # catalogues in the same order and choose the same plans.
        self.warm = Recorder()
        c = Conn(self.path("c.sock"))
        for t in self.ids:
            timed_call(c, "run rows q=" + template_dsl(*self.tpl[t]), self.warm, "query", t,
                       layer="setup")
        c.close()

    def measure(self):
        def make_round():
            order = list(self.ids)
            self.order_rng.shuffle(order)
            return [(t, "run rows q=" + renumbered_dsl(self.text_rng, *self.tpl[t])) for t in order]

        return loop_clients(self.path("c.sock"), 1, make_round, self.seconds, self.rec, "query")

    def check(self):
        for rec in (self.warm, self.rec):
            for _, t, _, _, raw in rec.items:
                r = reply_json(raw)
                rows = r.get("rows", [])
                if not (check_count(r, len(self.expected[t])) and rows_match(rows, self.expected[t])):
                    self.fail("Q%d rows: expected %d rows, got %s" % (t, len(self.expected[t]), raw[:200]))
        return len(self.rec.items) + len(self.warm.items)

    def sample(self):
        return [template_dsl(*self.tpl[t]) for t in self.ids]


class ReadWrite(Workload):
    READS = {"Q1": "a1->a2, a2->a3, a1->a3",
             "Q3": "a1->a2, a1->a3, a2->a3, a2->a4, a3->a4"}

    def prepare(self):
        key = os.path.join(CACHE, "muts-%s-%s-%d-%d" % (self.ds, self.scale, self.seed, MUTATIONS))
        if not os.path.exists(key):
            run_tool("mutations", self.ds, self.scale, self.seed, MUTATIONS, key + ".tmp")
            os.replace(key + ".tmp", key)
        self.muts = read_lines(key)
        self.wrec = Recorder()

    def start(self):
        shutil.rmtree(self.path("store"), ignore_errors=True)
        p = self.serve("s", ["--data-dir", "store", "--dataset", self.ds, "--scale",
                             str(self.scale)] + self.cfg["serve"])
        wait_ready(self.path("s.sock"), p)

    def warmup(self):
        self.warm = Recorder()
        c = Conn(self.path("s.sock"))
        for _ in range(2):
            for name in sorted(self.READS):
                timed_call(c, "run q=" + self.READS[name], self.warm, "query", name, layer="setup")
        c.close()

    def measure(self):
        # One connection sends a round of ten mutations every WRITE_PERIOD_S
        # while another runs Q1/Q3 counts in closed loop. The writes are
        # paced, not closed-loop, so every run makes the same number of
        # writes and merges whatever the host's speed. Reads come in rounds
        # of Q1, Q3, Q3: with Q1 and Q3 one to one, the median would fall
        # in the gap between their two latency clusters.
        sock = self.path("s.sock")
        muts = iter(enumerate(self.muts))
        walls, errors = {}, []

        def writer():
            c = Conn(sock)
            t0 = time.perf_counter()
            try:
                for k in range(int(round(self.seconds / WRITE_PERIOD_S))):
                    delay = t0 + k * WRITE_PERIOD_S - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    for i, line in itertools.islice(muts, 10):
                        timed_call(c, line, self.wrec, "write", i)
            except OSError as e:
                errors.append(str(e))
            finally:
                c.close()
            walls["w"] = time.perf_counter() - t0

        c = Conn(sock)
        syncs0, bytes0 = server_metric(c, "gf_wal_syncs_total"), dir_bytes(self.path("store"))
        t = threading.Thread(target=writer)
        t.start()
        wall = loop_clients(sock, 1, lambda: [(n, "run q=" + self.READS[n]) for n in ("Q1", "Q3", "Q3")],
                            self.seconds, self.rec, "query")
        t.join()
        if errors:
            die("writer connection failed: " + errors[0])
        if len(self.wrec.items) % 10:
            die("mutation stream exhausted; raise its length")
        syncs = server_metric(c, "gf_wal_syncs_total") - syncs0
        grown = dir_bytes(self.path("store")) - bytes0
        c.close()
        wl = latency_ms(self.wrec, "write")
        n = max(1, len(wl))
        print("writes: %d acked in %.1f s (%.0f/s), ack p50 %.3f ms, p99 %.3f ms" % (
            len(wl), walls["w"], len(wl) / walls["w"], pct(wl, 50), pct(wl, 99)))
        self.wal = {"wal.syncs_per_write": syncs / n, "wal.bytes_per_write": grown / n}
        return wall

    def check(self):
        acks = []  # (recv time, lsn, graph_version, mutation)
        for _, i, _, t1, raw in self.wrec.items:
            r = reply_json(raw)
            if not (r.get("ok") is True and r.get("applied") is True
                    and r.get("durable", -1) >= r.get("lsn", 0)):
                self.fail("write %s: %s" % (self.muts[i], raw[:200]))
                continue
            acks.append((t1, r["lsn"], r["graph_version"], self.muts[i]))
        # The final state: fold the overlay, then the single-edge pattern
        # must count exactly the benchmark's own live edges.
        c = Conn(self.path("s.sock"))
        ck = reply_json(c.call("checkpoint"))
        final = reply_json(c.call("run q=a1->a2"))
        c.close()
        last_lsn = acks[-1][1] if acks else 0
        versions = sorted({0, last_lsn} | {a[2] for a in acks}
                          | {reply_json(raw).get("graph_version", 0) for *_, raw in self.rec.items})
        write_lines(self.path("acked"), ["%d %s" % (a[1], a[3]) for a in acks])
        write_lines(self.path("versions"), [str(v) for v in versions])
        write_lines(self.path("reads.dsl"), [self.READS[k] for k in sorted(self.READS)])
        tok = SPANS.start("oracle", "Naive.count(rebuilt graphs)")
        run_tool("rwcheck", self.ds, self.scale, self.path("acked"), self.path("versions"),
                 self.path("reads.dsl"), self.path("truth"))
        SPANS.end(tok)
        truth = {}
        for line in read_lines(self.path("truth")):
            v, edges, *cs = map(int, line.split())
            truth[v] = {"edges": edges, "Q1": cs[0], "Q3": cs[1]}
        live = truth[last_lsn]["edges"]
        if not (ck.get("ok") is True and check_count(final, live)):
            self.fail("final single-edge count: expected %d live edges, got %s" % (live, final))
        # A read passes when its count is that of a merged version published
        # between its send and its reply. Publication is seen through the
        # acks: the window runs from the last version acked before the send
        # to the first acked after the reply.
        ack_t = [a[0] for a in acks]
        ack_v = [a[2] for a in acks]
        self.mislabels = 0
        for rec in (self.warm, self.rec):
            for _, name, t0, t1, raw in rec.items:
                r = reply_json(raw)
                lo_i = bisect.bisect_left(ack_t, t0) - 1
                hi_i = bisect.bisect_right(ack_t, t1)
                lo = ack_v[lo_i] if lo_i >= 0 else 0
                hi = ack_v[hi_i] if hi_i < len(ack_v) else (ack_v[-1] if ack_v else 0)
                window = [v for v in versions if lo <= v <= hi]
                ok = any(check_count(r, truth[v][name]) for v in window)
                if not ok:
                    self.fail("%s read in versions %s: counts %s, got %s" % (
                        name, window, [truth[v][name] for v in window], raw[:200]))
                elif r.get("graph_version") in truth and truth[r["graph_version"]][name] != r.get("matches"):
                    self.mislabels += 1
        self.merges = len({a[2] for a in acks} - {0})
        return len(self.warm.items) + len(self.rec.items) + len(self.wrec.items) + 1

    def sample(self):
        return [self.READS[k] for k in sorted(self.READS)]


CLASSES = {"paper-recurring": PaperRecurring, "adhoc-labeled": AdhocLabeled,
           "read-write": ReadWrite, "cluster-rows": ClusterRows}


def dir_bytes(d):
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)
               if os.path.isfile(os.path.join(d, f)))


def cluster_probe(w, sample_q):
    """Direct shard requests to each worker versus the same query through
    the coordinator, plus one captured shard reply for the codec probe.
    Uses the live cluster on cluster-rows; elsewhere it replaces the
    workload's server with a 1x2 cluster on a snapshot of its graph."""
    if not isinstance(w, ClusterRows):
        w.stop()
        w.start_cluster()
    direct, coord = [], []
    captured = None
    cs = [Conn(w.path("w%d.sock" % i)) for i in range(2)]
    cc = Conn(w.path("c.sock"))
    for _ in range(12):
        parts, part_matches = [], 0
        for i in range(2):
            tok = SPANS.start("cluster", "shard part=%d/2" % i)
            t0 = time.perf_counter()
            raw = cs[i].call("shard part=%d/2 rows q=%s" % (i, sample_q))
            parts.append(time.perf_counter() - t0)
            SPANS.end(tok)
            part_matches += reply_json(raw).get("matches", 0)
            if captured is None or len(raw) > len(captured):
                captured = raw
        tok = SPANS.start("cluster", "coordinator run rows")
        t0 = time.perf_counter()
        raw = cc.call("run rows q=" + sample_q)
        coord.append(time.perf_counter() - t0)
        SPANS.end(tok)
        # The two disjoint parts must add up to the coordinator's answer.
        if not check_count(reply_json(raw), part_matches):
            w.fail("cluster probe: parts sum to %d, coordinator says %s" % (part_matches, raw[:200]))
        w.extra_attempted += 1
        direct.append(max(parts))
    st = reply_json(cc.call("stats"))
    for c in cs + [cc]:
        c.close()
    with open(w.path("captured.reply"), "w") as f:
        f.write(captured + "\n")
    return {"cluster.direct_shard_ms": med(direct) * 1e3,
            "cluster.coord_overhead_ms": med([c - d for c, d in zip(coord, direct)]) * 1e3,
            "cluster.hedges": float(st.get("hedges", 0)),
            "cluster.failovers": float(st.get("failovers", 0))}


def stats_of(w):
    """Summed stats and catalogue invalidations over the query servers."""
    socks = [s for p, s in w.procs if s.endswith(("s.sock", "w0.sock", "w1.sock"))]
    total = {}
    for s in socks:
        c = Conn(s)
        st = reply_json(c.call("stats"))
        st["catalog_invalidations"] = server_metric(c, "gf_server_catalog_invalidations_total")
        c.close()
        for k, v in st.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                total[k] = total.get(k, 0) + v
    return total


def exact_report(w, warm):
    """Counts that must repeat exactly for a seed: the T0 counters and
    catalogue size of the in-process probe over the workload's query
    sample, and the plan-cache hits/misses of the warm-up pass."""
    qf = w.path("sample.dsl")
    write_lines(qf, w.sample())
    out = w.path("exact.json")
    run_tool("exact", w.ds, w.scale, qf, out)
    with open(out) as f:
        ex = json.load(f)
    ex["warmup_plan_cache_hits"] = warm.get("plan_cache_hits", 0)
    ex["warmup_plan_cache_misses"] = warm.get("plan_cache_misses", 0)
    return ex


def run(args):
    w = CLASSES[args.workload](args.workload, args.seed, args.seconds,
                               os.path.join(WORK, "%s-%d" % (args.workload, os.getpid())))
    os.makedirs(w.work)
    os.makedirs(CACHE, exist_ok=True)
    w.prepare()
    setups = []
    n_setups = w.cfg.get("setups", SETUPS)
    for i in range(n_setups):
        tok = SPANS.start("setup", "set-up %d" % (i + 1))
        t0 = time.perf_counter()
        w.start()
        w.warmup()
        setups.append(time.perf_counter() - t0)
        SPANS.end(tok)
        if i < n_setups - 1:
            w.stop()
    if args.trace:
        SPANS.on = True
    before = stats_of(w)  # also the warm-up's plan-cache counts
    wall = w.measure()
    rss = w.rss_mb()
    after = stats_of(w)
    attempted = w.check()
    cluster = cluster_probe(w, w.sample()[0]) if args.trace else {}
    w.stop()
    if isinstance(w, ReadWrite):
        wal = dict(w.wal, **{"wal.merges": w.merges, "server.version_mislabels": w.mislabels})
    else:
        wal = {"wal.merges": 0, "server.version_mislabels": 0}
    lat = latency_ms(w.rec, "query")
    print("samples: %d queries (%d beyond p95); set-ups %s s" % (
        len(lat), sum(1 for x in lat if x > pct(lat, 95)), " ".join("%.3f" % x for x in setups)))
    ex = exact_report(w, before)
    print("EXACT " + json.dumps(ex, sort_keys=True))
    if args.trace:
        metrics = traced_metrics(w, before, after, wal, cluster)
        units = LAYER_UNITS
    else:
        metrics = {"setup_s": med(setups), "query_p50_ms": pct(lat, 50),
                   "query_p95_ms": pct(lat, 95), "query_throughput_qps": len(lat) / wall,
                   "server_peak_rss_mb": rss}
        units = E2E_UNITS
    shutil.rmtree(w.work, ignore_errors=True)
    print(json.dumps({"correct": not w.failures, "attempted": attempted + w.extra_attempted,
                      "failed": len(w.failures),
                      "metrics": {k: {"value": float(v), "unit": units[k]}
                                  for k, v in sorted(metrics.items())}}))


def traced_metrics(w, before, after, wal, cluster):
    m = {}
    replies = [(t0, t1, reply_json(raw), len(raw)) for _, _, t0, t1, raw in w.rec.items]
    m["server.queue_ms"] = med([r.get("queue_s", 0.0) * 1e3 for _, _, r, _ in replies])
    m["server.exec_ms"] = med([r.get("exec_s", 0.0) * 1e3 for _, _, r, _ in replies])
    m["server.overhead_ms"] = med([(t1 - t0 - r.get("queue_s", 0.0) - r.get("exec_s", 0.0)) * 1e3
                                   for t0, t1, r, _ in replies])
    m["server.retries"] = sum(r.get("retries", 0) for _, _, r, _ in replies)
    m["server.degraded"] = sum(1 for _, _, r, _ in replies if r.get("degraded"))
    m["server.catalog_invalidations"] = (after["catalog_invalidations"]
                                         - before["catalog_invalidations"])
    m["wire.reply_bytes"] = med([float(n) for *_, n in replies])
    for k in ("cache_hits", "cache_misses", "cache_evictions", "replans", "invalidations"):
        m["optimizer." + k] = (after.get("plan_cache_" + k.replace("cache_", ""), 0)
                               - before.get("plan_cache_" + k.replace("cache_", ""), 0))
    m.update(wal)
    m.update(cluster)
    # In-process probes of every layer, with spans merged into ours.
    qf, lines = w.path("sample.dsl"), w.path("lines.txt")
    write_lines(qf, w.sample())
    write_lines(lines, w.rec.lines)
    out, spans = w.path("layers.json"), w.path("layers.spans")
    tok = SPANS.start("probe", "pbtool layers")
    r = run_tool("layers", w.ds, w.scale, qf, lines, w.work, out, spans, w.path("captured.reply"))
    SPANS.end(tok)
    sys.stdout.write(r.stderr)
    with open(out) as f:
        layered = json.load(f)
    for k, v in layered.items():
        m.setdefault(k, v)  # the live figures above take precedence
    SPANS.add_external(spans, SPANS.next + 1000, tok[0])
    trace_dir = os.path.join(WORK, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tpath = os.path.join(trace_dir, "%s-%d.json" % (w.name, w.seed))
    with open(tpath, "w") as f:
        json.dump(SPANS.chrome(), f)
    print("chrome trace: %s (%d spans)" % (tpath, len(SPANS.items)))
    print("layer self time (s):")
    for layer, s in sorted(SPANS.self_times().items(), key=lambda kv: -kv[1]):
        print("  %-10s %9.4f" % (layer, s))
    # Half the requests carried a span: compare the two halves group by
    # group (mean latency per group, summed over the groups seen both
    # ways), so the mix cancels out.
    by = {}
    for (_, tag, t0, t1, _), traced in zip(w.rec.items, w.rec.traced):
        by.setdefault(w.group(tag), ([], []))[traced].append(t1 - t0)
    both = [(statistics.mean(a), statistics.mean(b)) for a, b in by.values() if a and b]
    off, on = sum(a for a, _ in both), sum(b for _, b in both)
    print("tracing overhead: %.3f ms with client spans vs %.3f ms without, summed over %d "
          "groups seen both ways: %+.2f%% (base: without)"
          % (on * 1e3, off * 1e3, len(both), (on / off - 1) * 100 if off else 0.0))
    return m



LAYER_UNITS = {
    "query.parse_us": "us",
    "catalog.fill_ms": "ms", "catalog.entries": "count", "catalog.qerror_p50": "ratio",
    "optimizer.dp_ms": "ms", "optimizer.cache_hit_us": "us", "optimizer.cache_hits": "count",
    "optimizer.cache_misses": "count", "optimizer.cache_evictions": "count",
    "optimizer.replans": "count", "optimizer.invalidations": "count",
    "exec.seq_ms": "ms", "exec.par_ms": "ms", "exec.icost": "count",
    "exec.intermediate": "count", "exec.output": "count", "exec.ei_cache_hits": "count",
    "exec.hj_build_tuples": "count", "exec.hj_probe_tuples": "count",
    "exec.imbalance": "ratio", "exec.steals": "count",
    "kernel.intersect_ns_per_elem": "ns",
    "graph.build_s": "s", "graph.snapshot_load_s": "s", "graph.offheap_mb": "MB",
    "server.queue_ms": "ms", "server.exec_ms": "ms", "server.overhead_ms": "ms",
    "server.retries": "count", "server.degraded": "count",
    "server.catalog_invalidations": "count", "server.version_mislabels": "count",
    "wire.serialize_us_per_row": "us", "wire.reply_bytes": "bytes",
    "wal.append_us": "us", "wal.sync_us": "us", "wal.syncs_per_write": "ratio",
    "wal.bytes_per_write": "bytes", "wal.merges": "count", "wal.merge_ms": "ms",
    "cluster.direct_shard_ms": "ms", "cluster.coord_overhead_ms": "ms",
    "cluster.hedges": "count", "cluster.failovers": "count",
    "proto.encode_us_per_row": "us", "proto.decode_us_per_row": "us",
    "obs.trace_overhead_pct": "%",
}


def build():
    """Build gfq and the helper from the checkout's sources."""
    for f in ("dune-project", os.path.join("bin", "gfq.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(f):
            die("no %s here: run from the root of a graphflow checkout" % f)
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/gfq.exe", "./perfbench/pbtool.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        die("build failed:\n" + r.stdout[-4000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if not args.workload:
        ap.error("--workload is required")
    build()
    # A SIGTERM also goes through the finally clause, so no server outlives
    # the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        run(args)
    finally:
        stop_all()


if __name__ == "__main__":
    main()
