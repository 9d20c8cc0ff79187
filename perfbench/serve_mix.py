"""The serve-mix workload: a live server under a seeded request mix.

The server is ``python -m repro serve --engine hybrid --workers 1
--jobs 1 --window-ms 0`` over a certified-family store warmed by
grid-sweep's cold certification, started through
``serve_launcher.py``.  The load is a closed loop on two keep-alive
connections: each sends its next request when the previous response
has been read.  The mix is mostly ``/predict`` on random (app, T, P)
within the warm families, plus streamed ``/sweep`` requests (one
family's whole partition axis) and ``/autotune`` requests.  Each of
the run's three set-ups boots a server, and each server takes a third
of the timed load.

The loop runs in rounds of ``ROUND_S``.  Between rounds both
connections are idle while a reference chunk runs on each CPU (the
client's in this process, the server's in a ``hostclock.py`` helper
pinned beside it), and the round's times are scaled by the two CPUs'
mean speed (see :mod:`hostclock`).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import common
import hostclock
import tracing

HERE = Path(__file__).resolve().parent

#: Each block of ``BLOCK`` requests holds exactly this many of each
#: kind, in seeded order, so every seed sends the same shares.
BLOCK = 100
MIX = {"sweep": 4, "autotune": 1}
#: Client connections (the closed loop's concurrency).
CONNECTIONS = 2
#: Wall seconds of one round of the closed loop.
ROUND_S = 0.5
SERVE_ARGS = [
    "--engine", "hybrid", "--workers", "1", "--jobs", "1",
    "--window-ms", "0", "--host", "127.0.0.1", "--port", "0",
]


def _request(kind: str, app: str, t: int, p: "int | None" = None):
    """``(kind, payload, raw HTTP request)`` of one request; the kind
    is also the endpoint."""
    from repro.serve.loadgen import _encode_request

    if kind == "predict":
        payload = {"app": app, "T": t, "P": p}
    elif kind == "sweep":
        # One family's whole partition axis, streamed.
        payload = {"app": app, "T": [t], "P": list(common.P_AXIS), "stream": True}
    else:
        payload = {"app": app}
    return kind, payload, _encode_request("bench", payload, f"/{kind}")


def traffic(seed: int):
    """The seeded request sequence (each distinct request built once):
    blocks of ``BLOCK`` in the shares of ``MIX``, the rest ``/predict``."""
    rng = random.Random(seed)
    made: dict[tuple, tuple] = {}
    kinds = [kind for kind, n in MIX.items() for _ in range(n)]
    kinds += ["predict"] * (BLOCK - len(kinds))
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            app = rng.choice(common.APPS)
            t = rng.choice(common.TILES[app])
            if kind == "autotune":
                key = ("autotune", app, 0)
            elif kind == "sweep":
                key = ("sweep", app, t)
            else:
                key = ("predict", app, t, rng.choice(common.P_AXIS))
            request = made.get(key)
            if request is None:
                request = made[key] = _request(*key)
            yield request


def warmup_requests():
    """One sweep per warm family and each autotune query: fills the
    server's compile and point memo before timing."""
    for app, tiles in common.TILES.items():
        for t in tiles:
            yield _request("sweep", app, t)
    for app in common.APPS:
        yield _request("autotune", app, 0)


# -- client ------------------------------------------------------------------


class Connection:
    """One keep-alive client connection (reopened when the server
    closes it)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        from repro.serve.loadgen import _read_http_response

        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        self.writer.write(raw)
        await self.writer.drain()
        status, body, reusable = await _read_http_response(self.reader)
        if not reusable:
            await self.close()
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.reader = self.writer = None


class TwoCpuChunk:
    """A reference chunk on both CPUs at once: the client's in this
    process, the server's in a helper pinned to the worker CPU.  Called,
    it returns the chunk time of the two CPUs' mean speed."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostclock.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        common.pin(self.proc.pid, worker=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        here = hostclock.chunk_seconds()
        there = float(self.proc.stdout.readline())
        return 2.0 / (1.0 / here + 1.0 / there)

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _decode(kind: str, data: bytes):
    """A response body as comparable JSON (a streamed sweep: its
    result lines, with the terminal line checked)."""
    if kind != "sweep":
        return json.loads(data)
    lines = [json.loads(line) for line in data.splitlines() if line.strip()]
    done = lines.pop()
    if done != {"done": True, "results": len(lines)}:
        raise ValueError(f"bad stream end {done!r}")
    return lines


def _engines(kind: str, answer) -> list:
    if kind == "predict":
        return [answer["engine"]]
    if kind == "sweep":
        return [r["engine"] for r in answer]
    return []


class Load:
    """Responses and latencies of one closed-loop phase.

    Each distinct request's first response is decoded and checked; a
    repeat only has to match it byte for byte, which keeps the client's
    own work per request small next to the server's."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {
            "predict": [], "sweep": [], "autotune": [],
        }
        #: raw request -> [kind, payload, decoded answer, raw answer,
        #: times sent]
        self.answers: dict[bytes, list] = {}
        self.attempted = 0
        self.failed = 0
        self.points = 0
        #: Seconds of load on the host clock, over every phase.
        self.seconds = 0.0
        #: ``perf_counter`` bounds of the last phase.
        self.wall_start = self.wall_end = 0.0

    def record(self, kind, payload, raw, status, data, latency) -> None:
        self.attempted += 1
        entry = self.answers.get(raw)
        if entry is None and status == 200:
            try:
                answer = _decode(kind, data)
            except ValueError:
                answer = None
            # A model answer, so the DES did not run while timed.
            if answer is not None and all(
                e == "model" for e in _engines(kind, answer)
            ):
                entry = self.answers[raw] = [kind, payload, answer, data, 0]
        # Same request, same answer.
        if entry is None or status != 200 or data != entry[3]:
            self.failed += 1
            return
        entry[4] += 1
        self.latencies[kind].append(latency)
        answer = entry[2]
        if kind == "predict":
            self.points += 1
        elif kind == "sweep":
            self.points += len(answer)
        else:
            self.points += answer["space_size"]


async def _drive(port: int, requests, seconds, clock, load) -> Load:
    """Send ``requests`` over the connections, in rounds, until
    exhausted or, with ``seconds``, until that long has passed on
    ``clock`` (in-flight ones finish); one phase of ``load``."""
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    start = clock.now()
    load.wall_start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    more = True

    async def client(conn: Connection, round_end: float) -> None:
        nonlocal more
        while more and time.perf_counter() < round_end:
            if deadline is not None and clock.now() >= deadline:
                more = False
                break
            kind, payload, raw = next(requests, (None, None, None))
            if kind is None:
                more = False
                break
            t0 = clock.now()
            try:
                status, data = await conn.request(raw)
            except (
                ConnectionError, asyncio.IncompleteReadError, ValueError,
                IndexError,
            ):
                # A broken response fails this request only.
                await conn.close()
                status, data = 0, b""
            load.record(kind, payload, raw, status, data, clock.now() - t0)

    while more:
        clock.tick()
        round_end = time.perf_counter() + ROUND_S
        await asyncio.gather(*(client(c, round_end) for c in connections))
    load.seconds += clock.now() - start
    load.wall_end = time.perf_counter()
    for conn in connections:
        await conn.close()
    return load


def drive(port: int, requests, clock, seconds=None, load=None) -> Load:
    load = Load() if load is None else load
    return asyncio.run(_drive(port, iter(requests), seconds, clock, load))


# -- server lifecycle ---------------------------------------------------------


class Server:
    """One launched server process."""

    def __init__(self, store: Path, work: Path, trace_out=None) -> None:
        argv = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", *SERVE_ARGS, "--engine-store", str(store)]
        self.log = open(work / "server.log", "ab")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=common.child_env(),
            cwd=common.ROOT,
        )
        common.pin(self.proc.pid, worker=True)
        try:
            self.port = self._listening_port()
            url = f"http://127.0.0.1:{self.port}/healthz"
            with urllib.request.urlopen(url, timeout=30) as resp:
                if resp.status != 200:
                    raise RuntimeError(f"/healthz answered {resp.status}")
        except BaseException:
            self.stop()
            raise

    def _listening_port(self) -> int:
        """The port from the server's start-up banner."""
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError("server exited before listening")

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()


def _warm_store(work: Path) -> float:
    """grid-sweep's cold certification, in a fresh process; its
    seconds at nominal host speed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sweeps.py"), "warm-store",
         "--work", str(work)],
        stdout=subprocess.PIPE,
        env=common.child_env(),
        cwd=common.ROOT,
        text=True,
    )
    common.pin(proc.pid, worker=True)
    try:
        took = common.read_ready(proc.stdout, start, "store warm-up")
    finally:
        proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError("store warm-up did not finish")
    return took


def setup(work: Path, clock, trace_out=None) -> tuple[Server, float]:
    """Store warm-up, server boot to /healthz and warm-up requests;
    returns the running server and the seconds that took."""
    took = _warm_store(work)
    clock.tick()
    start = clock.now()
    server = Server(work / "store.json", work, trace_out)
    try:
        warm = drive(server.port, warmup_requests(), clock)
        if warm.failed:
            raise RuntimeError(f"{warm.failed} warm-up requests failed")
    except BaseException:
        server.stop()
        raise
    return server, took + clock.now() - start


# -- checks and metrics -------------------------------------------------------


def check(load: Load, store: Path) -> dict:
    """Compare every distinct answer with the in-process backend's
    (a mismatch fails each time that request was sent), and the learned
    tier's answers with the served ones."""
    from repro.serve.api import (
        parse_autotune, parse_predict, parse_sweep, run_to_json,
    )
    from repro.serve.backend import PredictionBackend

    import sweeps

    backend = PredictionBackend(engine="hybrid", store=str(store))
    mismatched = 0
    predicts = []
    for kind, payload, answer, _raw, sent in load.answers.values():
        if kind == "autotune":
            want = backend.autotune(parse_autotune(payload))
        elif kind == "sweep":
            want = [run_to_json(r) for r in backend.evaluate(parse_sweep(payload))]
        else:
            spec = parse_predict(payload)
            want = run_to_json(backend.evaluate([spec])[0])
            predicts.append((spec, answer["elapsed_seconds"]))
        # The server's JSON round trip: compare as JSON values.
        if json.loads(json.dumps(want)) != answer:
            mismatched += sent
    errors = sweeps.learned_errors(
        [spec for spec, _ in predicts],
        [served for _, served in predicts],
        store=str(store),
    )
    return {"mismatched": mismatched, **errors}


#: A busy loop at idle priority: it runs only when nothing else wants
#: the CPU, so it never delays the benchmark's processes.
_SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "print(flush=True)\n"
    "while True:\n"
    "    pass\n"
)


class Spinners:
    """One idle-priority busy loop per CPU, so neither CPU halts while
    the closed loop waits on the other.

    On a virtual machine an idle vCPU halts, and waking it costs a host
    round trip whose length follows the neighbours' load; the closed
    loop pays that on every hop between client and server, and the
    reference chunks cannot see it.  Each spinner has switched to
    ``SCHED_IDLE`` before this returns, so it takes no CPU time that
    anything else wants."""

    def __init__(self) -> None:
        self.procs = []
        try:
            for worker in (False, True):
                proc = subprocess.Popen(
                    [sys.executable, "-c", _SPINNER], stdout=subprocess.PIPE
                )
                self.procs.append(proc)
                common.pin(proc.pid, worker=worker)
                proc.stdout.readline()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
            proc.wait()


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    with contextlib.ExitStack() as stack:
        chunk = TwoCpuChunk()
        stack.callback(chunk.stop)
        stack.callback(Spinners().stop)
        clock = hostclock.HostClock(chunk)
        if not trace:
            return _untraced(seed, seconds, work, clock)
        return _traced(seed, seconds, work, clock)


def _untraced(seed: int, seconds: float, work: Path, clock) -> dict:
    """Each of the run's set-ups boots a server that then takes an equal
    share of the timed load, in one continuing request sequence: a
    server process that happens to run slow weighs one share, not the
    whole run (runs came in two modes, about 1,400 and 1,750 requests/s,
    that the reference chunks did not see)."""
    load = Load()
    requests = traffic(seed)
    setups, rss = [], []
    for _ in range(common.SETUP_REPS):
        server, took = setup(work, clock)
        setups.append(took)
        try:
            share = seconds / common.SETUP_REPS
            drive(server.port, requests, clock, share, load)
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
    checked = check(load, work / "store.json")
    lat = load.latencies
    values = {
        "setup_s": common.percentile(setups, 50),
        "points_per_s": load.points / load.seconds,
        "requests_per_s": load.attempted / load.seconds,
        "predict_p50_ms": 1e3 * common.percentile(lat["predict"], 50),
        "predict_p90_ms": 1e3 * common.percentile(lat["predict"], 90),
        "sweep_p50_ms": 1e3 * common.percentile(lat["sweep"], 50),
        "peak_rss_mb": max(rss),
        "learned_err_p50_pct": checked["learned_err_p50_pct"],
        "learned_err_max_pct": checked["learned_err_max_pct"],
    }
    return {
        "values": values,
        "attempted": load.attempted,
        "failed": load.failed + checked["mismatched"],
        "detail": {
            "setups_s": setups,
            "requests": {k: len(v) for k, v in lat.items()},
            "distinct_requests": len(load.answers),
            "chunk_ms_p50": clock.median_chunk_ms(),
        },
    }


def _traced(seed: int, seconds: float, work: Path, clock) -> dict:
    server, _took = setup(work, clock)
    try:
        untraced = drive(server.port, traffic(seed), clock, seconds / 2)
    finally:
        server.stop()
    spans_file = work / "spans.json"
    server, _took = setup(work, clock, trace_out=spans_file)
    try:
        traced = drive(server.port, traffic(seed), clock, seconds / 2)
    finally:
        server.stop()
    spans = json.loads(spans_file.read_text())
    layers = tracing.summarise(spans, traced.wall_start, traced.wall_end)
    untraced_rate = untraced.attempted / untraced.seconds
    traced_rate = traced.attempted / traced.seconds
    layers["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return {
        "values": layers,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "detail": {"spans": len(spans)},
    }
