"""serve-desk and serve-scaled: agents posting observed states to
``mdpcompose serve`` and waiting for the composed policy table.

Set-up ingests the corpus into a store, trains at desk scale, exports the
TSVs, spawns the server as a subprocess and waits for its first /health
200. The load is one client in a closed loop: it sends the next request
only when the previous response has arrived. The server speaks HTTP/1.0,
so each request opens its own connection. After one untimed warm-up pass,
which fills the server's lazy caches, passes over the fixed request
sequence repeat until the run time is used.

Every response is compared byte for byte with the in-process reference:
``policy_table_json(compose(...))`` for the same body, or the 4xx reason
the service gives for it. On serve-desk the set of reference responses is
also pinned to a digest recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import ExitStack, nullcontext
from pathlib import Path
from time import perf_counter

from mdpcompose import embedding, store, vhome
from mdpcompose.composer import compose, policy_table_json
from mdpcompose.errors import CompositionFailureError, UnknownSituationError
from mdpcompose.service import BadRequest, resolve_policy_request
from mdpcompose.space import load_tsv

from inputs import DESK_TRAIN, FIXED_SEED, desk_texts, parse_corpus, request_sequence, scaled_texts
from layers import layer_metrics, percentile
from tracing import ID, NAME, PARENT, REQUEST, START, END, Recorder, load_spans, resimulated_agent_steps

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-ups per run: each trains and spawns a server, about 2 s on the desk
# corpus and 5 s on the scaled one.
SETUPS = {"serve-desk": 5, "serve-scaled": 3}
READY_TIMEOUT_S = 120
REQUEST_TIMEOUT_S = 60

# SHA-256 over the sorted (body, status, response) triples of the desk
# reference for the initial and mid states, which no workload seed changes.
DESK_REFERENCE_SHA256 = "dab11e603371e621e0db927c57c70e10e5195f8c5fad8d350bedc9d960b6ddff"


class Server:
    """One ``mdpcompose serve`` subprocess on an ephemeral port; with
    ``spans`` set it runs under the span recorder, which writes the spans
    to that file when the server is stopped."""

    def __init__(self, store: Path, prefix: Path, log: Path, spans: Path | None = None):
        command = [sys.executable]
        command += ["-m", "mdpcompose.cli"] if spans is None else [str(HERE / "traced_server.py"), str(spans)]
        command += ["serve", "--store", str(store), "--embeddings", str(prefix), "--bind", "127.0.0.1:0"]
        env = {**os.environ, "PYTHONPATH": str(SRC), "MDPCOMPOSE_LOGLEVEL": "INFO"}
        with open(log, "wb") as handle:
            self.proc = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=handle, env=env
            )
        try:
            self.port = self._wait_ready(log)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, log: Path) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {log.read_text(errors='replace')[-2000:]}")
            if port is None:
                found = re.search(r"serving on [\d.]+:(\d+)", log.read_text(errors="replace"))
                port = int(found.group(1)) if found else None
            if port is not None:
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                try:
                    connection.request("GET", "/health")
                    response = connection.getresponse()
                    response.read()
                    if response.status == 200:
                        return port
                except OSError:
                    pass
                finally:
                    connection.close()
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def setup(texts: list[str], directory: Path, recorder: Recorder | None, spans: Path | None):
    """Ingest, train, export and start the server; returns (seconds, server).
    Traced functions are called through their modules so that the
    recorder's wrappers apply."""
    store_dir, prefix = directory / "store", directory / "embeddings"
    directory.mkdir(parents=True)
    started = perf_counter()
    with recorder.active() if recorder else nullcontext():
        with recorder.region("vhome.ingest") if recorder else nullcontext():
            scripts = parse_corpus(texts)
            graphs = [vhome.script_to_kg(s) for s in scripts]
            store.save_store({s.activity_name: g for s, g in zip(scripts, graphs)}, store_dir)
        vocab = embedding.build_vocabulary(graphs)
        config = embedding.TrainConfig(**DESK_TRAIN, rng_seed=FIXED_SEED)
        table = embedding.train(graphs, vocab, config)
        embedding.export_tsv(table, vocab, f"{prefix}.vectors.tsv", f"{prefix}.metadata.tsv")
    server = Server(store_dir, prefix, directory / "server.log", spans)
    return perf_counter() - started, server


def _reason(text: str) -> bytes:
    return json.dumps({"reason": text}, separators=(",", ":")).encode("utf-8")


def reference(graphs, space, body: bytes):
    """(status, response bytes, composition counts or None) for one body,
    computed in-process."""
    try:
        document = json.loads(body)
    except ValueError:
        return 400, _reason("malformed request body"), None
    try:
        graph, state = resolve_policy_request(graphs, document)
        table, trace = compose(graph, space, state)
    except BadRequest as exc:
        return 400, _reason(str(exc)), None
    except UnknownSituationError:
        return 422, _reason("unknown state"), None
    except CompositionFailureError:
        return 422, _reason("no action within radius"), None
    counts = {
        "rounds": len(trace.rounds),
        "agent_steps": trace.agent_steps,
        "resimulated": resimulated_agent_steps(trace),
    }
    return 200, policy_table_json(table).encode("utf-8"), counts


def reference_digest(expected: dict) -> str:
    digest = hashlib.sha256()
    for body in sorted(expected):
        status, payload, _counts = expected[body]
        digest.update(b"%d\0%s\0%s\0" % (status, body, payload))
    return digest.hexdigest()


def send_pass(port: int, sequence) -> list[tuple[int | None, bytes, float]]:
    """(status, body, seconds) per request; status None on a connection error."""
    results = []
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        for request in sequence:
            started = perf_counter()
            try:
                connection.request(
                    "POST", "/policies", body=request.body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                connection.close()
                status, payload = None, b""
            results.append((status, payload, perf_counter() - started))
    finally:
        connection.close()
    return results


def measure(port: int, sequence, expected: dict, seconds: float) -> dict:
    """A checked warm-up pass, then timed passes until ``seconds`` pass."""
    passes: list[list[tuple]] = []
    pass_times: list[float] = []

    def one_pass() -> float:
        started = perf_counter()
        results = send_pass(port, sequence)
        elapsed = perf_counter() - started
        passes.append(
            [
                (request, status, latency, (status, payload) == expected[request.body][:2])
                for request, (status, payload, latency) in zip(sequence, results)
            ]
        )
        return elapsed

    one_pass()
    started = perf_counter()
    while True:
        pass_times.append(one_pass())
        if perf_counter() - started >= seconds:
            break
    records = [r for p in passes for r in p]
    return {
        "passes": passes,
        "pass_times": pass_times,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r[3]),
    }


def _server_groups(spans: list[list], requests_per_pass: int):
    """Split one server's spans into its set-up spans and the spans of each
    pass, in request order (the client sends one request at a time)."""
    by_request: dict[int, list[list]] = {}
    for span in spans:
        by_request.setdefault(span[REQUEST], []).append(span)
    roots = sorted((s for s in spans if s[PARENT] is None), key=lambda s: s[START])
    requests = [r for r in roots if r[NAME] == "service.policies_for"]
    setup_spans = [s for r in roots if r[NAME] != "service.policies_for" for s in by_request[r[ID]]]
    passes: list[list[list]] = []
    for k, root in enumerate(requests):
        if k % requests_per_pass == 0:
            passes.append([])
        passes[-1].extend(by_request[root[ID]])
    return setup_spans, passes, requests


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    texts = desk_texts() if workload == "serve-desk" else scaled_texts(seed)
    sequence = request_sequence(workload, parse_corpus(texts), seed)
    setups = SETUPS[workload]
    setup_times: list[float] = []
    recorders = [Recorder() if trace else None for _ in range(setups)]
    spans_files = [work / f"spans-{k}.json" if trace else None for k in range(setups)]

    with ExitStack() as stack:
        for k in range(setups):
            elapsed, server = setup(texts, work / f"setup-{k}", recorders[k], spans_files[k])
            stack.callback(server.stop)
            setup_times.append(elapsed)
            if k < setups - 1:
                server.stop()
        last = work / f"setup-{setups - 1}"
        exports = {
            hashlib.sha256((work / f"setup-{k}" / f"embeddings.{kind}.tsv").read_bytes()).hexdigest()
            for k in range(setups)
            for kind in ("vectors", "metadata")
        }
        graphs = store.load_store(last / "store")
        space = load_tsv(last / "embeddings.vectors.tsv", last / "embeddings.metadata.tsv")
        expected = {r.body: reference(graphs, space, r.body) for r in sequence}
        if trace:
            plain = Server(last / "store", last / "embeddings", work / "plain.log")
            stack.callback(plain.stop)
            untraced = measure(plain.port, sequence, expected, seconds / 2)
            plain.stop()
            measured = measure(server.port, sequence, expected, seconds / 2)
        else:
            measured = measure(server.port, sequence, expected, seconds)
        server.stop()

    timed = [r for p in measured["passes"][1:] for r in p]
    latencies = [r[2] for r in timed]
    statuses = Counter(r[1] for r in measured["passes"][0])
    result = {
        "attempted": measured["attempted"] + (untraced["attempted"] if trace else 0),
        "failed": measured["failed"] + (untraced["failed"] if trace else 0),
        "counts": {"setups": len(setup_times), "passes": len(measured["pass_times"]), "operations": len(latencies)},
        "requests_per_pass": len(sequence),
        "statuses_per_pass": {str(k): v for k, v in sorted(statuses.items(), key=str)},
        "deterministic_exports": len(exports) == 2,
    }
    if workload == "serve-desk":
        states = {r.body: expected[r.body] for r in sequence if r.kind not in ("unknown", "malformed")}
        result["reference_digest_ok"] = reference_digest(states) == DESK_REFERENCE_SHA256
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(measured["pass_times"]),
            "throughput_rps": len(latencies) / sum(measured["pass_times"]),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p95_ms": 1e3 * percentile(latencies, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        return result

    reaching = [r for r in sequence if r.kind != "malformed"]
    servers = [_server_groups(load_spans(path), len(reaching)) for path in spans_files]
    groups = [[recorder.spans, server_setup] for recorder, (server_setup, _, _) in zip(recorders, servers)]
    # the last set-up's server took the traced load; its first pass warmed up
    _setup, server_passes, requests = servers[-1]
    groups.extend([p] for p in server_passes[1:])

    # client latency minus policies_for of the same request
    client = [r[2] for p in measured["passes"][1:] for r in p if r[0].kind != "malformed"]
    server_time = [s[END] - s[START] for s in requests[len(reaching):]]
    overhead = [c - s for c, s in zip(client, server_time)]
    untraced_pass = statistics.median(untraced["pass_times"])
    traced_overhead = statistics.median(measured["pass_times"]) - untraced_pass
    extra = {
        "service.http_overhead_ms": 1e3 * statistics.median(overhead),
        "trace.overhead_s": traced_overhead,
        "trace.overhead_share": traced_overhead / untraced_pass,
    }
    extra.update({f"service.status_{code}": statuses.get(code, 0) for code in (200, 400, 422)})
    values, unsteady = layer_metrics(groups, extra)

    # the server's composition counts must equal the in-process reference
    ref = [expected[r.body][2] for r in sequence if expected[r.body][2]]
    for key in ("rounds", "agent_steps", "resimulated"):
        if values.get(f"composer.{key}", 0) != sum(c[key] for c in ref):
            unsteady.append(f"composer.{key} differs from the in-process reference")
    result["metrics"] = values
    result["unsteady_counts"] = unsteady
    return result
