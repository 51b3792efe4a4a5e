#!/usr/bin/env bash
# End-to-end smoke of the request service, exercising both transports
# with the real binaries (no gtest): CI's service job and the
# `service_smoke` ctest both run exactly this.
#
#   usage: service_smoke.sh <redqaoa_serve> <example_service_client> [redqaoa_top] [redqaoa_lb]
#
# Part 1 pipes a fixed NDJSON request script through the stdio
# transport and validates every response line (ids echo back, ok
# flags, typed error codes) with a stdlib-only python check.
# Part 2 starts a TCP instance on an ephemeral port, runs the example
# client against it (all six methods), asks for shutdown, and requires
# a clean exit from both processes.
# Part 3 starts a sharded TCP instance (--shards 4 --max-conns 64) and
# drives the schema_version 2 protocol with a stdlib-only python
# client: the hello handshake must advertise the configured bounds,
# v2 responses must carry routing metadata, and stats must report one
# block per shard with the aggregate's exact key set.
# Part 4 starts an instance with --metrics-port, runs a traced
# optimize, scrapes GET /metrics (stdlib-only HTTP), validates the
# Prometheus exposition, and renders one redqaoa_top frame. When the
# lb binary is given, the same scrape runs against redqaoa_lb so both
# binaries' metrics endpoints are exercised, and then the example
# client drives every method through the lb and shuts it down, which
# must end in a clean lb exit.
set -euo pipefail

SERVE=${1:?usage: service_smoke.sh <redqaoa_serve> <example_service_client> [redqaoa_top] [redqaoa_lb]}
CLIENT=${2:?usage: service_smoke.sh <redqaoa_serve> <example_service_client> [redqaoa_top] [redqaoa_lb]}
TOP=${3:-}
LB=${4:-}

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== service smoke: stdio transport =="
cat > "$workdir/requests.ndjson" <<'EOF'
{"id": 1, "method": "stats"}
{"id": 2, "method": "evaluate", "params": {"graph": {"nodes": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}, "points": [[0.5, 0.3], [1.0, 0.2]]}}
{"id": "str-id", "method": "reduce", "params": {"graph": {"nodes": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0],[0,3]]}, "seed": 7}}
{"id": 4, "method": "nope"}
{"id": 5, "method": "evaluate", "params": {"graph": {"nodes": 2, "edges": [[0,1]]}}}
this is not json
{"id": 7, "method": "optimize", "params": {"graph": {"nodes": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}, "restarts": 1, "max_evaluations": 10, "seed": 1}}
{"id": 8, "method": "pipeline", "params": {"graph": {"nodes": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0],[0,3]]}, "options": {"restarts": 1, "search_evaluations": 6, "refine_evaluations": 3, "trajectories": 2, "noise": "ibmq_kolkata"}, "rng_seed": 2}}
{"id": 9, "method": "fleet", "params": {"graphs": [{"name": "ring", "graph": {"nodes": 5, "edges": [[0,1],[1,2],[2,3],[3,4],[4,0]]}}], "depths": [1], "options": {"restarts": 1, "search_evaluations": 4, "refine_evaluations": 2}, "seed0": 3}}
{"id": 10, "method": "health"}
EOF
"$SERVE" --stdio < "$workdir/requests.ndjson" > "$workdir/responses.ndjson"

python3 - "$workdir/responses.ndjson" <<'EOF'
import json, sys

lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
assert len(lines) == 10, f"expected 10 response lines, got {len(lines)}"
docs = [json.loads(l) for l in lines]
for doc in docs:
    assert doc["schema_version"] == 1, doc
    assert "id" in doc and "ok" in doc, doc

by_id = {doc["id"]: doc for doc in docs}
assert by_id[1]["ok"] and "engine" in by_id[1]["result"] \
    and "server" in by_id[1]["result"], by_id[1]
ev = by_id[2]
assert ev["ok"] and ev["result"]["backend"] == "statevector" \
    and len(ev["result"]["values"]) == 2, ev
red = by_id["str-id"]
assert red["ok"] and red["result"]["graph"]["nodes"] >= 2, red
assert not by_id[4]["ok"] \
    and by_id[4]["error"]["code"] == "unknown_method", by_id[4]
assert not by_id[5]["ok"] \
    and by_id[5]["error"]["code"] == "invalid_params", by_id[5]
assert not by_id[None]["ok"] \
    and by_id[None]["error"]["code"] == "parse_error", by_id[None]
opt = by_id[7]
assert opt["ok"] and "energy" in opt["result"], opt
pipe = by_id[8]
assert pipe["ok"] and pipe["result"]["flow"] == "red-qaoa" \
    and "approx_ratio" in pipe["result"], pipe
fleet = by_id[9]
assert fleet["ok"] and fleet["result"]["tool"] == "redqaoa_fleet" \
    and len(fleet["result"]["runs"]) == 1, fleet
# Health is answered inline at admission time, while earlier stdio
# requests are still in flight — so only shape and status are stable.
health = by_id[10]
assert health["ok"] and health["result"]["status"] == "ok" \
    and health["result"]["pid"] > 0 \
    and health["result"]["in_flight"] >= 0 \
    and len(health["result"]["queue_depths"]) == 1, health
print(f"stdio transport OK: {len(docs)} well-formed responses,"
      " all seven methods answered")
EOF

echo "== service smoke: TCP transport + example client =="
rm -f "$workdir/port.txt"
"$SERVE" --tcp --port-file "$workdir/port.txt" 2> "$workdir/server.log" &
server_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/port.txt" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "server died before binding:" >&2
        cat "$workdir/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$workdir/port.txt" ] || { echo "no port file" >&2; exit 1; }
port=$(cat "$workdir/port.txt")

"$CLIENT" "$port" --shutdown

# wait returns the server's status; don't let errexit skip the
# diagnostics below on a non-zero exit.
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
if [ "$server_status" -ne 0 ]; then
    echo "server exited with status $server_status" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi
grep -q "clean shutdown" "$workdir/server.log" || {
    echo "server log missing clean-shutdown marker" >&2
    cat "$workdir/server.log" >&2
    exit 1
}
echo "TCP transport OK: client round-tripped all methods, server shut down cleanly"

echo "== service smoke: sharded TCP + protocol v2 =="
rm -f "$workdir/port.txt"
"$SERVE" --tcp --shards 4 --max-conns 64 --port-file "$workdir/port.txt" \
    2> "$workdir/server2.log" &
server_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/port.txt" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "sharded server died before binding:" >&2
        cat "$workdir/server2.log" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$workdir/port.txt" ] || { echo "no port file" >&2; exit 1; }
port=$(cat "$workdir/port.txt")

python3 - "$port" <<'EOF'
import json, socket, sys

sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
reader = sock.makefile("r")

def call(doc):
    sock.sendall((json.dumps(doc) + "\n").encode())
    return json.loads(reader.readline())

hello = call({"id": 1, "method": "hello", "schema_version": 2})
assert hello["schema_version"] == 2, hello
assert hello["ok"], hello
info = hello["result"]
assert info["server"] == "redqaoa_serve", info
assert info["schema_versions"] == [1, 2], info
assert info["shards"] == 4, info
assert info["max_connections"] == 64, info
assert info["max_line_bytes"] == 8 << 20, info
assert "evaluate" in info["methods"] and "hello" in info["methods"], info

ev = call({"id": 2, "method": "evaluate", "schema_version": 2,
           "params": {"graph": {"nodes": 4,
                                "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
                      "points": [[0.5, 0.3]]}})
assert ev["ok"], ev
assert 0 <= ev["route"]["shard"] < 4, ev
assert ev["route"]["queue_ms"] >= 0, ev

stats = call({"id": 3, "method": "stats", "schema_version": 2})
assert stats["ok"], stats
engine = stats["result"]["engine"]
shards = stats["result"]["shards"]
assert len(shards) == 4, stats
for shard in shards:
    assert set(shard) == set(engine), (shard, engine)
assert sum(s["points"] for s in shards) == engine["points"], stats

# A v1 request on the same connection still answers in the v1 shape.
v1 = call({"id": 4, "method": "stats"})
assert v1["schema_version"] == 1 and "route" not in v1, v1
assert "shards" not in v1["result"], v1

# The liveness probe: answered inline, one queue depth per shard, and
# nothing in flight on a synchronous connection.
health = call({"id": 6, "method": "health", "schema_version": 2})
assert health["ok"], health
h = health["result"]
assert h["status"] == "ok" and h["pid"] > 0, h
assert h["shards"] == 4 and len(h["queue_depths"]) == 4, h
assert h["in_flight"] == 0 and h["uptime_seconds"] >= 0, h

bye = call({"id": 5, "method": "shutdown", "schema_version": 2})
assert bye["ok"] and bye["result"]["stopping"], bye
print("sharded v2 OK: hello advertises 4 shards / 64 conns, routing"
      " metadata present, per-shard stats match the aggregate key set")
EOF

server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
if [ "$server_status" -ne 0 ]; then
    echo "sharded server exited with status $server_status" >&2
    cat "$workdir/server2.log" >&2
    exit 1
fi
grep -q "clean shutdown" "$workdir/server2.log" || {
    echo "sharded server log missing clean-shutdown marker" >&2
    cat "$workdir/server2.log" >&2
    exit 1
}
grep -q "shards=4" "$workdir/server2.log" || {
    echo "sharded server log missing shards=4 banner" >&2
    cat "$workdir/server2.log" >&2
    exit 1
}

echo "== service smoke: metrics plane =="
# Shared scrape-and-validate: a traced optimize over NDJSON, then a
# raw-socket GET of the Prometheus endpoint. Role "worker" expects the
# execution-stage spans and per-process families; role "lb" expects
# the fleet hop spans and the lb aggregation families.
cat > "$workdir/metrics_check.py" <<'EOF'
import json, socket, sys

role, port, mport = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sock = socket.create_connection(("127.0.0.1", port))
reader = sock.makefile("r")

def call(doc):
    sock.sendall((json.dumps(doc) + "\n").encode())
    return json.loads(reader.readline())

# A traced request, so the scrape below sees real traffic and the
# trace plane is exercised through the real TCP transport.
opt = call({"id": 1, "method": "optimize", "schema_version": 2,
            "trace": True,
            "params": {"graph": {"nodes": 4,
                                 "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
                       "restarts": 1, "max_evaluations": 10, "seed": 1}})
assert opt["ok"], opt
spans = {s["name"] for s in opt["trace"]["spans"]}
if role == "lb":
    want_spans = {"lb.queue", "lb.forward", "worker.admission",
                  "shard.queue", "backend.evaluate"}
else:
    want_spans = {"worker.admission", "shard.queue", "backend.evaluate"}
assert want_spans <= spans, opt

def http_get(target):
    s = socket.create_connection(("127.0.0.1", mport))
    s.sendall(f"GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
              .encode())
    data = b""
    while chunk := s.recv(65536):
        data += chunk
    s.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return head.decode(), body.decode()

head, body = http_get("/metrics")
assert "200" in head.splitlines()[0], head
assert "text/plain; version=0.0.4" in head, head

# Exposition validity: every line is a comment or `name value`, every
# sample family has HELP and TYPE, histogram buckets are cumulative.
helped, typed, seen = set(), set(), set()
bucket_last = {}
for line in body.splitlines():
    assert line.strip(), "blank line in exposition"
    if line.startswith("# HELP "):
        helped.add(line.split()[2]); continue
    if line.startswith("# TYPE "):
        typed.add(line.split()[2]); continue
    name_labels, _, value = line.rpartition(" ")
    float(value)  # must parse
    fam = name_labels.split("{")[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if fam.endswith(suffix) and fam.removesuffix(suffix) in typed:
            base = fam.removesuffix(suffix)
            if suffix == "_bucket":
                prev = bucket_last.get(name_labels.split('le="')[0], -1)
                assert float(value) >= prev, line
                bucket_last[name_labels.split('le="')[0]] = float(value)
            fam = base
            break
    seen.add(fam)
missing = {f for f in seen if f not in helped or f not in typed}
assert not missing, f"families without HELP/TYPE: {missing}"

if role == "lb":
    required = {"redqaoa_uptime_seconds", "redqaoa_process_pid",
                "redqaoa_lb_requests_received_total",
                "redqaoa_lb_responses_total", "redqaoa_lb_forwards_total",
                "redqaoa_lb_worker_failures_total", "redqaoa_lb_worker_up",
                "redqaoa_in_flight", "redqaoa_queue_depth",
                "redqaoa_engine_jobs_total"}
else:
    required = {"redqaoa_uptime_seconds", "redqaoa_process_pid",
                "redqaoa_requests_received_total",
                "redqaoa_requests_admitted_total",
                "redqaoa_responses_total", "redqaoa_requests_rejected_total",
                "redqaoa_in_flight", "redqaoa_queue_depth",
                "redqaoa_request_latency_seconds",
                "redqaoa_engine_jobs_total", "redqaoa_store_events_total",
                "redqaoa_stage_seconds"}
assert required <= seen, f"missing families: {required - seen}"

head404, _ = http_get("/nope")
assert "404" in head404.splitlines()[0], head404

# The lb is shut down by the typed example client instead (below).
if role != "lb":
    bye = call({"id": 2, "method": "shutdown", "schema_version": 2})
    assert bye["ok"], bye
print(f"{role} metrics OK: traced optimize spans present, /metrics"
      f" serves valid exposition with {len(seen)} families")
EOF

rm -f "$workdir/port.txt" "$workdir/mport.txt"
"$SERVE" --tcp --shards 2 --port-file "$workdir/port.txt" \
    --metrics-port 0 --metrics-port-file "$workdir/mport.txt" \
    2> "$workdir/server3.log" &
server_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/port.txt" ] && [ -s "$workdir/mport.txt" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "metrics server died before binding:" >&2
        cat "$workdir/server3.log" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$workdir/port.txt" ] || { echo "no port file" >&2; exit 1; }
[ -s "$workdir/mport.txt" ] || { echo "no metrics port file" >&2; exit 1; }
port=$(cat "$workdir/port.txt")
mport=$(cat "$workdir/mport.txt")

python3 "$workdir/metrics_check.py" worker "$port" "$mport"

server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
if [ "$server_status" -ne 0 ]; then
    echo "metrics server exited with status $server_status" >&2
    cat "$workdir/server3.log" >&2
    exit 1
fi

if [ -n "$LB" ]; then
    echo "== service smoke: lb metrics plane =="
    rm -f "$workdir/port.txt" "$workdir/mport.txt"
    "$LB" --serve-bin "$SERVE" --workers 2 \
        --port-file "$workdir/port.txt" \
        --metrics-port 0 --metrics-port-file "$workdir/mport.txt" \
        2> "$workdir/lb.log" &
    server_pid=$!
    for _ in $(seq 1 150); do
        [ -s "$workdir/port.txt" ] && [ -s "$workdir/mport.txt" ] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "lb died before binding:" >&2
            cat "$workdir/lb.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    [ -s "$workdir/port.txt" ] || { echo "no lb port file" >&2; exit 1; }
    [ -s "$workdir/mport.txt" ] || {
        echo "no lb metrics port file" >&2
        exit 1
    }
    port=$(cat "$workdir/port.txt")
    mport=$(cat "$workdir/mport.txt")

    python3 "$workdir/metrics_check.py" lb "$port" "$mport"

    # The typed example client round-trips every method through the
    # lb, then shuts the lb down.
    "$CLIENT" "$port" --shutdown

    server_status=0
    wait "$server_pid" || server_status=$?
    server_pid=""
    if [ "$server_status" -ne 0 ]; then
        echo "lb exited with status $server_status" >&2
        cat "$workdir/lb.log" >&2
        exit 1
    fi
    grep -q "clean shutdown" "$workdir/lb.log" || {
        echo "lb log missing clean-shutdown marker" >&2
        cat "$workdir/lb.log" >&2
        exit 1
    }
    echo "lb OK: example client round-tripped all methods, lb shut down cleanly"
fi

if [ -n "$TOP" ]; then
    echo "== service smoke: redqaoa_top dashboard =="
    rm -f "$workdir/port.txt"
    "$SERVE" --tcp --port-file "$workdir/port.txt" \
        2> "$workdir/server4.log" &
    server_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$workdir/port.txt" ] && break
        sleep 0.1
    done
    port=$(cat "$workdir/port.txt")
    "$TOP" --port "$port" --once > "$workdir/top.txt"
    grep -q "redqaoa_top" "$workdir/top.txt" || {
        echo "dashboard missing header" >&2
        cat "$workdir/top.txt" >&2
        exit 1
    }
    grep -q "redqaoa_uptime_seconds" "$workdir/top.txt" || {
        echo "dashboard missing metric families" >&2
        cat "$workdir/top.txt" >&2
        exit 1
    }
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
    echo "dashboard OK: one frame rendered with health + metrics"
fi
echo "service smoke PASSED"
