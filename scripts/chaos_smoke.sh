#!/usr/bin/env bash
# Chaos gate for the fault-tolerant serving front: a supervised
# 3-worker redqaoa_lb fleet under deterministic fault injection must
# answer EVERY request exactly once, byte-identical to a fault-free
# run, and converge healthy. CI's chaos job and the `chaos_smoke`
# ctest both run exactly this.
#
#   usage: chaos_smoke.sh <redqaoa_lb> <redqaoa_serve>
#
# Part 1 computes the fault-free baseline: the full request set piped
# through one redqaoa_serve over stdio (responses are pure functions
# of request content, so this is THE expected byte sequence no matter
# how many workers, lanes, or retries sit in between).
# Part 2 starts redqaoa_lb with 3 workers of 2 shards each (so every
# lane runs two forwarders with a request in flight on each), arms
# worker-side aborts (every worker crashes at its 40th request —
# including restarted generations) and front-side connection resets
# (every 40th client request starting at the 10th), then drives the
# same request set through 4 concurrent retrying client connections,
# so a crash can tear several forwards of one lane at once. The run
# passes only if every id is answered exactly once with the baseline's
# exact bytes, the final health document shows all workers up with
# >= 2 restarts and >= 5 injected resets, and the lb shuts down
# cleanly on request.
set -euo pipefail

LB=${1:?usage: chaos_smoke.sh <redqaoa_lb> <redqaoa_serve>}
SERVE=${2:?usage: chaos_smoke.sh <redqaoa_lb> <redqaoa_serve>}

workdir=$(mktemp -d)
lb_pid=""
cleanup() {
    if [ -n "$lb_pid" ] && kill -0 "$lb_pid" 2>/dev/null; then
        kill "$lb_pid" 2>/dev/null || true
        wait "$lb_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== chaos smoke: generating the request set =="
python3 - "$workdir/requests.ndjson" <<'EOF'
import json, sys

# 220 deterministic requests over 11 distinct graphs (distinct
# structure hashes spread the load across the lb's 3 lanes). Every
# method used is a pure function of request content — the precondition
# for replay-on-failure being safe at all.
def ring(n):
    return {"nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]}

def chorded_ring(n, skip):
    g = ring(n)
    g["edges"] += [[i, (i + skip) % n] for i in range(0, n, 3)]
    g["edges"] = sorted({tuple(sorted(e)) for e in g["edges"]})
    g["edges"] = [list(e) for e in g["edges"]]
    return g

graphs = [ring(n) for n in (4, 5, 6, 7, 8)]
graphs += [chorded_ring(n, 2) for n in (6, 7, 8)]
graphs += [chorded_ring(n, 3) for n in (7, 8, 9)]

requests = []
rid = 1
for round_idx in range(18):
    for gi, graph in enumerate(graphs):
        theta = 0.1 + 0.05 * ((round_idx + gi) % 7)
        requests.append({
            "id": rid, "method": "evaluate",
            "params": {"graph": graph,
                       "points": [[theta, 0.3], [0.7, theta]]}})
        rid += 1
        if rid > 210:
            break
    if rid > 210:
        break
# A slice of reduce traffic keeps the mix honest (also pure: seeded).
for seed in range(10):
    requests.append({
        "id": rid, "method": "reduce",
        "params": {"graph": graphs[seed % len(graphs)],
                   "seed": seed + 1}})
    rid += 1

assert len(requests) >= 200, len(requests)
with open(sys.argv[1], "w") as out:
    for req in requests:
        out.write(json.dumps(req) + "\n")
print(f"{len(requests)} requests over {len(graphs)} graphs")
EOF

echo "== chaos smoke: fault-free baseline (stdio, single server) =="
# The stdio transport admits every line up front; a queue bound above
# the request count keeps the baseline genuinely fault-free (no
# overloaded bounces to pollute the expected bytes).
"$SERVE" --stdio --queue 512 < "$workdir/requests.ndjson" \
    > "$workdir/baseline.ndjson"

echo "== chaos smoke: 3-worker fleet under injected aborts + resets =="
rm -f "$workdir/port.txt"
"$LB" --serve-bin "$SERVE" --workers 3 \
    --worker-arg --shards --worker-arg 2 \
    --port-file "$workdir/port.txt" \
    --worker-faults "abort@40" \
    --faults "reset@10/40" \
    2> "$workdir/lb.log" &
lb_pid=$!
for _ in $(seq 1 150); do
    [ -s "$workdir/port.txt" ] && break
    if ! kill -0 "$lb_pid" 2>/dev/null; then
        echo "lb died before binding:" >&2
        cat "$workdir/lb.log" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$workdir/port.txt" ] || { echo "no port file" >&2; exit 1; }
port=$(cat "$workdir/port.txt")

grep -q "FAULT INJECTION ARMED" "$workdir/lb.log" || {
    echo "lb log missing the fault-injection banner" >&2
    cat "$workdir/lb.log" >&2
    exit 1
}

python3 - "$port" "$workdir/requests.ndjson" "$workdir/baseline.ndjson" <<'EOF'
import json, socket, sys, threading, time

port = int(sys.argv[1])
requests = [l for l in open(sys.argv[2]).read().splitlines() if l.strip()]
baseline = {}
for line in open(sys.argv[3]).read().splitlines():
    if line.strip():
        baseline[json.loads(line)["id"]] = line
assert len(baseline) == len(requests), (len(baseline), len(requests))

RETRYABLE = {"overloaded", "worker_failed", "shutting_down"}
CONNECTIONS = 4


class Connection:
    """One client connection that absorbs failures by resending."""

    def __init__(self):
        self.sock = None
        self.reader = None

    def connect(self):
        for attempt in range(50):
            try:
                self.sock = socket.create_connection(("127.0.0.1", port),
                                                     timeout=30)
                self.reader = self.sock.makefile("r")
                return
            except OSError:
                time.sleep(0.05)
        raise SystemExit("could not (re)connect to the lb")

    def drop(self):
        for closing in (self.reader, self.sock):
            try:
                if closing is not None:
                    closing.close()
            except OSError:
                pass
        self.sock = self.reader = None

    def exchange(self, line):
        """One request line -> one response line, absorbing failures.

        Connection errors (injected resets, lb restarts) reconnect and
        resend; typed retryable errors back off and resend. Anything
        else is a hard failure. Safe only because every request is pure.
        """
        for attempt in range(25):
            if self.sock is None:
                self.connect()
            try:
                self.sock.sendall((line + "\n").encode())
                response = self.reader.readline()
            except OSError:
                self.drop()
                continue
            if not response.endswith("\n"):
                self.drop()  # EOF or a torn frame: never parse it.
                continue
            response = response.rstrip("\n")
            doc = json.loads(response)
            if not doc.get("ok") and \
                    doc.get("error", {}).get("code") in RETRYABLE:
                time.sleep(0.02 * (attempt + 1))
                continue
            return response
        raise SystemExit(f"retry budget exhausted for: {line[:80]}")

    def call(self, doc):
        return json.loads(self.exchange(json.dumps(doc)))


# Connection k sends every CONNECTIONS-th request from the k-th on, so
# all lanes see concurrent forwards from several client connections.
answered = {}
duplicates = []
errors = []
lock = threading.Lock()


def drive(k):
    conn = Connection()
    try:
        for line in requests[k::CONNECTIONS]:
            rid = json.loads(line)["id"]
            response = conn.exchange(line)
            with lock:
                if rid in answered:
                    duplicates.append(rid)
                answered[rid] = response
    except BaseException as e:  # SystemExit included: report, not hang.
        with lock:
            errors.append(f"connection {k}: {e}")
    finally:
        conn.drop()


t0 = time.time()
threads = [threading.Thread(target=drive, args=(k,))
           for k in range(CONNECTIONS)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert not errors, errors
assert not duplicates, f"ids answered twice: {duplicates[:10]}"

# Exactly once, byte-identical to the fault-free run.
assert len(answered) == len(requests), (len(answered), len(requests))
mismatches = [rid for rid, line in answered.items()
              if line != baseline[rid]]
assert not mismatches, \
    f"{len(mismatches)} responses differ from the baseline; first: " \
    f"{answered[mismatches[0]][:120]} != {baseline[mismatches[0]][:120]}"
elapsed = time.time() - t0

# The fleet must converge: every worker back up, restarts recorded,
# and the front's fault plane must have actually fired.
control = Connection()
call = control.call
deadline = time.time() + 30
while True:
    health = call({"id": "health-final", "method": "health"})
    assert health["ok"], health
    h = health["result"]
    workers = h["workers"]
    if all(w["state"] == "up" for w in workers) or time.time() > deadline:
        break
    time.sleep(0.2)
assert h["status"] == "ok", h
assert len(workers) == 3, workers
assert all(w["state"] == "up" for w in workers), workers
restarts = sum(w["restarts"] for w in workers)
assert restarts >= 2, f"expected >= 2 worker restarts, saw {restarts}"
assert h["faults"]["injected"]["reset"] >= 5, h["faults"]
assert h["served"] >= len(requests), h
assert h["in_flight"] == 0, h
# 2-shard workers: every lane forwarded on two connections at once.
assert h["forwarders"] == [2, 2, 2], h["forwarders"]

bye = call({"id": "bye", "method": "shutdown"})
assert bye["ok"] and bye["result"]["stopping"], bye
print(f"chaos OK: {len(requests)} requests answered exactly once and"
      f" byte-identical under {restarts} worker crashes and"
      f" {h['faults']['injected']['reset']} injected resets"
      f" ({elapsed:.1f}s); replays={h['replays']}")
EOF

lb_status=0
wait "$lb_pid" || lb_status=$?
lb_pid=""
if [ "$lb_status" -ne 0 ]; then
    echo "lb exited with status $lb_status" >&2
    cat "$workdir/lb.log" >&2
    exit 1
fi
grep -q "clean shutdown" "$workdir/lb.log" || {
    echo "lb log missing clean-shutdown marker" >&2
    cat "$workdir/lb.log" >&2
    exit 1
}
echo "chaos smoke PASSED"
