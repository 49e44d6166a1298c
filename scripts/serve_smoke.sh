#!/bin/sh
# serve_smoke.sh — end-to-end exercise of the serving tier:
#
#   1. build paschedd, paschedload and obscheck
#   2. start the daemon on an ephemeral port with a deterministic fault
#      profile armed (forced queue-full admissions + forced floorplan
#      infeasibility), so the load run crosses the 429 retry path and the
#      robust degradation ladder, not just the happy path
#   3. fire the seeded load generator at it; its client-side report lands
#      in the smoke directory (load.json)
#   4. fire a second, cache-heavy session (repeat + perturb mix against a
#      small graph pool) so the schedule cache's exact-hit and warm-start
#      paths both run
#   5. replay a seeded arrival trace through the rolling-horizon session
#      API (paschedsim -daemon-addr-file): open, stream jobs, close — the
#      online engine runs inside the daemon and its counters land in the
#      daemon's metrics flush
#   6. SIGTERM the daemon and require a clean graceful drain (exit 0 and
#      the "drained" log line)
#   7. validate the flushed trace/metrics/events artefacts with obscheck,
#      requiring the cache.hits, cache.warm_starts, online.epochs and
#      online.prefetch_hits counters to be live
#
# Every knob is deterministic (fixed seed, counted faults), so two runs on
# the same tree produce the same request outcomes. Artefacts land in
# SERVE_SMOKE_DIR (default serve-smoke/, gitignored) for CI upload.
#
# Env overrides: SERVE_SMOKE_DIR, LOAD_N, LOAD_C, CACHE_N.
set -eu

DIR="${SERVE_SMOKE_DIR:-serve-smoke}"
LOAD_N="${LOAD_N:-60}"
LOAD_C="${LOAD_C:-4}"
CACHE_N="${CACHE_N:-40}"
GO="${GO:-go}"

mkdir -p "$DIR/bin"
$GO build -o "$DIR/bin/paschedd" ./cmd/paschedd
$GO build -o "$DIR/bin/paschedload" ./cmd/paschedload
$GO build -o "$DIR/bin/obscheck" ./cmd/obscheck
$GO build -o "$DIR/bin/paschedsim" ./cmd/paschedsim

rm -f "$DIR/addr"
"$DIR/bin/paschedd" \
    -addr 127.0.0.1:0 -addr-file "$DIR/addr" \
    -workers 2 -queue 8 \
    -fault-queue-full 5 -fault-floorplan-infeasible 3 \
    -trace "$DIR/trace.json" -metrics "$DIR/metrics.json" \
    -events "$DIR/events.json" \
    2> "$DIR/paschedd.log" &
DAEMON=$!

# The addr file appears once the listener is bound.
i=0
while [ ! -s "$DIR/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never bound; log:" >&2
        cat "$DIR/paschedd.log" >&2
        kill "$DAEMON" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
echo "serve-smoke: daemon on $(cat "$DIR/addr")"

if ! "$DIR/bin/paschedload" -addr-file "$DIR/addr" \
    -n "$LOAD_N" -c "$LOAD_C" -seed 1 -tasks 24 -graphs 4 \
    -o "$DIR/load.json"; then
    echo "serve-smoke: load run failed; daemon log:" >&2
    cat "$DIR/paschedd.log" >&2
    kill "$DAEMON" 2>/dev/null || true
    exit 1
fi

# Cache session: half the tickets repeat a base body (exact hits), a
# quarter send a near-miss perturbation (warm starts). The armed fault
# counters are depleted by the first run, so this one sees clean paths.
if ! "$DIR/bin/paschedload" -addr-file "$DIR/addr" \
    -n "$CACHE_N" -c 4 -seed 7 -tasks 20 -graphs 2 \
    -repeat-frac 0.5 -perturb-frac 0.25 \
    -o "$DIR/BENCH_cache.json"; then
    echo "serve-smoke: cache load run failed; daemon log:" >&2
    cat "$DIR/paschedd.log" >&2
    kill "$DAEMON" 2>/dev/null || true
    exit 1
fi

# Session leg: one rolling-horizon trace through the daemon's session API.
# The seed is chosen so prefetching fires with hits, keeping the
# online.prefetch_hits counter assertion below meaningful.
if ! "$DIR/bin/paschedsim" -daemon-addr-file "$DIR/addr" \
    -seed 3 -jobs 4 -tasks 8 -mean-gap 800 -comm-max 30 \
    > "$DIR/session.log"; then
    echo "serve-smoke: session replay failed; daemon log:" >&2
    cat "$DIR/paschedd.log" >&2
    cat "$DIR/session.log" >&2
    kill "$DAEMON" 2>/dev/null || true
    exit 1
fi
grep -q "session closed" "$DIR/session.log" || {
    echo "serve-smoke: session never closed:" >&2
    cat "$DIR/session.log" >&2
    kill "$DAEMON" 2>/dev/null || true
    exit 1
}

kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
    echo "serve-smoke: daemon exited non-zero; log:" >&2
    cat "$DIR/paschedd.log" >&2
    exit 1
fi
grep -q "drained" "$DIR/paschedd.log" || {
    echo "serve-smoke: no clean-drain log line:" >&2
    cat "$DIR/paschedd.log" >&2
    exit 1
}

"$DIR/bin/obscheck" \
    -require-counters cache.hits,cache.warm_starts,online.epochs,online.prefetch_hits \
    "$DIR/trace.json" "$DIR/metrics.json" "$DIR/events.json"
echo "serve-smoke: ok — artefacts in $DIR/"
