#!/usr/bin/env bash
# CI gate: formatting, vet, build, full test suite, and the race detector
# over the packages with concurrency (the parallel worker pool and the
# graph builder that drives it). Run from anywhere; operates on the repo
# root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== class model gate (the engine names PIM classes and attributes only in internal/recon/model.go; simfn and collective know no schema, collective no simfn) =="
if find internal/recon internal/simfn internal/collective internal/depgraph internal/shard \
    -name '*.go' -not -name '*_test.go' -not -path internal/recon/model.go -print0 |
    xargs -0 grep -nE 'schema\.Class(Person|Article|Venue)|schema\.Attr[A-Z]' ||
    find internal/simfn internal/collective -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -nE 'refrecon/internal/schema|switch class|PaperParams|srvClass' ||
    find internal/collective -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -n 'refrecon/internal/simfn'; then
    echo "a per-class decision belongs in a row of internal/recon/model.go, bound to a simfn.ClassScore row" >&2
    exit 1
fi

echo "== comparator table gate (an evidence type is a row of simfn's table, not a label switch; recon reads the row) =="
if find internal/simfn -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -nE 'switch evidence|case Ev[A-Z]' ||
    find internal/recon -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -nE 'simfn\.(CandidateThreshold|AliasEvidence|Lookup)|lib\.Compare\('; then
    echo "a per-evidence-type decision belongs in a Comparator row of internal/simfn/comparators.go" >&2
    exit 1
fi

echo "== one scoring path gate (every propagation step gathers its in-edges afresh; no memoised evidence fork) =="
if find internal cmd -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -nE 'RescanScoring|EvidenceView|EvidenceDigest|CheckAggregate|\.Digest\('; then
    echo "node evidence is simfn.Gather over the in-edges; a second scoring path is not to come back" >&2
    exit 1
fi

echo "== memoized tokens gate (the generic comparator reads Words once per value from the library memo) =="
if find internal/simfn -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -n 'strsim\.MongeElkan('; then
    echo "simfn scores Monge-Elkan with strsim.MongeElkanTokens over Library.words" >&2
    exit 1
fi

echo "== one pipeline gate (INDEPDEC is a cell of the ablation grid that recon runs, not a pipeline of its own) =="
if find internal/indepdec -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -h '"refrecon/' | grep -v '"refrecon/internal/recon"' ||
    grep -rn 'flag\.String("algo"' cmd; then
    echo "the baseline is indepdec.Config(), a recon.Config reconciled by recon.New like every other cell" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages) =="
go test -race ./internal/parallel ./internal/recon ./internal/serve ./internal/collective ./internal/obs ./internal/blocking

echo "== go test -race (twin-graph and worker-count determinism, golden outputs, collective answers over a shared memo) =="
go test -race -run 'DeltaRescanEquivalence' ./internal/depgraph
go test -race -run 'WorkerCountDeterminism|GoldenOutputs|CollectiveAnswersUnchanged' .

echo "== go test -race (sharded equivalence; plain and collective queries while the session's commits grow the value dictionary) =="
go test -race -run 'TestShard|TestQueriesWhileSessionCommits' ./internal/recon
go test -race ./internal/shard

echo "== bench smoke (build/propagate/fold/catalog-match benchmarks compile and run) =="
go test -run=NONE -bench='BuildGraph|Propagate|EnrichFold|MatchCatalog' -benchtime=1x .

echo "== alloc regression smoke (columnar storage allocs/op ceilings; hub-removal benchmark compiles and runs; comparator kernels and string- and id-keyed cache hits at zero) =="
go test -run='ZeroAlloc|AllocsAmortized' -bench='RemoveHubNeighbors' -benchtime=1x -count=1 ./internal/depgraph
go test -run 'ZeroAllocs|TestCompareIDsCacheHitZeroAllocs' -count=1 ./internal/strsim ./internal/simfn

echo "== fuzz smoke (10s per target, seed corpora replayed by go test above) =="
go test -fuzz='^FuzzBibTeX$' -fuzztime 10s ./internal/extract
go test -fuzz='^FuzzVCard$' -fuzztime 10s ./internal/extract
go test -fuzz='^FuzzEmail$' -fuzztime 10s ./internal/extract
go test -fuzz='^FuzzCitation$' -fuzztime 10s ./internal/extract
go test -fuzz='^FuzzStrsim$' -fuzztime 10s ./internal/strsim
go test -fuzz='^FuzzComparators$' -fuzztime 10s ./internal/simfn
go test -fuzz='^FuzzEngineOps$' -fuzztime 10s ./internal/depgraph
go test -fuzz='^FuzzSegmentDecode$' -fuzztime 10s ./internal/durable
go test -fuzz='^FuzzDecodeSnapshot$' -fuzztime 10s ./internal/recon
go test -fuzz='^FuzzReconcileCodec$' -fuzztime 10s ./internal/serve
go test -fuzz='^FuzzIngestBody$' -fuzztime 10s ./internal/serve

echo "== invariant audit (reconcile -audit over PIM A-D and Cora) =="
tmpdir=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT
for d in A B C D cora; do
    go run ./cmd/pimgen -dataset "$d" -o "$tmpdir/$d.json"
    go run ./cmd/reconcile -in "$tmpdir/$d.json" -audit | grep '^audit:'
done

echo "== knob smoke (a flag combination that cannot apply exits 2 naming its flags; -workers and -shards leave the output unchanged) =="
# knobs_test.go holds the full knob table; this stage replays the refused
# combinations against freshly built binaries.
go build -o "$tmpdir/" ./cmd/reconcile ./cmd/reconserve ./cmd/pimgen ./cmd/benchtables
refuse() { # refuse "<flags the message must name>" <cmd> [args...]
    local want=$1 code=0
    shift
    "$tmpdir/$@" >/dev/null 2>"$tmpdir/refuse.err" || code=$?
    [ "$code" = 2 ] || { echo "$*: exit $code, want 2" >&2; exit 1; }
    for w in $want; do
        grep -F -e "$w" "$tmpdir/refuse.err" >/dev/null || { echo "$*: message does not name $w" >&2; exit 1; }
    done
}
refuse "-checkpoint-every -data-dir" reconserve -checkpoint-every 3
refuse "-schema" reconserve -schema bogus
refuse "-evidence" reconserve -evidence bogus
refuse "-collective-max-nodes" reconserve -collective-max-nodes 0
refuse "-refs -dataset -scale" pimgen -refs 100 -dataset B -scale 3
refuse "-dup -refs" pimgen -dup 2
refuse "-dataset" pimgen -dataset Z
refuse "-table" benchtables -table 9
refuse "-scale" benchtables -scale 0
refuse "-bucketcap" reconcile -in "$tmpdir/A.json" -bucketcap -5
refuse "-mode" reconcile -in "$tmpdir/A.json" -mode bogus
refuse "-evidence" reconcile -in "$tmpdir/A.json" -evidence bogus
refuse "-explain" reconcile -in "$tmpdir/A.json" -explain 12
refuse "-explain -shards" reconcile -in "$tmpdir/A.json" -explain 1,2 -shards 2
refuse "-dot -shards" reconcile -in "$tmpdir/A.json" -dot "$tmpdir/g.dot" -shards 0
printf '{"name":"catalog","references":[{"class":"Product","atomic":{"title":["widget"]}}]}' >"$tmpdir/catalog.json"
refuse "-in" reconcile -in "$tmpdir/catalog.json"
"$tmpdir/reconcile" -in "$tmpdir/A.json" -workers 1 -dump "$tmpdir/workers1.json" >/dev/null
"$tmpdir/reconcile" -in "$tmpdir/A.json" -workers 4 -dump "$tmpdir/workers4.json" >/dev/null
cmp "$tmpdir/workers1.json" "$tmpdir/workers4.json" || { echo "reconcile -workers changed the partitions" >&2; exit 1; }
for d in A cora; do
    "$tmpdir/reconcile" -in "$tmpdir/$d.json" -shards 1 -dump "$tmpdir/shards1.json" >/dev/null
    "$tmpdir/reconcile" -in "$tmpdir/$d.json" -shards 4 -dump "$tmpdir/shards4.json" >/dev/null
    cmp "$tmpdir/shards1.json" "$tmpdir/shards4.json" || { echo "reconcile -shards changed the partitions of $d" >&2; exit 1; }
done

echo "== shard smoke (100k-ref scaled corpus through the sharded path; contact wiring stays off the top of the build) =="
# The shard count is explicit (-shards 4) because -shards 0 resolves to
# GOMAXPROCS, which is 1 on single-core CI hosts and would silently skip
# the sharded path. The wall-clock budget is enforced with timeout(1);
# override via SHARD_SMOKE_BUDGET (seconds) for slower hardware.
budget="${SHARD_SMOKE_BUDGET:-300}"
go run ./cmd/pimgen -refs 100000 -o "$tmpdir/scaled100k.json"
timeout "$budget" go run ./cmd/reconcile -in "$tmpdir/scaled100k.json" \
    -shards 4 -bucketcap 48 >"$tmpdir/scaled100k.out"
grep '^shards: 4 groups' "$tmpdir/scaled100k.out"
# The association stage must not be the largest of the four build stages:
# a quadratic contact probe made it ~85% of the build at this size.
awk '/^build: / {
    for (i = 2; i < NF; i += 2) {
        v = $(i + 1); sub(/,$/, "", v); s = 0
        if (v ~ /m[0-9]/) { split(v, p, "m"); s = p[1] * 60; v = p[2] }
        if (v ~ /µs$/) s += v / 1e6; else if (v ~ /ms$/) s += v / 1e3; else s += v
        t[$i] = s
    }
    top = "enumerate"
    for (k in t) if (t[k] > t[top]) top = k
    print "largest build stage: " top
    if (top == "associations") { print $0 > "/dev/stderr"; exit 1 }
    found = 1
} END { exit !found }' "$tmpdir/scaled100k.out"

echo "== trace smoke (reconcile -trace over PIM A, validated by tracecheck) =="
go run ./cmd/reconcile -in "$tmpdir/A.json" -trace "$tmpdir/trace.json" -progress | grep '^trace written'
go run ./cmd/tracecheck "$tmpdir/trace.json"

echo "== serve smoke (reconserve -audit: ingest PIM A under the invariant audit, one reconcile query) =="
go build -o "$tmpdir/reconserve" ./cmd/reconserve
base="http://127.0.0.1:18417"
"$tmpdir/reconserve" -addr 127.0.0.1:18417 -audit &
server_pid=$!
ready=""
for _ in $(seq 1 50); do
    if curl -fsS "$base/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.2
done
[ -n "$ready" ] || { echo "reconserve never became ready" >&2; exit 1; }
# grep without -q reads the producer to EOF, avoiding curl SIGPIPE under
# pipefail.
curl -fsS "$base/" | grep '"versions":\["0.2"\]' >/dev/null
curl -fsS -X POST --data-binary @"$tmpdir/A.json" "$base/ingest" | grep '"added":' >/dev/null
# Query a person name lifted from the dataset itself; the reconcile
# response must produce a scored candidate list.
name=$(awk -F'"' '/"name": \[/ { getline; print $2; exit }' "$tmpdir/A.json")
[ -n "$name" ] || { echo "no person name found in dataset" >&2; exit 1; }
curl -fsS "$base/reconcile" --data-urlencode "queries={\"q0\":{\"query\":\"$name\",\"type\":\"Person\"}}" \
    | grep '"result":\[{' >/dev/null
curl -fsS "$base/metrics" | grep '"queries":1' >/dev/null
# Collective smoke: the manifest must advertise the mode, and the same
# query in collective mode must return a scored response with the
# snapshot-version header and tick the collective metrics split.
curl -fsS "$base/" | grep '"collective":{"modes":\["attribute","collective"\]' >/dev/null
curl -fsS -D "$tmpdir/coll.headers" "$base/reconcile" \
    --data-urlencode "queries={\"q0\":{\"query\":\"$name\",\"type\":\"Person\",\"mode\":\"collective\"}}" \
    | grep '"result":\[{' >/dev/null
grep -i '^x-snapshot-version:' "$tmpdir/coll.headers" >/dev/null \
    || { echo "collective response missing X-Snapshot-Version" >&2; exit 1; }
curl -fsS "$base/metrics" | grep '"collectiveQueries":1' >/dev/null
# Ecosystem surface: the manifest must advertise suggest/preview/extend,
# and each endpoint must answer over the same snapshot.
curl -fsS "$base/" | grep '"suggest":{"entity":{' >/dev/null
curl -fsS "$base/" | grep '"preview":{' >/dev/null
curl -fsS "$base/" | grep '"propose_properties":{' >/dev/null
prefix=$(printf '%s' "$name" | cut -c1-3)
curl -fsS "$base/suggest/entity" --get --data-urlencode "prefix=$prefix" \
    >"$tmpdir/suggest.json"
grep '"result":\[{' "$tmpdir/suggest.json" >/dev/null
# The first suggested entity (a Person, matched on a name prefix) feeds
# the preview and extension checks.
eid=$(grep -o '"id":"[0-9]*"' "$tmpdir/suggest.json" | head -1 | tr -dc 0-9)
[ -n "$eid" ] || { echo "suggest returned no entity id" >&2; exit 1; }
curl -fsS "$base/preview/$eid" | grep '<html>' >/dev/null
curl -fsS "$base/properties?type=Person" | grep '"properties":\[{' >/dev/null
# Data extension: the suggested entity's stored name values come back.
curl -fsS "$base/reconcile" \
    --data-urlencode "extend={\"ids\":[\"$eid\"],\"properties\":[{\"id\":\"name\"}]}" \
    | grep "\"rows\":{\"$eid\":{\"name\":\[{\"str\":" >/dev/null
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== durability smoke (ingest, kill -9, replay; clean shutdown, fast restore) =="
base="http://127.0.0.1:18418"
datadir="$tmpdir/durable"
wait_ready() {
    for _ in $(seq 1 50); do
        if curl -fsS "$base/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "reconserve never became ready" >&2
    return 1
}
"$tmpdir/reconserve" -addr 127.0.0.1:18418 -data-dir "$datadir" &
server_pid=$!
wait_ready
curl -fsS -X POST --data-binary @"$tmpdir/A.json" "$base/ingest" | grep '"added":' >/dev/null
ver1=$(curl -fsS -D - -o "$tmpdir/entity0.batch1.json" "$base/entity/0" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-snapshot-version" {print $2}')
curl -fsS "$base/explain/0/1" >"$tmpdir/explain01.batch1.json"
# A second batch, so the view that crash replay and fast restore must
# reproduce carries pair decisions over from the one before it.
batch2="{\"references\":[{\"class\":\"Person\",\"atomic\":{\"name\":[\"$name\"]}},{\"class\":\"Person\",\"atomic\":{\"name\":[\"$name\"]}}]}"
curl -fsS -X POST --data-binary "$batch2" "$base/ingest" | grep '"added":2' >/dev/null
ver=$(curl -fsS -D - -o "$tmpdir/entity0.json" "$base/entity/0" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-snapshot-version" {print $2}')
curl -fsS "$base/explain/0/1" >"$tmpdir/explain01.json"
[ -n "$ver1" ] && [ -n "$ver" ] && [ "$ver1" != "$ver" ] || { echo "X-Snapshot-Version missing or not advanced by the second batch" >&2; exit 1; }
# Crash: no clean shutdown, no final checkpoint — recovery must replay the
# write-ahead log and land on the identical published state.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
"$tmpdir/reconserve" -addr 127.0.0.1:18418 -data-dir "$datadir" &
server_pid=$!
wait_ready
curl -fsS "$base/metrics" | grep '"recovery":"replay"' >/dev/null
ver2=$(curl -fsS -D - -o "$tmpdir/entity0.replay.json" "$base/entity/0" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-snapshot-version" {print $2}')
curl -fsS "$base/explain/0/1" >"$tmpdir/explain01.replay.json"
[ "$ver" = "$ver2" ] || { echo "replay version $ver2 != $ver" >&2; exit 1; }
cmp -s "$tmpdir/entity0.json" "$tmpdir/entity0.replay.json" || { echo "entity/0 differs after crash replay" >&2; exit 1; }
cmp -s "$tmpdir/explain01.json" "$tmpdir/explain01.replay.json" || { echo "explain/0/1 differs after crash replay" >&2; exit 1; }
# Clean shutdown: SIGTERM drains, writes the final checkpoint, closes the
# log — the next start takes the fast restore path at the same state.
kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
"$tmpdir/reconserve" -addr 127.0.0.1:18418 -data-dir "$datadir" &
server_pid=$!
wait_ready
curl -fsS "$base/metrics" | grep '"recovery":"checkpoint"' >/dev/null
ver3=$(curl -fsS -D - -o "$tmpdir/entity0.restore.json" "$base/entity/0" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-snapshot-version" {print $2}')
[ "$ver" = "$ver3" ] || { echo "fast-restore version $ver3 != $ver" >&2; exit 1; }
curl -fsS "$base/explain/0/1" >"$tmpdir/explain01.restore.json"
cmp -s "$tmpdir/entity0.json" "$tmpdir/entity0.restore.json" || { echo "entity/0 differs after fast restore" >&2; exit 1; }
cmp -s "$tmpdir/explain01.json" "$tmpdir/explain01.restore.json" || { echo "explain/0/1 differs after fast restore" >&2; exit 1; }
# The restored view must be a whole view before any ingest republishes it:
# the manifest still advertises the collective mode and a collective query
# is answered (a hand-built restore view once left the collective matcher
# nil and this query crashed the handler).
curl -fsS "$base/" | grep '"collective":{"modes":\["attribute","collective"\]' >/dev/null
curl -fsS "$base/reconcile" \
    --data-urlencode "queries={\"q0\":{\"query\":\"$name\",\"type\":\"Person\",\"mode\":\"collective\"}}" \
    | grep '"result":\[{' >/dev/null
curl -fsS "$base/metrics" | grep '"collectiveQueries":1' >/dev/null
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
# Initial store: -in is New + one ingest, so a dataset given at start-up
# must land on the state the first POST above left, be logged as batch 1,
# and come back from a crash by the same replay.
seeded="$tmpdir/durable-seeded"
"$tmpdir/reconserve" -addr 127.0.0.1:18418 -in "$tmpdir/A.json" -data-dir "$seeded" &
server_pid=$!
wait_ready
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
"$tmpdir/reconserve" -addr 127.0.0.1:18418 -data-dir "$seeded" &
server_pid=$!
wait_ready
curl -fsS "$base/metrics" | grep '"recovery":"replay"' >/dev/null
ver4=$(curl -fsS -D - -o "$tmpdir/entity0.seeded.json" "$base/entity/0" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-snapshot-version" {print $2}')
curl -fsS "$base/explain/0/1" >"$tmpdir/explain01.seeded.json"
[ "$ver1" = "$ver4" ] || { echo "seeded-store version $ver4 != $ver1" >&2; exit 1; }
cmp -s "$tmpdir/entity0.batch1.json" "$tmpdir/entity0.seeded.json" || { echo "entity/0 differs for a store given with -in" >&2; exit 1; }
cmp -s "$tmpdir/explain01.batch1.json" "$tmpdir/explain01.seeded.json" || { echo "explain/0/1 differs for a store given with -in" >&2; exit 1; }
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
# Reseeding a directory that already holds state is a user error (exit 2).
refuse "-in -data-dir" reconserve -addr 127.0.0.1:18418 -in "$tmpdir/A.json" -data-dir "$seeded"
grep 'already holds state' "$tmpdir/refuse.err" >/dev/null

echo "== loadgen smoke (mixed ingest+query replay, both datasets, 32 clients) =="
# loadgen itself exits non-zero on any transport or per-query error; the
# grep additionally asserts the per-mode histograms are non-empty.
go build -o "$tmpdir/loadgen" ./cmd/loadgen
base="http://127.0.0.1:18419"
for ds in biblio catalog; do
    sch=pim
    [ "$ds" = catalog ] && sch=catalog
    "$tmpdir/reconserve" -addr 127.0.0.1:18419 -schema "$sch" &
    server_pid=$!
    wait_ready
    "$tmpdir/loadgen" -target "$base" -dataset "$ds" -refs 1200 -queries 300 \
        -clients 32 -o "$tmpdir/loadgen.$ds.json"
    for mode in plainLatencyMs collectiveLatencyMs; do
        count=$(grep -A1 "\"$mode\"" "$tmpdir/loadgen.$ds.json" | awk -F'[ ,]' '/"count"/ {print $(NF-1)}')
        [ "${count:-0}" -gt 0 ] || { echo "loadgen $ds: empty $mode histogram" >&2; exit 1; }
    done
    kill "$server_pid"
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
done

echo "== size (gated: no PR leaves more code, API, knobs or design prose than the last one did) =="
lines=$(find internal cmd -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)
exported=$(find internal cmd -name '*.go' -not -name '*_test.go' -print0 | xargs -0 grep -hE '^(func (\([^)]*\) )?|type )[A-Z]' | wc -l)
# Knobs: the fields of the three Config structs plus the flags under cmd/.
cfgfields() { awk '/^type Config struct \{/{on=1; next} on && /^\}/{on=0} on && /^\t[A-Z][A-Za-z0-9]*( |,)/{n++} END{print n+0}' "$1"; }
knobs=$(( $(cfgfields internal/recon/config.go) + $(cfgfields internal/serve/serve.go) + $(cfgfields internal/collective/collective.go) \
    + $(grep -rhoE 'flag\.(String|Int|Int64|Bool|Float64|Duration)\(' cmd | wc -l) ))
design=$(wc -c <DESIGN.md)
echo "non-test Go lines under internal/ + cmd/: $lines (ceiling 19526)"
echo "exported funcs, methods and types:         $exported (ceiling 508)"
echo "knobs (Config fields + cmd flags):         $knobs (ceiling 64)"
echo "DESIGN.md bytes:                           $design (ceiling 68415)"
if [ "$lines" -gt 19526 ] || [ "$exported" -gt 508 ] || [ "$knobs" -gt 64 ] || [ "$design" -gt 68415 ]; then
    echo "size ceiling exceeded" >&2
    exit 1
fi

echo "CI gate passed."
