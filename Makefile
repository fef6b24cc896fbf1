# Developer entry points.  CI invokes these same targets for its build, vet,
# test, race, bench and smoke steps so local runs and the pipeline cannot
# drift (the workflow keeps a few extra targeted -race steps of its own).

GO ?= go

.PHONY: all build vet fmt-check test race fuzz oracles bench bench-test perf perf-quick smoke smoke-http smoke-crash smoke-shard

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would change any file (the benchmark's build directory,
# which holds a module cache, is not ours to format).
fmt-check:
	@out="$$(gofmt -l . | grep -v '^\.bench_build/' || true)"; \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Time-boxed fuzzing of the five total decoders (the shared frame, wire
# payloads, WAL record payloads, order-preserving keys, packed row views), of
# the key index against its key-storing oracle, of the row directory against
# its location-per-id oracle, of the heap pages against the rows appended to
# them, of the B-tree against its sorted-slice oracle (seed corpora in
# testdata/fuzz/<target>; the last three take long op streams, so minimizing
# each new one is capped at ten runs or the ten seconds go to the minimizer)
# and of the catalog splitter against its Scanner oracle: 10 s each, one
# target and one package per invocation as `go test -fuzz` requires.
# An input that fails is written to the package's testdata/fuzz/<target>/;
# check it in, it is then a regression seed every plain `go test` replays.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 10s ./internal/frame/
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/shard/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime 10s ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzOrderedKeyOrder$$' -fuzztime 10s ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzRowViewDecode$$' -fuzztime 10s ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyIndexOps$$' -fuzztime 10s ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzRowDirOps$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzHeapPages$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzBTreeOps$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecords$$' -fuzztime 10s ./internal/catalog/

# The byte-identity oracles a behaviour-preserving change must leave alone:
# the twelve skybench CSVs, skyload (DES and both -crash seeds), the three
# skyserve DES outputs and skyshard -sim 100, run on REF and on this tree and
# diffed.  `make oracles REF=HEAD` checks uncommitted work against its base.
# A change that means to move one output names it (ALLOW=skyshard-sim100.txt):
# its diff is printed, the sim's loaded rows and per-shard rows must still
# match, and any other difference fails as before.
oracles:
	bash scripts/oracles.sh $(REF) $(ALLOW)

# Batch-apply + index-build benchmark smoke: exercises one-row Txn.Insert
# calls, whole Txn.InsertBatch calls, the sorted bulk B-tree pass, the Seal bulk leaf build, the
# encoded-key comparator, the two row paths under every query (a primary-key
# probe and an index range: where a row directory that went back to searching
# would show), the immediate-vs-deferred load policy comparison,
# the one HTTP front door (query path and /metrics render, over a database),
# the fleet's scatter-gather path under it and the whole ingest path on the
# wall clock, on one node (ReadRecords + parallel.Run, the region every skyperf
# workload times) and through a fleet (ReadRecords + Coordinator.LoadFiles into
# three agents on loopback TCP, shard-scatter's), so none of those can silently
# regress or break.  -benchtime=100x (1x for the whole-run bench) keeps it a
# smoke test (counts, not timings); measurements come from `make perf`
# (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'InsertBatch|InsertRow|BTreeInsertSorted|SealBulkBuild|BTreeEncodedCompare|LookupByPKRef|RangeIndexedRef' -benchtime=100x ./internal/relstore/
	$(GO) test -run '^$$' -bench 'IndexLoadPolicy' -benchtime=1x ./internal/relstore/
	$(GO) test -run '^$$' -bench 'ServeHTTPQuery|MetricsScrape' -benchtime=100x ./internal/httpserve/
	$(GO) test -run '^$$' -bench 'ScatterGather|SingleNode|WireQueryResult' -benchtime=50x ./internal/shard/
	$(GO) test -run '^$$' -bench 'IngestNight|FleetNight' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'DurableCommit' -benchtime=200x .

# bench/ is a module of its own (it requires this one through a replace
# directive), so `go test ./...` at the root never reaches it.  Its tests run
# skyperf -quick traced and untraced against the engine in this checkout and
# check the emitted workload and metric names against BENCHMARK.json.
bench-test:
	cd bench && $(GO) test ./...

# The repository's benchmark (BENCHMARK.json): all five workloads end to end.
# Arguments pass through, e.g. `make perf ARGS="-workload ingest-bulk -seed 7"`
# or `ARGS="-trace 1"` for the per-layer run; perf-quick is the 1/20-size
# smoke run.  Build outputs, inputs and results stay under .bench_build/.
perf:
	bash bench/run.sh $(ARGS)

perf-quick:
	bash bench/run.sh -quick $(ARGS)

smoke:
	$(GO) run ./cmd/skyserve -smoke

# HTTP front-door smoke: loads a tiny catalog, serves the query API over a
# real socket, answers one query per class and validates its own /metrics
# scrape (shared PromValid checker).  Exercises the full skyserve -http path
# CI can't reach in-process.
smoke-http:
	$(GO) run ./cmd/skyserve -http 127.0.0.1:0 -smoke

# Crash/recover smoke: WAL-backed load killed at a seed-derived log append,
# recovered from the directory the dead process left, resumed, and verified
# byte-identical (row counts, per-index iteration order, stats totals) to an
# uninterrupted run.  The fixed seed fixes the kill point, so the scenario —
# including checkpoint-bounded replay — is fully deterministic in CI.
smoke-crash:
	$(GO) run ./cmd/skyload -crash -seed 7 -size 2
	$(GO) run ./cmd/skyload -crash -seed 42 -size 2

# Distributed shard smoke: a real 3-agent TCP fleet loaded through the
# coordinator and verified byte-for-byte against a single-node oracle, one
# agent killed mid-run and restored from the files the run still holds, the
# /v1 front door (the same httpserve.Server as smoke-http, over the
# coordinator) and its sky_shard_* + sky_serve_* scrape validated, and the DES
# topology sim run twice to prove determinism.
smoke-shard:
	$(GO) run ./cmd/skyshard -smoke
