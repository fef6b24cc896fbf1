# Developer entry points.  CI invokes these same targets for its build, vet,
# test, race, bench and smoke steps so local runs and the pipeline cannot
# drift (the workflow keeps a few extra targeted -race steps of its own).

GO ?= go

.PHONY: all build vet fmt-check loc test race fuzz oracles pairs bench bench-test perf perf-quick smoke smoke-http smoke-crash

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

# Non-test Go lines (wc -l) per package under internal/ and cmd/, then their
# sum: the one count ROADMAP's line budgets and CHANGES entries quote.  Only
# those two trees are searched, so the benchmark's build directory, which
# holds an exported copy of the repository, never counts.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^/]*$$/, "", d); n[d] += $$1; all += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", all }'

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
# each new one is capped at ten runs or the ten seconds go to the minimizer),
# of the catalog splitter against ParseLine line by line, of the catalog
# generator's fixed-precision formatter against strconv.FormatFloat and of
# the query handler's response bodies against json.Encoder's: 10 s each, one
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
	$(GO) test -run '^$$' -fuzz '^FuzzFormatFixed$$' -fuzztime 10s ./internal/catalog/
	$(GO) test -run '^$$' -fuzz '^FuzzResponseEncode$$' -fuzztime 10s ./internal/httpserve/

# The byte-identity oracles a behaviour-preserving change must leave alone:
# the twelve skybench CSVs, skyload (DES and both -crash seeds), the three
# skyserve DES outputs, skyshard -sim 100, the catalog text of a six-file
# skygen night with every corruption kind and of one unsorted skygen file, and
# examples/quickstart's output: 11 command outputs, run on REF and on this
# tree and diffed.  `make oracles REF=HEAD` checks uncommitted work against its base.
# A change that means to move one output names it (ALLOW=skyshard-sim100.txt):
# its diff is printed, the sim's loaded rows and per-shard rows must still
# match, and any other difference fails as before.
oracles:
	bash scripts/oracles.sh $(REF) $(ALLOW)

# Alternating parent/change pairs of the benchmark (scripts/pairs.sh): REF is
# the parent, CHANGE the change (default: the work tree), W the workloads
# (comma-separated or "all"; default ingest-bulk), N the pairs (default 10),
# SEED the first seed, QUICK=1 the 1/20-size runs.  One JSON report per
# invocation under .bench_build/pairs/, and a table for CHANGES.md.
pairs:
	W='$(W)' N='$(N)' SEED='$(SEED)' bash scripts/pairs.sh $(if $(QUICK),-quick) $(REF) $(CHANGE)

# Batch-apply + index-build benchmark smoke: exercises one-row Txn.Insert
# calls, whole Txn.InsertBatch calls, the sorted bulk B-tree pass, the Seal bulk leaf build, the
# encoded-key comparator, the full objects scan that reads a float off every
# row, almost all of them on closed narrow pages, through RowView's getters
# (where a slower stream decode would show), the two row paths under every query (a primary-key
# probe and an index range: where a row directory that went back to searching
# would show), foreign-key probes into parents whose keys sit in runs and in
# the tag table, the immediate-vs-deferred load policy comparison,
# the one HTTP front door (query path and /metrics render, over a database),
# the fleet's scatter-gather path under it and the whole ingest path on the
# wall clock, on one node (ReadRecords + parallel.Run, the region every skyperf
# workload times) and through a fleet (ReadRecords + Coordinator.LoadFiles into
# three agents on loopback TCP, shard-scatter's), and the catalog generator
# that writes every workload's input (Generate + WriteTo of a fixed-seed
# night), so none of those can silently regress or break.  -benchtime=100x (1x for the whole-run bench) keeps it a
# smoke test (counts, not timings); measurements come from `make perf`
# (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'InsertBatch|InsertRow|BTreeInsertSorted|SealBulkBuild|BTreeEncodedCompare|ScanRef|LookupByPKRef|RangeIndexedRef|FKProbe' -benchtime=100x ./internal/relstore/
	$(GO) test -run '^$$' -bench 'IndexLoadPolicy' -benchtime=1x ./internal/relstore/
	$(GO) test -run '^$$' -bench 'ServeHTTPQuery|MetricsScrape' -benchtime=100x ./internal/httpserve/
	$(GO) test -run '^$$' -bench 'ScatterGather|SingleNode|WireQueryResult' -benchtime=50x ./internal/shard/
	$(GO) test -run '^$$' -bench 'IngestNight|FleetNight' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'DurableCommit' -benchtime=200x .
	$(GO) test -run '^$$' -bench 'WriteNight' -benchtime=1x ./internal/catalog/

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
