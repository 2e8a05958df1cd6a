# LDV build and verification entry points.

GO ?= go

.PHONY: all build vet test check bench examples experiments fuzz fuzz-smoke plan-bench recover-bench trace-bench stat-demo repl-bench proto-bench ash-bench asof-bench ops-demo repl-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The observability registry is all lock-free atomics and the engine/server
# are concurrent (per-session transactions, MVCC reads), and replication
# applies WAL records concurrently with replica reads; always exercise those
# packages under the race detector.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/obs/... ./internal/engine/... ./internal/server/... ./internal/repl/...

# Full verification: vet, the docs lint (every package needs a godoc
# comment), the trace lint (every span started on the request path must be
# ended via defer), the metric lint (every registered metric needs a help
# string and a conforming name), the wait lint (every obs.WaitBegin is
# closed via defer and every wait event is described), the plan lint (every
# plan operator carries the full explain + lineage surface), the proto lint
# (every wire message kind is documented in PROTOCOL.md and vice versa), the
# durability and replication crash matrices under the race detector, then
# the whole tree under the race detector with shuffled test order (to
# surface order-dependent state).
check:
	$(GO) vet ./...
	$(GO) test -run TestPackageDocComments .
	$(GO) test -run TestSpanEndDiscipline .
	$(GO) test -run TestMetricDescriptions .
	$(GO) test -run TestWaitDiscipline .
	$(GO) test -run TestPlanNodeSurface .
	$(GO) test -run TestProtocolDoc .
	$(GO) test -race -run TestCrashMatrix ./internal/engine
	$(GO) test -race -run TestReplicaCrashMatrix ./internal/repl
	$(GO) test -race -shuffle=on ./...

# One testing.B benchmark per paper table/figure plus engine micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/halofinder
	$(GO) run ./examples/tpch
	$(GO) run ./examples/partialreplay
	$(GO) run ./examples/replication

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/ldv-bench -exp all

# Short fuzzing pass over the parser, codecs (values, WAL records, table
# files), predicate kernels, and ops endpoint.
fuzz:
	$(GO) test ./internal/sqlparse -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzRead -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzPrepared -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzTraceContext -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzReplMessages -fuzztime 30s
	$(GO) test ./internal/sqlval -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/sqlval -fuzz FuzzKey -fuzztime 30s
	$(GO) test ./internal/engine -fuzz FuzzWALDecode -fuzztime 30s
	$(GO) test ./internal/engine -fuzz FuzzWALScan -fuzztime 30s
	$(GO) test ./internal/engine -fuzz FuzzPredicate -fuzztime 30s
	$(GO) test ./internal/engine -fuzz FuzzTableFile -fuzztime 30s
	$(GO) test ./internal/ops -fuzz FuzzTracesHandler -fuzztime 30s
	$(GO) test ./internal/plan -fuzz FuzzPlan -fuzztime 30s
	$(GO) test ./internal/sqlparse -fuzz FuzzAsOf -fuzztime 30s

# CI smoke variant of `fuzz`: a few seconds per target, every target. Keeps
# the corpus exercised on every push without the 30s-per-target cost.
fuzz-smoke:
	$(GO) test ./internal/sqlparse -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/sqlparse -fuzz FuzzAsOf -fuzztime 5s
	$(GO) test ./internal/wire -fuzz FuzzRead -fuzztime 5s
	$(GO) test ./internal/sqlval -fuzz FuzzKey -fuzztime 5s
	$(GO) test ./internal/engine -fuzz FuzzWALDecode -fuzztime 5s
	$(GO) test ./internal/engine -fuzz FuzzPredicate -fuzztime 5s
	$(GO) test ./internal/engine -fuzz FuzzTableFile -fuzztime 5s

# WAL overhead and recovery-time measurements (EXPERIMENTS.md "Durability").
recover-bench:
	$(GO) run ./cmd/ldv-bench -exp durability | tee results/durability.txt

# Secondary-index speedup on selective TPC-H lookups (EXPERIMENTS.md
# "Planning"; target: >=10x on the point query at SF 0.02).
plan-bench:
	$(GO) run ./cmd/ldv-bench -exp planner -sf 0.02 | tee results/planner.txt

# Request-tracing overhead on a read-only workload (budget: <5%).
trace-bench:
	$(GO) run ./cmd/ldv-bench -exp tracing | tee results/tracing.txt

# Statement-statistics overhead plus the ldv_stat_statements surface itself
# (budget: <2%).
stat-demo:
	$(GO) run ./cmd/ldv-bench -exp introspection | tee results/introspection.txt

# Read scaling with streaming WAL replicas + steady-state lag
# (EXPERIMENTS.md "Replication").
repl-bench:
	$(GO) run ./cmd/ldv-bench -exp replication | tee results/replication.txt

# Text vs prepared vs pipelined throughput at 1/4/8 sessions
# (EXPERIMENTS.md "Prepared statements"; target: pipelined >=2x text at 8
# sessions with a >90% steady-state plan-cache hit rate).
proto-bench:
	$(GO) run ./cmd/ldv-bench -exp prepared | tee results/prepared.txt

# Wait-event accounting + ASH sampler overhead on a concurrent read
# workload, plus the ldv_stat_wait_events / ldv_stat_ash surface itself
# (budget: <2%).
ash-bench:
	$(GO) run ./cmd/ldv-bench -exp ash | tee results/ash.txt

# AS OF read overhead vs head reads plus vacuum reclaim rate under churn
# (EXPERIMENTS.md "Time travel").
asof-bench:
	$(GO) run ./cmd/ldv-bench -exp timetravel | tee results/timetravel.txt

# Boot a throwaway ldvdb with the ops endpoint enabled and show /metrics —
# the 30-second demo of the observability surface. Cleans up after itself.
ops-demo:
	@rm -rf /tmp/ldv-ops-demo && mkdir -p /tmp/ldv-ops-demo
	@$(GO) build -o /tmp/ldv-ops-demo/ldvdb ./cmd/ldvdb
	@/tmp/ldv-ops-demo/ldvdb -addr 127.0.0.1:15544 -data /tmp/ldv-ops-demo/data -ops 127.0.0.1:18089 & \
	pid=$$!; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		curl -sf http://127.0.0.1:18089/metrics > /dev/null 2>&1 && break; \
		sleep 0.3; \
	done; \
	echo "== GET /metrics =="; curl -sf http://127.0.0.1:18089/metrics | head -30; \
	echo "== GET /traces =="; curl -sf http://127.0.0.1:18089/traces; echo; \
	kill $$pid; wait $$pid 2>/dev/null; \
	rm -rf /tmp/ldv-ops-demo

# Boot a primary and a read replica over TCP in one process, run a routed
# read-your-writes query, and promote the replica — the replication demo.
repl-demo:
	$(GO) run ./examples/replication

clean:
	rm -f *.ldvpkg test_output.txt bench_output.txt
