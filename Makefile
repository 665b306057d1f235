GO ?= go

# perf-gate inputs: BASELINE is the committed reference artifact (a
# run manifest or a BENCH_*.json snapshot, default: the committed
# benchmark baseline); CURRENT is the artifact to gate, e.g. the
# manifest the experiments command writes or a fresh bench snapshot.
BASELINE ?= BENCH_2026-08-09.json
CURRENT ?= experiments-manifest.json

.PHONY: build test bench-test race vet vet-tags fmt bench bench-snapshot bench-current chaos fleet-chaos check perf-gate perf-gate-check online-demo sources-demo health-demo dashboard-demo fleet-load fleet-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test runs the benchmark module's own tests (bench/ is a module
# of its own, outside ./...): a smoke run of every workload with its
# output checks on, and the check that repeated batches give identical
# trace digests, so a simulator change that moves a trace byte fails.
bench-test:
	cd bench && $(GO) test ./...

# The experiment runner (internal/runner) and the obs registry are
# the repository's real concurrency; the race detector is part of the
# standard check. vet runs over every package.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file, bench/ included, is not gofmt-formatted,
# and lists the offenders.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# The tag matrix: the pure-Go network/user-lookup builds are how the
# netdyn commands are cross-compiled for probe boxes, so vet must stay
# clean under them too. ./... covers every package, including the
# source layer (internal/source, cmd/netdyn-relay).
vet-tags: vet
	$(GO) vet -tags netgo ./...
	$(GO) vet -tags netgo,osusergo ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-snapshot records the whole benchmark suite as a
# machine-readable baseline (benchmark name -> ns/op plus custom
# metrics) for perf PRs to regress against.
bench-snapshot:
	$(GO) test -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date +%Y-%m-%d).json"

# chaos runs the fault-injection suite under the race detector: the
# seeded sim chaos sweep (byte-identical traces at any worker count),
# the real-socket loopback run with drops, transient send errors, and
# blackhole windows against a supervised session, the pipeline
# conservation tests (produced == applied + Σ drops under those same
# faults, at any worker count), the sharded-vs-single online
# equivalence suite under a chaos fault plan, and the coordinator
# lifecycle tests (retries, disconnect re-queues) over real loopback
# control connections, and the source layer, whose Sender writes from
# a flush goroutine of its own (coalescing, short writes, redial
# accounting). It then fuzzes the JSONL trace encoder against
# encoding/json for a few seconds (FuzzJSONLEncode: arbitrary strings,
# extreme integers, non-finite and boundary floats), the binary frame
# decoder the relay wire and the journal share (FuzzFrameReader:
# arbitrary bytes never panic it, every error short of a clean end
# wraps ErrTruncated, and what it decoded re-encodes to the same
# events), the Lindley queue against the two-event queue it replaced
# (FuzzQueueReference: random pipelines full of same-nanosecond ties),
# the coordinator's
# journal replay (FuzzRecover: arbitrary bytes never panic Recover, and
# a compacted journal replays to the same table; minimization is capped
# because every input writes and fsyncs a journal), its per-connection
# handler (FuzzHandle: arbitrary frames on one control connection never
# panic it, its counts stay consistent with its status, and a fresh
# agent still completes a job exactly once), and the fault-plan
# and alert-rule parsers (FuzzParsePlan, FuzzParseRules: arbitrary
# bytes never panic them, what they accept is valid, and it survives a
# marshal and a second parse unchanged).
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/... ./internal/pipestat/... \
		./internal/online/... ./internal/coord/... ./internal/source/...
	$(GO) test -run '^$$' -fuzz '^FuzzJSONLEncode$$' -fuzztime 5s ./internal/otrace/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 5s ./internal/otrace/
	$(GO) test -run '^$$' -fuzz '^FuzzQueueReference$$' -fuzztime 5s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/coord/
	$(GO) test -run '^$$' -fuzz '^FuzzHandle$$' -fuzztime 5s ./internal/coord/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 5s ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime 5s ./internal/tshist/

# fleet-chaos is the full-fleet chaos soak (coord.RunChaos): a journaled
# coordinator, agents, and a relay on loopback, with a seeded schedule
# SIGKILLing the coordinator (journal abandoned mid-stream), random
# agents, and the relay mid-campaign under a fault-injection plan.
# Asserts every instance settles exactly once, the journal replays to
# the same final table, and the pipeline ledger balances. CHAOS_SECONDS
# scales the campaign; CHAOS_SEED reschedules the kills.
CHAOS_SECONDS ?= 4
CHAOS_SEED ?= 1

fleet-chaos:
	CHAOS_SECONDS=$(CHAOS_SECONDS) CHAOS_SEED=$(CHAOS_SEED) \
		$(GO) test -race -count=1 -run 'TestFleetChaos|TestChaosCoordinatorKillExactlyOnce' \
		-v ./internal/coord/

check: build fmt vet-tags race bench-test chaos fleet-chaos sources-demo health-demo dashboard-demo fleet-demo perf-gate-check

# online-demo smoke-tests the online analysis engine end to end: a
# short seeded sweep with -online, the /online handler curled while
# the process lingers, and the online.* gauges on /metrics.
ONLINE_ADDR ?= 127.0.0.1:6061

online-demo:
	@$(GO) build -o /tmp/netprobe-bolotsim ./cmd/bolotsim
	@/tmp/netprobe-bolotsim -delta 20ms,50ms -duration 5s -seed 42 \
		-online -linger 5s -debug-addr $(ONLINE_ADDR) & \
	pid=$$!; sleep 2; \
	echo "--- GET /online ---"; \
	curl -sf http://$(ONLINE_ADDR)/online || { kill $$pid; exit 1; }; \
	echo "--- online gauges on /metrics ---"; \
	curl -sf http://$(ONLINE_ADDR)/metrics | grep '^online_'; \
	wait $$pid

# sources-demo smoke-tests the Source layer end to end over loopback:
# a netdyn-relay collector accepts a wire-framed event stream from a
# seeded bolotsim sweep, and the relay's /online analysis and
# per-source counters (source_events, source_dropped, relay_conns) are
# curled while the stream is live. Lossless by default, so the relayed
# numbers equal a local -online run.
SOURCES_RELAY ?= 127.0.0.1:6070
SOURCES_ADDR ?= 127.0.0.1:6071

sources-demo:
	@$(GO) build -o /tmp/netprobe-relay ./cmd/netdyn-relay
	@$(GO) build -o /tmp/netprobe-bolotsim ./cmd/bolotsim
	@/tmp/netprobe-relay -listen $(SOURCES_RELAY) -debug-addr $(SOURCES_ADDR) & \
	pid=$$!; sleep 1; \
	/tmp/netprobe-bolotsim -delta 20ms,50ms -duration 5s -seed 42 \
		-relay $(SOURCES_RELAY) || { kill $$pid; exit 1; }; \
	sleep 1; \
	echo "--- GET /online (relayed analysis) ---"; \
	curl -sf http://$(SOURCES_ADDR)/online || { kill $$pid; exit 1; }; \
	echo "--- source counters on /metrics ---"; \
	curl -sf http://$(SOURCES_ADDR)/metrics | grep -E '^(source_|relay_)' \
		|| { kill $$pid; exit 1; }; \
	kill -INT $$pid; wait $$pid

# health-demo smoke-tests the self-observability plane end to end: a
# relay comes up (ready once the listener binds), /healthz reports ok,
# a seeded sweep streams events in with heartbeats, and the final
# /statusz shows the per-source table and a conservation ledger with
# nothing unaccounted. The relay is given a short -stale-after so the
# staleness machinery is armed (the streams stay fresh, so it must
# still report ok while connected).
HEALTH_RELAY ?= 127.0.0.1:6080
HEALTH_ADDR ?= 127.0.0.1:6081

health-demo:
	@$(GO) build -o /tmp/netprobe-relay ./cmd/netdyn-relay
	@$(GO) build -o /tmp/netprobe-bolotsim ./cmd/bolotsim
	@/tmp/netprobe-relay -listen $(HEALTH_RELAY) -debug-addr $(HEALTH_ADDR) \
		-stale-after 2s & \
	pid=$$!; sleep 1; \
	echo "--- GET /healthz (idle relay) ---"; \
	curl -sf http://$(HEALTH_ADDR)/healthz | grep '"status": "ok"' \
		|| { kill $$pid; exit 1; }; echo; \
	/tmp/netprobe-bolotsim -delta 20ms,50ms -duration 5s -seed 42 \
		-relay $(HEALTH_RELAY) >/dev/null || { kill $$pid; exit 1; }; \
	sleep 1; \
	echo "--- GET /healthz (after streaming) ---"; \
	curl -sf http://$(HEALTH_ADDR)/healthz | grep '"status": "ok"' \
		|| { kill $$pid; exit 1; }; echo; \
	echo "--- /statusz: sources and pipeline ledger ---"; \
	status=$$(curl -sf http://$(HEALTH_ADDR)/statusz) || { kill $$pid; exit 1; }; \
	echo "$$status" | grep '"sources"' >/dev/null || { kill $$pid; exit 1; }; \
	echo "$$status" | grep '"unaccounted": 0,\?' >/dev/null \
		|| { echo "$$status"; echo "pipeline ledger not balanced"; kill $$pid; exit 1; }; \
	echo "$$status" | grep -o '"heartbeats": [0-9]*'; \
	echo "--- pipeline gauges on /metrics ---"; \
	curl -sf http://$(HEALTH_ADDR)/metrics | grep -E '^pipeline_' \
		|| { kill $$pid; exit 1; }; \
	kill -INT $$pid; wait $$pid

# fleet-load drives the 10k-session fleet benchmark once: a real
# coordinator and sharded relay on loopback, 16 agents, 10,000
# concurrent probe sessions held at a start barrier so peak concurrency
# is exact. Reports sessions/s, events/s, and per-event allocation —
# the same numbers the committed BENCH baseline carries, so a perf PR
# reruns this and diffs via perf-gate.
fleet-load:
	$(GO) test -run '^$$' -bench BenchmarkFleetLoad -benchmem -benchtime 1x ./internal/coord/

# fleet-demo smoke-tests fleet mode end to end over loopback: a
# 4-shard relay, a coordinator with a three-spec jobs file (two sim
# jobs, one real probe job against a local echo server), and three
# agents that register, execute, and stream tagged events to the relay.
# inria-50 and lab-probe carry a small fault plan, so both agent fault
# paths run: the impaired simulated path and the impaired probe socket.
# Asserts every job completes (coordinator exits 0 from -wait), the
# coordinator's /statusz shows the settled job table during -linger,
# the relay's merged /online carries the per-job rows, the per-shard
# gauges are exported, and the relay's conservation ledger balances.
FLEET_ECHO ?= 127.0.0.1:6095
FLEET_COORD ?= 127.0.0.1:6096
FLEET_RELAY ?= 127.0.0.1:6097
FLEET_RDBG ?= 127.0.0.1:6098
FLEET_CDBG ?= 127.0.0.1:6099

fleet-demo:
	@$(GO) build -o /tmp/netprobe-echo ./cmd/netdyn-echo
	@$(GO) build -o /tmp/netprobe-relay ./cmd/netdyn-relay
	@$(GO) build -o /tmp/netprobe-coord ./cmd/netdyn-coord
	@$(GO) build -o /tmp/netprobe-probe ./cmd/netdyn-probe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf '%s\n' '[{"name":"inria-20","mode":"sim","target":"inria","delta":"20ms","duration":"5s","seed":1},' \
		' {"name":"inria-50","mode":"sim","target":"inria","delta":"50ms","duration":"5s","seed":2,"faults":"{\"seed\":2,\"drop\":0.05}"},' \
		' {"name":"lab-probe","mode":"probe","target":"$(FLEET_ECHO)","delta":"10ms","count":100,"seed":3,"faults":"{\"seed\":3,\"drop\":0.05}"}]' \
		> $$tmp/jobs.json; \
	/tmp/netprobe-echo -addr $(FLEET_ECHO) -quiet & \
	epid=$$!; \
	/tmp/netprobe-relay -listen $(FLEET_RELAY) -shards 4 -debug-addr $(FLEET_RDBG) & \
	rpid=$$!; sleep 1; \
	/tmp/netprobe-coord -listen $(FLEET_COORD) -jobs $$tmp/jobs.json \
		-wait -linger 6s -debug-addr $(FLEET_CDBG) & \
	cpid=$$!; sleep 1; \
	apids=""; for i in 1 2 3; do \
		/tmp/netprobe-probe -agent $(FLEET_COORD) -agent-name agent$$i -capacity 2 \
			-relay $(FLEET_RELAY) >/dev/null & \
		apids="$$apids $$!"; \
	done; \
	echo "--- waiting for the 3 jobs to settle ---"; \
	ok=0; for i in $$(seq 1 60); do \
		curl -s http://$(FLEET_CDBG)/statusz | grep -q '"completed": 3' && { ok=1; break; }; \
		sleep 0.5; \
	done; \
	test $$ok = 1 || { echo "jobs never settled"; curl -s http://$(FLEET_CDBG)/statusz; \
		kill $$apids $$cpid $$rpid $$epid 2>/dev/null; exit 1; }; \
	echo "--- coordinator /statusz: settled job table ---"; \
	curl -sf http://$(FLEET_CDBG)/statusz | grep -A 4 '"jobs": {' \
		|| { kill $$apids $$cpid $$rpid $$epid 2>/dev/null; exit 1; }; \
	echo "--- relay /online: per-job fleet analysis ---"; \
	online=$$(curl -sf http://$(FLEET_RDBG)/online) \
		|| { kill $$apids $$cpid $$rpid $$epid 2>/dev/null; exit 1; }; \
	for job in inria-20 inria-50 lab-probe; do \
		echo "$$online" | grep -q "$$job" \
			|| { echo "job $$job missing from /online"; \
			kill $$apids $$cpid $$rpid $$epid 2>/dev/null; exit 1; }; \
	done; \
	echo "--- per-shard gauges on /metrics ---"; \
	curl -sf http://$(FLEET_RDBG)/metrics | grep '^online_shard' | head -4 \
		|| { kill $$apids $$cpid $$rpid $$epid 2>/dev/null; exit 1; }; \
	echo "--- relay ledger balances ---"; \
	ok=0; for i in $$(seq 1 20); do \
		curl -s http://$(FLEET_RDBG)/statusz | grep -q '"unaccounted": 0,\?' && { ok=1; break; }; \
		sleep 0.25; \
	done; \
	test $$ok = 1 || { echo "relay ledger not balanced"; curl -s http://$(FLEET_RDBG)/statusz; \
		kill $$apids $$cpid $$rpid $$epid 2>/dev/null; exit 1; }; \
	kill -INT $$apids; for a in $$apids; do wait $$a; done; \
	wait $$cpid || { echo "coordinator reported failed jobs"; kill $$rpid $$epid 2>/dev/null; exit 1; }; \
	kill -INT $$rpid; wait $$rpid; \
	kill $$epid 2>/dev/null; true

# perf-gate diffs the current run artifact against a baseline and
# fails on regression (wall-time ratios with a noise floor, exact loss
# stats). Usage:
#
#   make perf-gate BASELINE=baseline-manifest.json
#   make perf-gate BASELINE=BENCH_2026-07-01.json CURRENT=BENCH_2026-08-05.json
perf-gate:
	@test -n "$(BASELINE)" || { echo "usage: make perf-gate BASELINE=<manifest-or-bench.json> [CURRENT=$(CURRENT)]"; exit 2; }
	$(GO) run ./cmd/manifestdiff $(BASELINE) $(CURRENT)

# bench-current records a quick benchmark pass (reduced benchtime) as
# /tmp/BENCH_current.json; bench-snapshot remains the full-resolution
# recorder for committed baselines.
bench-current:
	$(GO) test -bench=. -benchmem -benchtime=0.3s ./... | $(GO) run ./cmd/benchjson > /tmp/BENCH_current.json
	@echo "wrote /tmp/BENCH_current.json"

# perf-gate-check is the make-check flavor of the perf gate: the
# committed baseline against a quick current pass, with a loose 2x
# tolerance so it catches order-of-magnitude regressions without
# flaking on machine noise or the reduced benchtime.
perf-gate-check: bench-current
	$(GO) run ./cmd/manifestdiff -bench-tol 2.0 $(BASELINE) /tmp/BENCH_current.json

# dashboard-demo smoke-tests the metrics-history and alerting plane end
# to end over loopback: an unsupervised prober with an injected
# blackhole window probes a local echo server; /vars/history advances
# between scrapes, /dashboard renders, and the loss_spike rule fires
# during the blackhole (alerts_active gauge, /healthz 503, alert events
# in the trace) and clears after the loss window flushes.
DASH_ECHO ?= 127.0.0.1:6090
DASH_ADDR ?= 127.0.0.1:6091

dashboard-demo:
	@$(GO) build -o /tmp/netprobe-echo ./cmd/netdyn-echo
	@$(GO) build -o /tmp/netprobe-probe ./cmd/netdyn-probe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	echo '{"seed":7,"blackholes":[{"start":"3s","end":"6s"}]}' > $$tmp/faults.json; \
	echo '[{"name":"loss_spike","type":"threshold","series":"online.ulp*","max":0.2,"for":2,"clear_for":2}]' > $$tmp/rules.json; \
	/tmp/netprobe-echo -addr $(DASH_ECHO) -quiet & \
	epid=$$!; sleep 1; \
	/tmp/netprobe-probe -target $(DASH_ECHO) -delta 20ms -count 700 \
		-supervise=false -faults $$tmp/faults.json -online -online-window 100 \
		-history-interval 250ms -alert-rules $$tmp/rules.json \
		-trace $$tmp/events.jsonl -report 0 -debug-addr $(DASH_ADDR) >/dev/null & \
	ppid=$$!; sleep 1.5; \
	echo "--- /vars/history advances between scrapes ---"; \
	s1=$$(curl -sf http://$(DASH_ADDR)/vars/history | grep -o '"samples": [0-9]*' | grep -o '[0-9]*') \
		|| { kill $$ppid $$epid; exit 1; }; \
	sleep 1; \
	s2=$$(curl -sf http://$(DASH_ADDR)/vars/history | grep -o '"samples": [0-9]*' | grep -o '[0-9]*') \
		|| { kill $$ppid $$epid; exit 1; }; \
	echo "samples: $$s1 -> $$s2"; \
	test "$$s2" -gt "$$s1" || { echo "history not advancing"; kill $$ppid $$epid; exit 1; }; \
	curl -sf http://$(DASH_ADDR)/dashboard | grep -q '<svg' \
		|| { echo "dashboard missing sparklines"; kill $$ppid $$epid; exit 1; }; \
	echo "--- loss_spike fires during the blackhole ---"; \
	code=0; for i in $$(seq 1 32); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' http://$(DASH_ADDR)/healthz); \
		[ "$$code" = 503 ] && break; sleep 0.25; \
	done; \
	test "$$code" = 503 || { echo "/healthz never degraded"; kill $$ppid $$epid; exit 1; }; \
	curl -sf http://$(DASH_ADDR)/metrics | grep 'alerts_active{rule="loss_spike"} 1' \
		|| { echo "alerts_active gauge not set"; kill $$ppid $$epid; exit 1; }; \
	echo "--- and clears once the loss window flushes ---"; \
	for i in $$(seq 1 40); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' http://$(DASH_ADDR)/healthz); \
		[ "$$code" = 200 ] && break; sleep 0.25; \
	done; \
	test "$$code" = 200 || { echo "/healthz never recovered"; kill $$ppid $$epid; exit 1; }; \
	wait $$ppid || { kill $$epid; exit 1; }; \
	grep -q '"ev":"alert"' $$tmp/events.jsonl \
		|| { echo "no alert events in the trace"; kill $$epid; exit 1; }; \
	grep -c '"ev":"alert"' $$tmp/events.jsonl; \
	kill $$epid 2>/dev/null; true
