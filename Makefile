GO ?= go

# Benchmark harness knobs: repetitions per benchmark and the dated
# snapshot the results land in (see `make bench` / `make bench-check`).
BENCH_COUNT ?= 3
BENCH_DATE  ?= $(shell date +%Y%m%d)
BENCH_JSON  ?= BENCH_$(BENCH_DATE).json

# Coverage floor for the codec negotiation plane and the shard
# scheduler (see `make cover`).
COVER_MIN ?= 85

.PHONY: build test vet race chaos-smoke chaos-crash-smoke shard-smoke udp-smoke calls-smoke register-smoke fuzz-smoke telemetry-smoke qos-smoke degradation-smoke lint-metrics cover verify bench bench-check wire-profile

# The darwin cross-build keeps the portable (non-linux) data plane
# compiling: batch_other.go and legpool_other.go must satisfy the same
# interfaces as the recvmmsg/sendmmsg/GSO path and the leg pool's epoll
# loop behind the linux build tag.
build:
	$(GO) build ./...
	GOOS=darwin $(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass of the cheap end-to-end chaos scenario (seeded, virtual
# clock): every subsystem touched in about a second of wall time.
chaos-smoke:
	$(GO) test -run 'TestSmokeScenario' -count=1 ./internal/chaos/

# The server-failure drill under the race detector: crash one of
# three backends at peak, verify probe markdown, failover, restart
# re-admission and crash-consistent CDR recovery.
chaos-crash-smoke:
	$(GO) test -race -run 'TestCrashFailoverScenario' -count=1 ./internal/chaos/

# The sharded engine under the race detector: the cheap chaos scenario
# on a 4-shard group, its invariants (including packet-pool gets==puts)
# checked, and its results diffed bit-for-bit against the
# single-scheduler engine.
shard-smoke:
	$(GO) test -race -run 'TestShardedChaosSmoke' -count=1 ./internal/netsim/difftest/

# The real-socket data plane under the race detector: an in-process
# pbxd+sipload soak — sharded REUSEPORT listener with batched read
# loops and GSO send queues for SIP, the leg pool's one epoll loop
# relaying the media — which must drop and reject nothing, read every
# leg from that one goroutine, and end with the buffer-pool gets==puts
# ownership check on every socket opened.
udp-smoke:
	$(GO) test -race -run 'TestLoopbackSoak' -count=1 ./internal/pbx/

# A call costs the same whatever came before it, under the race
# detector: the pbxd wiring in one process (relay legs from the
# transport leg pool) driven closed-loop with zero-hold calls for about
# five seconds. Fails if the completion rate decays over the run, if
# the calls still lingering at the end pin more than kilobytes each, or
# if channels, call spans, pooled buffers or — after the linger —
# transactions do not return to zero.
calls-smoke:
	$(GO) test -race -run 'TestCallsSmoke' -count=1 ./internal/pbx/

# The sharded registrar under the race detector: concurrent
# register/refresh/expire/lookup workers against the live expiry wheel
# on the real clock, ending with the binding-count conservation check
# (raw shard walk == LiveBindings gauge), plus the avalanche scenario's
# own invariants (drain time, 503 peak, transaction/pool leaks).
register-smoke:
	$(GO) test -race -run 'TestRegistrarStress' -count=1 ./internal/directory/
	$(GO) test -race -run 'TestRegisterAvalancheScenario' -count=1 ./internal/chaos/

# Short coverage-guided fuzz of the SIP parser, the SDP offer/answer
# engine and the registrar's REGISTER handling; regression seeds live
# in internal/{sip,sdp,pbx}/testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzSIPParse -fuzztime=10s ./internal/sip/
	$(GO) test -run '^$$' -fuzz=FuzzSDPParse -fuzztime=5s ./internal/sdp/
	$(GO) test -run '^$$' -fuzz=FuzzSDPOfferAnswer -fuzztime=5s ./internal/sdp/
	$(GO) test -run '^$$' -fuzz=FuzzRegisterHandle -fuzztime=5s ./internal/pbx/

# Coverage gate on the codec negotiation plane: the registry and the
# SDP offer/answer engine guard the golden-determinism contract, so
# their statement coverage must not decay below COVER_MIN. The shard
# scheduler (internal/netsim/shard.go) carries the same floor — it is
# the one component where an untested branch can silently break
# determinism, so its statements are measured across both the netsim
# unit tests and the difftest differential suite. The sharded location
# store (internal/directory) carries the floor too: a binding the
# registrar silently drops or leaks is a reachability bug the call
# path never notices.
cover:
	@$(GO) test -coverprofile=.cover.out ./internal/codec/ ./internal/sdp/ > /dev/null
	@total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ { gsub(/%/,"",$$3); print $$3 }'); \
	rm -f .cover.out; \
	echo "cover: internal/codec + internal/sdp statements $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }'
	@$(GO) test -coverprofile=.cover-shard.out -coverpkg=./internal/netsim/ \
		./internal/netsim/ ./internal/netsim/difftest/ > /dev/null
	@shard=$$(awk '/internal\/netsim\/shard\.go:/ { stmts[$$1]=$$2; if ($$3 > 0) cov[$$1]=1 } \
		END { for (k in stmts) { t += stmts[k]; if (k in cov) c += stmts[k] } printf "%.1f", 100*c/t }' .cover-shard.out); \
	rm -f .cover-shard.out; \
	echo "cover: internal/netsim/shard.go statements $$shard% (floor $(COVER_MIN)%)"; \
	awk -v t="$$shard" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }'
	@$(GO) test -coverprofile=.cover-dir.out ./internal/directory/ > /dev/null
	@dir=$$($(GO) tool cover -func=.cover-dir.out | awk '/^total:/ { gsub(/%/,"",$$3); print $$3 }'); \
	rm -f .cover-dir.out; \
	echo "cover: internal/directory statements $$dir% (floor $(COVER_MIN)%)"; \
	awk -v t="$$dir" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }'

# One instrumented overload run dumped to JSON and validated on
# re-read: proves the metrics registry, tracer and sampler stay wired
# end-to-end (cmd/capacity exits non-zero if a required family is
# missing or the series is empty).
telemetry-smoke:
	$(GO) run ./cmd/capacity -telemetry-out .telemetry-smoke.json
	@rm -f .telemetry-smoke.json

# The measured-QoS plane: per-stream sensor estimators (jitter/loss
# property tests, RTCP RTT pairing, zero-alloc observe) and the pinned
# end-to-end QoS goldens (measured MOS histogram + SLO verdicts).
qos-smoke:
	$(GO) test -run 'TestQoS' -count=1 ./internal/media/
	$(GO) test -run 'TestRTCPInfo' -count=1 ./internal/rtp/
	$(GO) test -run 'TestGoldenQoSSnapshot' -count=1 ./internal/core/

# The graceful-degradation ladder under the race detector: a sustained
# surge must walk the controller up to upstream-throttle, shed load
# client-side via the advertised overload window, relax back down the
# hysteresis band, and never renegotiate an established call.
degradation-smoke:
	$(GO) test -race -run 'TestDegradationSurge' -count=1 ./internal/chaos/

# Telemetry naming rule: every registered family name is a snake_case
# const declared exactly once (see cmd/lintmetrics).
lint-metrics:
	$(GO) run ./cmd/lintmetrics

# The pre-merge gate: build (native + darwin cross), vet, full tests,
# race tests, chaos smoke, crash smoke, sharded-engine smoke, real-UDP
# soak, zero-hold call soak, registrar smoke, fuzz smoke, telemetry
# smoke, QoS smoke, degradation smoke, metric-name lint, coverage floors.
verify: build vet test race chaos-smoke chaos-crash-smoke shard-smoke udp-smoke calls-smoke register-smoke fuzz-smoke telemetry-smoke qos-smoke degradation-smoke lint-metrics cover
	@echo "verify: all gates passed"

# Benchmark snapshot: full-experiment benches (one experiment per
# iteration) plus the per-packet micro-benches, parsed into a dated
# JSON file for benchdiff. Compare two snapshots with `make
# bench-check`; a >10% drop in events/sec or rise in allocs/op fails.
bench:
	@rm -f .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkExperimentSignalling|BenchmarkExperimentPacketized|BenchmarkTableIFlow' \
		-benchmem -benchtime 1x -count $(BENCH_COUNT) . | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerCycle|BenchmarkSchedulerMixedHorizon|BenchmarkNetworkSend$$' \
		-benchtime 10000x -count $(BENCH_COUNT) ./internal/netsim/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkRelayForward' \
		-benchtime 10000x -count $(BENCH_COUNT) ./internal/pbx/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkUDPTransport' \
		-benchtime 10000x -count $(BENCH_COUNT) ./internal/transport/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkSessionFrameExchange' \
		-benchtime 10000x -count $(BENCH_COUNT) ./internal/media/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkMessageRoundTrip' \
		-benchtime 10000x -count $(BENCH_COUNT) ./internal/sip/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetry' \
		-benchtime 10000x -count $(BENCH_COUNT) ./internal/telemetry/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkRegistrarRegister|BenchmarkNonceCacheHit' \
		-benchmem -benchtime 10000x -count $(BENCH_COUNT) ./internal/directory/ | tee -a .bench.out
	$(GO) run ./cmd/benchdiff -parse -o $(BENCH_JSON) .bench.out
	@rm -f .bench.out
	@echo "bench: wrote $(BENCH_JSON)"

# Compare the two most recent snapshots (or BENCH_OLD/BENCH_NEW when
# given). Exits non-zero on a >10% events/sec or allocs/op regression.
bench-check:
	@files="$(BENCH_OLD) $(BENCH_NEW)"; \
	if [ -z "$(BENCH_OLD)" ]; then \
		files=$$(ls BENCH_*.json 2>/dev/null | sort | tail -2); \
	fi; \
	set -- $$files; \
	if [ $$# -lt 2 ]; then echo "bench-check: need two BENCH_*.json snapshots, have: $$files"; exit 0; fi; \
	$(GO) run ./cmd/benchdiff $$1 $$2

# Where pbxd's CPU goes under load: one untraced benchmark workload
# (W=wire_calls, wire_register or wire_media) with a CPU profile pulled
# from the child pbxd inside the saturated phase, written to
# benchmark/out/profile-$(W).pprof and printed as `pprof -top -cum`.
# A reading aid, not a verify gate.
wire-profile:
	GO=$(GO) ./wire-profile.sh $(W)
