GO ?= go

# Coverage floor for the codec negotiation plane, the simulation engine,
# the location store, the INVITE admission files, the wire data plane and
# the files that publish metric families (see `make cover`).
COVER_MIN ?= 85

.PHONY: build test vet race fuzz-smoke telemetry-smoke lint-metrics cover verify bench bench-check wire-profile

# The darwin cross-build keeps the portable (non-linux) data plane
# compiling: batch_other.go and legpool_other.go must satisfy the same
# interfaces as the recvmmsg read loop and the leg pool's epoll loop
# behind the linux build tag. The two daemons also build under the
# race detector, so the binaries a wire drive uses (`-race` pbxd and
# sipload against each other) cannot rot; what runs them under it is
# `make race`, through pbx.ListenWire and sipp's wire tests.
build:
	$(GO) build ./...
	GOOS=darwin $(GO) build ./...
	$(GO) build -race -o /dev/null ./cmd/pbxd
	$(GO) build -race -o /dev/null ./cmd/sipload

# vet also fails on gofmt drift: a file out of format is named and the
# gate exits non-zero.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt: files out of format:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test and race between them run every test in the tree plain and under
# the race detector — the chaos catalog and its crash / avalanche /
# degradation drills, the sharded-engine differential suite, the
# loopback soaks on pbxd's wiring, the load generator on real sockets
# (internal/sipp's wire tests: cmd/sipload is flags around it), the
# registrar stress, the QoS goldens — so no gate below names a test. To drive one by hand:
# `go test -race -count=1 -run <Test> ./internal/<pkg>/`.

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
# their statement coverage must not decay below COVER_MIN. The
# simulation engine carries the same floor, file by file: the shard
# group (shard.go), the timing wheel (scheduler.go) and the packet path
# (network.go) are where an untested branch can silently break
# determinism, so their statements are measured across both the netsim
# unit tests and the difftest differential suite. The sharded location
# store (internal/directory) carries the floor too: a binding the
# registrar silently drops or leaks is a reachability bug the call
# path never notices. The PBX's admission row (overload.go) and
# degradation ladder (degrade.go) carry it file by file: between them
# they decide which INVITE gets a 503. So do the call record (cdr.go),
# its journal (journal.go) and the file where each attempt ends
# (outcome.go: the outcome counts, the call-timing histograms, the
# flight recorder): every CSV, WAL, JSON and metric view of a call is
# read from them. So does the voicemail deposit (voicemail.go), the
# one call whose far end is the PBX itself. So does the wire data
# plane, file by file:
# the recvmmsg reader (batch_linux.go), the listener socket (udp.go,
# sharded.go) and the relay's leg pool (legpool.go, legpool_linux.go)
# move every datagram pbxd reads or sends. So do the files that publish
# the pbx, sip and cluster counts as metric families, and the registry
# (registry.go) that sums them: /metrics is read off them. So do
# pbxd's wiring (wire.go), which adds the wire-only families, and the
# per-second sampler (sampler.go), the one series every run reports,
# and Table I's sum over the senders' books (table.go).
# So does the chaos harness (chaos.go): its one Run carries every fault
# script, and its CheckInvariants is what every chaos scenario is judged
# by. So does the CPU model (cpu.go), whose zero value must stay no
# model: it is what every server on real sockets runs. So does the SIP
# transaction layer (endpoint.go, transaction.go, and linger.go, the
# log lingering transactions are kept in): every message pbxd sends or
# absorbs goes through it. So do the client rules on top of it
# (client.go: the digest REGISTER exchange, the CANCEL, the address
# split), which every user agent in the tree sends by.
# COVER_FILES lists package:file,file,… — each file measured from its
# own package's tests.
COVER_FILES = pbx:overload,degrade,cdr,journal,telemetry,outcome,voicemail,wire \
	transport:batch_linux,udp,sharded,legpool,legpool_linux \
	sip:telemetry,endpoint,transaction,linger,client cluster:telemetry telemetry:registry monitor:sampler,table \
	chaos:chaos cpu:cpu
cover:
	@$(GO) test -coverprofile=.cover.out ./internal/codec/ ./internal/sdp/ > /dev/null
	@total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ { gsub(/%/,"",$$3); print $$3 }'); \
	rm -f .cover.out; \
	echo "cover: internal/codec + internal/sdp statements $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }'
	@$(GO) test -coverprofile=.cover-shard.out -coverpkg=./internal/netsim/ \
		./internal/netsim/ ./internal/netsim/difftest/ > /dev/null
	@fail=0; for f in shard scheduler network; do \
		pct=$$(awk -v f="internal/netsim/$$f.go:" 'index($$1, f) { stmts[$$1]=$$2; if ($$3 > 0) cov[$$1]=1 } \
			END { for (k in stmts) { t += stmts[k]; if (k in cov) c += stmts[k] } printf "%.1f", 100*c/t }' .cover-shard.out); \
		echo "cover: internal/netsim/$$f.go statements $$pct% (floor $(COVER_MIN)%)"; \
		awk -v t="$$pct" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || fail=1; \
	done; \
	rm -f .cover-shard.out; \
	exit $$fail
	@$(GO) test -coverprofile=.cover-dir.out ./internal/directory/ > /dev/null
	@dir=$$($(GO) tool cover -func=.cover-dir.out | awk '/^total:/ { gsub(/%/,"",$$3); print $$3 }'); \
	rm -f .cover-dir.out; \
	echo "cover: internal/directory statements $$dir% (floor $(COVER_MIN)%)"; \
	awk -v t="$$dir" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }'
	@fail=0; for spec in $(COVER_FILES); do \
		pkg=$${spec%%:*}; \
		$(GO) test -coverprofile=.cover-file.out ./internal/$$pkg/ > /dev/null || fail=1; \
		for f in $$(echo $${spec#*:} | tr , ' '); do \
			pct=$$(awk -v f="internal/$$pkg/$$f.go:" 'index($$1, f) { stmts[$$1]=$$2; if ($$3 > 0) cov[$$1]=1 } \
				END { for (k in stmts) { t += stmts[k]; if (k in cov) c += stmts[k] } printf "%.1f", 100*c/t }' .cover-file.out); \
			echo "cover: internal/$$pkg/$$f.go statements $$pct% (floor $(COVER_MIN)%)"; \
			awk -v t="$$pct" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || fail=1; \
		done; \
	done; \
	rm -f .cover-file.out; \
	exit $$fail

# One instrumented overload run dumped to JSON and validated on
# re-read: proves the metrics registry, tracer and sampler stay wired
# end-to-end (cmd/capacity exits non-zero if a required family is
# missing or the series is empty).
telemetry-smoke:
	$(GO) run ./cmd/capacity -telemetry-out .telemetry-smoke.json
	@rm -f .telemetry-smoke.json

# Telemetry naming rule: every registered family name is a snake_case
# const declared exactly once (see cmd/lintmetrics).
lint-metrics:
	$(GO) run ./cmd/lintmetrics

# The pre-merge gate: build (native + darwin cross), vet, every test
# plain and under the race detector, fuzz smoke, telemetry smoke,
# metric-name lint, coverage floors.
verify: build vet test race fuzz-smoke telemetry-smoke lint-metrics cover
	@echo "verify: all gates passed"

# The repository benchmark (benchmark/README.md): four workloads end to
# end plus their traced per-layer runs, written to a host-fingerprinted
# result file under benchmark/out/. Allocations per operation on the hot
# paths are not its business: testing.AllocsPerRun tests pin them
# exactly, next to the micro-benchmarks, and `make test` runs them.
bench:
	$(GO) run ./benchmark -seed 1

# Compare two result files; refuses to compare across hosts.
bench-check:
	$(GO) run ./benchmark -compare $(BENCH_OLD) $(BENCH_NEW)

# Where pbxd's CPU goes under load: one untraced benchmark workload
# (W=wire_calls, wire_register or wire_media) with a CPU profile pulled
# from the child pbxd inside the saturated phase, written to
# benchmark/out/profile-$(W).pprof and printed as `pprof -top -cum`.
# KIND=heap pulls the live heap instead, at the point where the
# benchmark reads maxrss_mb: benchmark/out/heap-$(W).pprof, printed by
# in-use bytes. A reading aid, not a verify gate.
wire-profile:
	GO=$(GO) ./wire-profile.sh $(W) $(KIND)
