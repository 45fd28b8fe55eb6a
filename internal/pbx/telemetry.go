package pbx

import (
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/telemetry"
)

// Telemetry family names. Every family this package exposes is named
// by exactly one snake_case const here and registered only through it
// (`make lint-metrics` enforces the rule repo-wide), so the exposition
// surface is greppable in one place.
const (
	mInvites       = "pbx_invites_total"
	mBlocked       = "pbx_blocked_total"
	mRejected      = "pbx_rejected_total"
	mEstablished   = "pbx_calls_established_total"
	mAdmission     = "pbx_admission_total"
	mActive        = "pbx_active_channels"
	mPeak          = "pbx_peak_channels"
	mCDR           = "pbx_cdr_total"
	mJitter        = "pbx_call_jitter_seconds"
	mLoss          = "pbx_call_loss_ratio"
	mMOS           = "pbx_call_mos"
	mMOSMeasured   = "pbx_call_mos_measured"
	mRTT           = "pbx_call_rtt_seconds"
	mRelayPkts     = "rtp_relay_packets_total"
	mRelayBytes    = "rtp_relay_bytes_total"
	mRelayDrops    = "rtp_relay_dropped_total"
	mRelayTrans    = "rtp_relay_transcoded_total"
	mRelayRTCP     = "rtp_relay_rtcp_total"
	mCallsByCodec  = "pbx_calls_by_codec_total"
	mTranscoded    = "pbx_transcoded_calls_total"
	mTranscodeLoad = "pbx_transcode_load_percent"
	mDraining      = "pbx_draining"
	mDrainDur      = "pbx_drain_duration_seconds"
	mDrainRejects  = "pbx_drain_rejected_total"
	mCallsTotal    = "pbx_calls_total"
	mActiveSpans   = "pbx_trace_active_spans"
	mCallSetup     = "pbx_call_setup_seconds"
	mPostDial      = "pbx_post_dial_delay_seconds"
	mCallTeardown  = "pbx_call_teardown_seconds"

	// Degradation-ladder families (registered only while the ladder is
	// enabled, so ladder-free runs expose an unchanged surface).
	mDegradeStage       = "pbx_degradation_stage"
	mDegradeTransitions = "pbx_degradation_transitions_total"
	mCallsByStage       = "pbx_calls_by_stage_total"
	mThrottleSignals    = "pbx_throttle_signals_total"

	// Registrar families (registered only while Config.Registrar is
	// enabled, keeping registrar-free telemetry snapshots byte-stable).
	mRegisters  = "pbx_registers_total"
	mBindings   = "pbx_bindings"
	mNonceCache = "pbx_nonce_cache_total"
)

// pbxMetrics holds the server's pre-resolved telemetry handles: the
// distributions, admission verdicts and breakdowns that no struct of
// the server keeps. Every family whose fact the server already keeps
// is a pull view of it (publishCounters). All are registered once in
// New; record sites are nil-guarded so a PBX without a registry pays
// only a pointer check.
type pbxMetrics struct {
	admitOK *telemetry.Counter // admission verdicts for the active policy
	admitNo *telemetry.Counter

	cdrs        [numDispositions]*telemetry.Counter // by Disposition
	jitter      *telemetry.Histogram
	loss        *telemetry.Histogram
	mosScore    *telemetry.Histogram
	mosMeasured *telemetry.Histogram
	rttHist     *telemetry.Histogram

	// Call timing, observed where each attempt ends (endLocked).
	setup    *telemetry.Histogram // INVITE to the 200 OK forwarded
	postDial *telemetry.Histogram // INVITE to the first 1xx forwarded
	teardown *telemetry.Histogram // BYE to the record's close

	// Answered bridges by negotiated leg codec.
	byCodec    map[int]*telemetry.Counter
	otherCodec *telemetry.Counter

	drainDur *telemetry.Histogram

	// Calls by admitting ladder rung (nil unless the ladder is enabled).
	callsByStage [degradationStageCount]*telemetry.Counter
}

// latencyBuckets is the layout (seconds) of the call-timing and drain
// histograms: 1 ms to 60 s, roughly 1-2-5 per decade.
var latencyBuckets = []float64{
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
	0.1, 0.2, 0.5, 1, 2, 5, 10, 30, 60,
}

// read returns v evaluated under s.mu, at scrape time.
func (s *Server) read(v func() float64) func() float64 {
	return func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return v()
	}
}

// count returns a reader of one Counters field.
func (s *Server) count(field *uint64) func() float64 {
	return s.read(func() float64 { return float64(*field) })
}

// relayCount returns a reader of one relay count: its Counters total,
// folded in from the relays of ended calls, plus every live relay's
// own count. A call is filed under both Call-IDs and read under its A
// leg only. The relay counts are atomics because the read holds s.mu,
// which a relay takes under its own lock (overloadDrop).
func (s *Server) relayCount(folded *uint64, live func(*relay) *atomic.Uint64) func() float64 {
	return s.read(func() float64 {
		n := *folded
		for id, br := range s.bridges {
			if br.relay != nil && id == br.cdr.CallID {
				n += live(br.relay).Load()
			}
		}
		return float64(n)
	})
}

// publishCounters registers the families that read what the server
// keeps: Counters, its live relays' counts and its levels. A second
// server on the same registry — a farm's next backend, a crashed
// server's restart — adds its counts to the same series, and its
// levels replace the older server's.
func (s *Server) publishCounters(reg *telemetry.Registry) {
	reg.CounterFunc(mInvites, "new-call INVITEs received", s.count(&s.counters.Attempts))
	reg.CounterFunc(mBlocked, "calls shed by admission control (503)", s.count(&s.counters.Blocked))
	reg.CounterFunc(mRejected, "calls rejected for non-capacity reasons", s.count(&s.counters.Rejected))
	reg.CounterFunc(mEstablished, "calls that reached ACK confirmation", s.count(&s.counters.Established))
	reg.CounterFunc(mTranscoded, "bridges established with a transcoding media path",
		s.count(&s.counters.TranscodedCalls))
	reg.CounterFunc(mDrainRejects, "INVITEs 503'd while draining", s.count(&s.counters.DrainRejected))
	for o := outcome(0); o < numOutcomes; o++ {
		reg.CounterFunc(mCallsTotal, "call spans ended, by outcome",
			s.count(s.counters.byOutcome(o)), telemetry.L("outcome", outcomeNames[o]))
	}
	// A call is open from its INVITE to its outcome: the conservation
	// law, read as a gauge.
	reg.GaugeFunc(mActiveSpans, "call spans currently open", s.read(func() float64 {
		return float64(s.counters.Attempts) - float64(s.counters.Ended())
	}))

	c := &s.counters
	reg.CounterFunc(mRelayPkts, "RTP packets forwarded by call relays",
		s.relayCount(&c.RelayedPackets, func(r *relay) *atomic.Uint64 { return &r.forwarded }))
	reg.CounterFunc(mRelayBytes, "RTP payload bytes forwarded by call relays",
		s.relayCount(&c.RelayedBytes, func(r *relay) *atomic.Uint64 { return &r.bytes }))
	reg.CounterFunc(mRelayDrops, "RTP packets dropped by the overload model",
		s.relayCount(&c.DroppedPackets, func(r *relay) *atomic.Uint64 { return &r.dropped }))
	reg.CounterFunc(mRelayTrans, "RTP packets payload-converted by transcoding bridges",
		s.relayCount(&c.TranscodedPkts, func(r *relay) *atomic.Uint64 { return &r.transcoded }))
	reg.CounterFunc(mRelayRTCP, "RTCP reports forwarded (and QoS-tapped) by call relays",
		s.relayCount(&c.RelayedRTCP, func(r *relay) *atomic.Uint64 { return &r.rtcp }))

	reg.GaugeFunc(mActive, "calls currently holding a channel",
		s.read(func() float64 { return float64(s.channels) }))
	reg.GaugeFunc(mPeak, "high-water mark of concurrent calls",
		s.read(func() float64 { return float64(c.PeakChannels) }))
	reg.GaugeFunc(mTranscodeLoad, "CPU percent currently charged to active transcoding bridges",
		s.read(func() float64 { return s.transcodeLoad }))
	reg.GaugeFunc(mDraining, "1 while the server is in administrative drain",
		s.read(func() float64 {
			if s.draining {
				return 1
			}
			return 0
		}))
}

// registerRegistrar adds the REGISTER-plane families. Called from New
// only when Config.Registrar is enabled, so registrar-free servers
// expose exactly the previous metric surface.
func (s *Server) registerRegistrar(reg *telemetry.Registry) {
	c := &s.counters
	for _, o := range []struct {
		label string
		read  func() float64
	}{
		{"accepted", s.read(func() float64 { return float64(c.Registers - c.RegisterRemovals) })},
		{"challenged", s.count(&c.RegisterChallenges)},
		{"stale", s.count(&c.RegisterStale)},
		{"authfail", s.count(&c.RegisterAuthFail)},
		{"shed", s.count(&c.RegisterShed)},
		{"removed", s.count(&c.RegisterRemovals)},
	} {
		reg.CounterFunc(mRegisters, "REGISTER requests by outcome", o.read, telemetry.L("outcome", o.label))
	}
	reg.GaugeFunc(mBindings, "contact bindings currently stored",
		func() float64 { return float64(s.dir.LiveBindings()) })
	// A stale re-challenge is the nonce cache's stale verdict and a 403
	// its bad one: the registrar counts both already.
	result := func(r string) telemetry.Label { return telemetry.L("result", r) }
	reg.CounterFunc(mNonceCache, "digest nonce-cache verification results",
		func() float64 { return float64(s.nonces.Stats().Hits) }, result("hit"))
	reg.CounterFunc(mNonceCache, "digest nonce-cache verification results",
		s.count(&c.RegisterStale), result("stale"))
	reg.CounterFunc(mNonceCache, "digest nonce-cache verification results",
		s.count(&c.RegisterAuthFail), result("bad"))
}

// registerDegradation adds the ladder families. Called from New only
// when Config.Degradation is enabled: a ladder-free server exposes
// exactly the pre-ladder metric surface, keeping the golden telemetry
// snapshots byte-identical.
func (s *Server) registerDegradation(reg *telemetry.Registry) {
	reg.GaugeFunc(mDegradeStage, "current degradation-ladder rung (0=normal .. 4=block)",
		s.read(func() float64 { return float64(s.degrade.Stage()) }))
	reg.CounterFunc(mDegradeTransitions, "degradation-ladder stage transitions",
		s.read(func() float64 { return float64(len(s.degrade.timeline)) }))
	for i := range s.tm.callsByStage {
		s.tm.callsByStage[i] = reg.Counter(mCallsByStage,
			"calls admitted by the ladder rung active at admission",
			telemetry.L("stage", DegradationStage(i).String()))
	}
	reg.CounterFunc(mThrottleSignals, "responses stamped with the X-Overload-Window backoff hint",
		s.count(&s.counters.ThrottleSignals))
}

func newPBXMetrics(reg *telemetry.Registry, policy string) *pbxMetrics {
	tm := &pbxMetrics{
		admitOK: reg.Counter(mAdmission, "admission decisions by policy and verdict",
			telemetry.L("policy", policy), telemetry.L("verdict", "admit")),
		admitNo: reg.Counter(mAdmission, "admission decisions by policy and verdict",
			telemetry.L("policy", policy), telemetry.L("verdict", "reject")),

		jitter: reg.Histogram(mJitter, "per-direction RFC 3550 jitter at CDR close",
			telemetry.ExponentialBuckets(0.0005, 2, 12)), // 0.5ms .. ~1s
		loss: reg.Histogram(mLoss, "per-direction RTP loss ratio at CDR close",
			[]float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}),
		mosScore: reg.Histogram(mMOS, "E-model MOS of scored calls",
			telemetry.LinearBuckets(1.5, 0.25, 12)), // 1.5 .. 4.25
		mosMeasured: reg.Histogram(mMOSMeasured, "measured E-model MOS from per-stream QoS sensors",
			telemetry.LinearBuckets(1.5, 0.25, 12)),
		rttHist: reg.Histogram(mRTT, "RTCP LSR/DLSR round-trip delay at CDR close",
			telemetry.ExponentialBuckets(0.001, 2, 12)), // 1ms .. ~4s

		otherCodec: reg.Counter(mCallsByCodec, "answered bridges by negotiated leg codec",
			telemetry.L("codec", "other")),
		drainDur: reg.Histogram(mDrainDur,
			"drain start to last channel released", latencyBuckets),

		setup:    reg.Histogram(mCallSetup, "INVITE to 200 OK call-setup time", latencyBuckets),
		postDial: reg.Histogram(mPostDial, "INVITE to 180 Ringing post-dial delay", latencyBuckets),
		teardown: reg.Histogram(mCallTeardown, "BYE to CDR-close teardown time", latencyBuckets),
	}
	for d := range tm.cdrs {
		tm.cdrs[d] = reg.Counter(mCDR, "call detail records by disposition",
			telemetry.L("disposition", Disposition(d).label()))
	}
	tm.byCodec = make(map[int]*telemetry.Counter)
	for _, c := range codec.Registry() {
		tm.byCodec[c.PayloadType] = reg.Counter(mCallsByCodec,
			"answered bridges by negotiated leg codec", telemetry.L("codec", c.Name))
	}
	return tm
}

// callsByCodec resolves the per-codec bridge counter, falling back to
// the "other" series for payload types outside the registry.
func (tm *pbxMetrics) callsByCodec(pt int) *telemetry.Counter {
	if c, ok := tm.byCodec[pt]; ok {
		return c
	}
	return tm.otherCodec
}

// recordCDRMetricsLocked feeds one closing CDR into the quality
// histograms and disposition counters. Callers hold s.mu.
func (s *Server) recordCDRMetricsLocked(cdr CDR) {
	if s.tm == nil {
		return
	}
	s.tm.cdrs[cdr.Disposition].Inc()
	observe := func(st rtp.Stats) {
		if st.Received == 0 {
			return
		}
		s.tm.jitter.Observe(st.Jitter.Seconds())
		s.tm.loss.Observe(st.LossRatio)
	}
	observe(cdr.FromCaller)
	observe(cdr.FromCallee)
	if cdr.MOS > 0 {
		s.tm.mosScore.Observe(cdr.MOS)
	}
	if cdr.MeasuredMOS > 0 {
		s.tm.mosMeasured.Observe(cdr.MeasuredMOS)
	}
	if cdr.RTT > 0 {
		s.tm.rttHist.Observe(cdr.RTT.Seconds())
	}
}
