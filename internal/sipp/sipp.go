// Package sipp reproduces the paper's traffic generator: "The SIPp
// v3.3 is used for generating SIP traffic" (Sec. III-C), with one
// client bank placing calls at arrival rate λ and one server bank
// answering them, each call holding for h seconds (Fig. 5):
//
//  1. the SIP client (SIPp_C) generates calls with arrival rate λ;
//  2. the SIP server (SIPp_S) answers the calls;
//  3. both exchange RTP packets for h seconds;
//  4. voice quality and the blocking rate are evaluated and recorded.
package sipp

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/netsim"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// CodecShare is one component of a mixed-codec workload: a fraction of
// callers offering the given payload-type preference list.
type CodecShare struct {
	// Name labels the share in records and reports ("g729").
	Name string
	// Payloads is the RTP payload-type preference list these callers
	// offer (RFC 3264 order).
	Payloads []int
	// Share is the relative weight; shares need not sum to 1.
	Share float64
}

// ArrivalProcess selects how call placements are spaced.
type ArrivalProcess int

// Arrival processes.
const (
	// ArrivalPoisson uses exponential interarrival times — the
	// assumption under which Erlang-B is exact.
	ArrivalPoisson ArrivalProcess = iota
	// ArrivalUniform spaces calls deterministically at 1/rate — the
	// ablation comparator.
	ArrivalUniform
)

// HoldDistribution selects call duration behaviour.
type HoldDistribution int

// Hold distributions.
const (
	// HoldFixed holds every call exactly Hold seconds, like the
	// paper's h = 120 s dialogues.
	HoldFixed HoldDistribution = iota
	// HoldExponential draws exponential durations with mean Hold —
	// the textbook Erlang-B assumption, used to demonstrate the
	// model's insensitivity property.
	HoldExponential
)

// MediaMode selects the voice-path model.
type MediaMode int

// Media modes.
const (
	// MediaNone runs signalling only; quality comes from the
	// flow-level model applied afterwards.
	MediaNone MediaMode = iota
	// MediaPacketized runs a real RTP session per established call.
	MediaPacketized
)

// Config parameterizes one load scenario.
type Config struct {
	// Rate is the call arrival rate λ in calls/second (A = λ·h).
	Rate float64
	// Window is the placement window (the paper uses 180 s).
	Window time.Duration
	// Warmup excludes calls placed during the first Warmup of the
	// window from the aggregate results. They still run and load the
	// server; they just are not counted. Zero (the paper's setting)
	// counts everything, including the empty-system transient; setting
	// Warmup ≈ Hold measures steady-state blocking, which is what
	// Erlang-B predicts.
	Warmup time.Duration
	// Hold is the (mean) call duration h (the paper uses 120 s).
	Hold time.Duration
	// Patience, when positive, models caller abandonment: a call that
	// has not been answered after Patience is CANCELled. The paper's
	// auto-answering UAS answers within milliseconds, so abandonment
	// only shows with a configured AnswerDelay or a broken path.
	Patience time.Duration
	// AnswerDelay is how long the answering side rings before its
	// automatic 200 OK (the paper's SIPp UAS answers immediately).
	AnswerDelay time.Duration
	// Arrivals and HoldDist select the stochastic shape.
	Arrivals ArrivalProcess
	HoldDist HoldDistribution
	// Media selects the voice-path model.
	Media MediaMode
	// RetryMax is how many times a capacity-rejected call (503/486) is
	// re-attempted before being recorded as blocked. Zero (the paper's
	// SIPp behaviour) never retries.
	RetryMax int
	// RetryBase sizes the backoff before a retry: the k-th retry waits
	// the server's Retry-After (when its 503 carried one) plus a full-
	// jitter draw U(0, RetryBase·2^k) from the generator's seeded RNG
	// (default 500ms). Full jitter desynchronizes the retry wave a 503
	// burst would otherwise send back in lockstep, while Retry-After
	// stays the server-commanded minimum — the client-side half of the
	// overload-control loop.
	RetryBase time.Duration
	// RetryTimeouts extends retrying to transaction timeouts (408): a
	// call blackholed by a crashed server is re-attempted through the
	// proxy, which is how a caller fails over to a live backend behind
	// a redirect balancer.
	RetryTimeouts bool
	// MediaTimeout, when positive, arms a callee-side RTP inactivity
	// watchdog in packetized mode: an established callee leg whose
	// inbound media stalls for MediaTimeout hangs up. Without it a
	// crashed relay leaves the callee transmitting to a dead port
	// forever, since the B2BUA's BYE died with the server.
	MediaTimeout time.Duration
	// Target is the callee extension all calls dial.
	Target string
	// ScoreCodec is the E-model profile for per-call MOS
	// (default mos.G711PLC, VoIPmonitor-style).
	ScoreCodec mos.Codec
	// CodecMix, when non-empty, draws each logical call's offered
	// codec preference list from these weighted shares (retries keep
	// the call's draw). Empty offers the phone default (G.711 µ/A).
	CodecMix []CodecShare
	// CalleeCodecs is the answering bank's supported payload-type
	// list. Empty keeps the G.711 default.
	CalleeCodecs []int
	// Seed drives arrivals and hold sampling.
	Seed uint64
	// Telemetry, when non-nil, registers shared media-plane counters
	// (frames sent/received) that every session of this generator feeds.
	Telemetry *telemetry.Registry
}

// CallRecord is the per-call outcome row.
type CallRecord struct {
	ID int
	// Codec is the CodecShare name this call drew ("" without a mix).
	Codec       string
	PlacedAt    time.Duration
	Established bool
	Blocked     bool // rejected with 486/503 (capacity)
	Abandoned   bool // caller gave up ringing (CANCEL)
	Failed      bool // any other non-establishment
	Throttled   bool // shed client-side inside a server overload window
	Status      int  // final SIP status for non-established calls
	Retries     int  // re-attempts after capacity rejections
	SetupTime   time.Duration
	Duration    time.Duration
	// MOS is the caller-side score for packetized media; 0 otherwise.
	MOS float64
	// CallerMedia/CalleeMedia are the RTP reports in packetized mode.
	CallerMedia media.Report
	CalleeMedia media.Report

	// warmup marks calls placed before the warmup deadline; they are
	// excluded from aggregates.
	warmup bool
}

// Results aggregates a finished scenario.
type Results struct {
	Attempts    int
	Established int
	Blocked     int
	Abandoned   int
	Failed      int
	// Throttled counts calls the generator itself withheld because the
	// server's X-Overload-Window was still open — demand the closed
	// feedback loop moved off the wire (distinct from Blocked, which
	// the server had to reject).
	Throttled int
	// Retries totals backoff re-attempts across counted calls.
	Retries int
	// BlockingProbability = Blocked / Attempts.
	BlockingProbability float64
	// MOS summarizes completed scored calls only — the paper notes
	// VoIPmonitor "does not consider dropped calls".
	MOS stats.Summary
	// SetupTime summarizes call establishment latency.
	SetupTime stats.Summary
	// RTPSent/RTPReceived total the media packets at the endpoints.
	RTPSent, RTPReceived uint64
	// PeakConcurrent tracks simultaneous established calls at the
	// generator.
	PeakConcurrent int
	Records        []CallRecord
}

// Generator drives one scenario: a caller phone bank and an answering
// phone, both behind the PBX under test.
type Generator struct {
	cfg    Config
	net    *netsim.Network
	clock  transport.SimClock
	caller *sip.Phone
	callee *sip.Phone
	rng    *stats.RNG

	callerHost, calleeHost string

	media *media.Metrics // nil without Config.Telemetry

	placed      int
	active      int
	results     Results
	done        func(Results)
	outstanding int
	windowOver  bool
	windowStart time.Duration

	// Upstream-throttle state (rung 3 of the degradation ladder): any
	// response carrying X-Overload-Window: W extends throttleUntil to
	// now + W. Arrivals inside the window are deferred once with full
	// jitter; still-windowed deferred arrivals are shed as Throttled.
	throttleUntil time.Duration
	lastWindow    int // seconds, sizes the jitter spread
}

// New creates a generator whose phones live on callerHost and
// calleeHost and sign in to the PBX at proxy. Register the phones (via
// Start) before traffic begins.
func New(net *netsim.Network, callerHost, calleeHost, proxy string, cfg Config) *Generator {
	if cfg.Target == "" {
		cfg.Target = "uas"
	}
	if cfg.ScoreCodec.Name == "" {
		cfg.ScoreCodec = mos.G711PLC
	}
	// Both phones share the generator's state maps and this one clock,
	// so callerHost and calleeHost must live on the same shard of a
	// sharded network (their shared scheduler).
	clock := transport.SimClock{Sched: net.SchedulerFor(callerHost)}
	g := &Generator{
		cfg:        cfg,
		net:        net,
		clock:      clock,
		rng:        stats.NewRNG(cfg.Seed ^ 0x51bb),
		callerHost: callerHost,
		calleeHost: calleeHost,
	}
	if cfg.Telemetry != nil {
		g.media = media.NewMetrics(cfg.Telemetry)
	}
	g.caller = sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(net, callerHost+":5060"), clock),
		sip.PhoneConfig{User: "uac", Password: "pw-uac", Proxy: proxy, MediaPort: 20000})
	g.callee = sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(net, calleeHost+":5060"), clock),
		sip.PhoneConfig{User: cfg.Target, Password: "pw-" + cfg.Target, Proxy: proxy,
			MediaPort: 30000, AnswerDelay: cfg.AnswerDelay, Codecs: cfg.CalleeCodecs})
	return g
}

// Start registers both phones and schedules the arrival process. done
// fires when the window has closed and every placed call has ended.
func (g *Generator) Start(done func(Results)) {
	g.done = done
	registered := 0
	onReg := func(ok bool) {
		if !ok {
			panic("sipp: phone registration failed; provision uac/" + g.cfg.Target)
		}
		registered++
		if registered == 2 {
			g.wireCalleeMedia()
			g.windowStart = g.clock.Now()
			g.scheduleNextArrival()
			g.clock.AfterFunc(g.cfg.Window, func() {
				g.windowOver = true
				g.maybeFinish()
			})
		}
	}
	g.caller.Register(time.Hour, onReg)
	g.callee.Register(time.Hour, onReg)
}

// wireCalleeMedia makes the answering phone start an RTP session per
// call in packetized mode.
func (g *Generator) wireCalleeMedia() {
	if g.cfg.Media != MediaPacketized {
		return
	}
	g.callee.OnIncoming = func(c *sip.Call) {
		var sess *media.Session
		c.OnEstablished = func(c *sip.Call) {
			sess = g.newSession(g.calleeHost, c)
			sess.Start()
			if g.cfg.MediaTimeout > 0 {
				g.watchCalleeMedia(c, sess)
			}
		}
		c.OnEnded = func(c *sip.Call) {
			if sess != nil {
				// Keep receiving briefly for in-flight packets, then
				// close and file the report with the matching record.
				report := sess.Report(g.scoreProfile(c))
				g.attachCalleeReport(c.CallID, report)
				sess.Close()
			}
		}
	}
}

// watchCalleeMedia polls an established callee leg's inbound packet
// count every MediaTimeout; a poll that sees no progress hangs up.
// This is the generator-side guard against a crashed relay: the BYE
// that would normally end the leg died with the B2BUA.
func (g *Generator) watchCalleeMedia(c *sip.Call, sess *media.Session) {
	var last uint64
	var poll func()
	poll = func() {
		if c.State() == sip.CallTerminated {
			return
		}
		got := sess.ReceivedPackets()
		if got == last {
			g.callee.Hangup(c)
			return
		}
		last = got
		g.clock.AfterFunc(g.cfg.MediaTimeout, poll)
	}
	g.clock.AfterFunc(g.cfg.MediaTimeout, poll)
}

func (g *Generator) newSession(host string, c *sip.Call) *media.Session {
	mi := c.Media()
	tr := transport.NewSim(g.net, fmt.Sprintf("%s:%d", host, mi.LocalPort))
	sc := media.SessionConfig{
		Remote:      fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort),
		PayloadType: uint8(mi.PayloadType),
		SSRC:        uint32(mi.LocalPort)<<8 | 1,
		Metrics:     g.media,
	}
	// Size frames for the negotiated codec (a no-op for G.711, whose
	// 160-byte/20 ms defaults the session already uses).
	if cd, ok := codec.ByPayloadType(mi.PayloadType); ok {
		sc.FrameMs = cd.PtimeMs
		sc.PayloadBytes = cd.PayloadBytes
	}
	return media.NewSession(tr, g.clock, sc)
}

// scoreProfile picks the E-model profile for one leg's report: the
// configured default for single-codec runs, the negotiated codec's own
// profile under a mix.
func (g *Generator) scoreProfile(c *sip.Call) mos.Codec {
	if len(g.cfg.CodecMix) == 0 {
		return g.cfg.ScoreCodec
	}
	if cd, ok := codec.ByPayloadType(c.Media().PayloadType); ok {
		return cd.MOS()
	}
	return g.cfg.ScoreCodec
}

// drawCodec picks a share from the mix. Only multi-share mixes draw
// from the RNG, so single-codec runs keep the default arrival stream.
func (g *Generator) drawCodec() CodecShare {
	mix := g.cfg.CodecMix
	if len(mix) == 1 {
		return mix[0]
	}
	total := 0.0
	for _, s := range mix {
		total += s.Share
	}
	x := g.rng.Float64() * total
	for _, s := range mix {
		x -= s.Share
		if x < 0 {
			return s
		}
	}
	return mix[len(mix)-1]
}

// attachCalleeReport files the callee-side media report on the record
// whose caller leg shares... the B2BUA gives each leg its own Call-ID,
// so records are matched positionally: callee call k belongs to the
// k-th established record. The generator serializes inside the event
// loop, so a simple FIFO suffices.
func (g *Generator) attachCalleeReport(callID string, rep media.Report) {
	for i := range g.results.Records {
		r := &g.results.Records[i]
		if r.Established && r.CalleeMedia.Sent == 0 && r.CalleeMedia.Stream.Received == 0 {
			r.CalleeMedia = rep
			g.results.RTPSent += rep.Sent
			g.results.RTPReceived += rep.Stream.Received
			return
		}
	}
}

// scheduleNextArrival plants the next call placement, stopping once
// the next arrival would land past the placement window.
func (g *Generator) scheduleNextArrival() {
	if g.cfg.Rate <= 0 {
		return
	}
	var gap time.Duration
	switch g.cfg.Arrivals {
	case ArrivalUniform:
		gap = time.Duration(float64(time.Second) / g.cfg.Rate)
	default:
		gap = time.Duration(g.rng.Exp(1/g.cfg.Rate) * float64(time.Second))
	}
	if g.clock.Now()+gap > g.windowStart+g.cfg.Window {
		return
	}
	g.clock.AfterFunc(gap, func() {
		g.placeCall()
		g.scheduleNextArrival()
	})
}

// placeCall runs steps 1–4 of the evaluation procedure for one call.
func (g *Generator) placeCall() {
	id := g.placed
	g.placed++
	g.outstanding++
	rec := CallRecord{ID: id, PlacedAt: g.clock.Now()}
	rec.warmup = g.clock.Now() < g.windowStart+g.cfg.Warmup

	hold := g.cfg.Hold
	if g.cfg.HoldDist == HoldExponential {
		hold = time.Duration(g.rng.Exp(float64(g.cfg.Hold)))
	}
	var offer []int
	if len(g.cfg.CodecMix) > 0 {
		share := g.drawCodec()
		rec.Codec = share.Name
		offer = share.Payloads
	}
	g.maybePlace(rec, hold, offer, false)
}

// noteOverload feeds one final response's X-Overload-Window into the
// throttle state. Windows only extend (never shorten) the deadline, so
// overlapping signals compose like RFC 7339 rate feedback.
func (g *Generator) noteOverload(c *sip.Call) {
	w := c.OverloadWindow()
	if w <= 0 {
		return
	}
	until := g.clock.Now() + time.Duration(w)*time.Second
	if until > g.throttleUntil {
		g.throttleUntil = until
	}
	g.lastWindow = w
}

// maybePlace is the throttle gate in front of attempt. An arrival
// landing inside an open overload window is deferred exactly once to
// past the window edge plus a full-jitter draw U(0, W) — the seeded RNG
// spreads the post-window wave so released demand does not re-arrive in
// lockstep. A deferred arrival that wakes inside a (re-armed) window is
// shed client-side as Throttled. Ladder-free runs never open a window,
// so this path draws nothing and changes nothing.
func (g *Generator) maybePlace(rec CallRecord, hold time.Duration, offer []int, deferred bool) {
	now := g.clock.Now()
	if now >= g.throttleUntil {
		g.attempt(rec, 0, hold, offer)
		return
	}
	if deferred {
		rec.Throttled = true
		g.record(rec)
		return
	}
	spread := time.Duration(g.lastWindow) * time.Second
	delay := g.throttleUntil - now + time.Duration(g.rng.Float64()*float64(spread))
	g.clock.AfterFunc(delay, func() { g.maybePlace(rec, hold, offer, true) })
}

// attempt places one INVITE for the logical call rec. A capacity
// rejection (503/486) is retried up to RetryMax times with exponential
// backoff, stretched to the server's Retry-After when that is longer —
// so an overloaded PBX can push its rejected load into the future
// instead of having it hammer back immediately.
func (g *Generator) attempt(rec CallRecord, try int, hold time.Duration, offer []int) {
	rec.Retries = try
	call := g.caller.InviteCodecs(g.cfg.Target, offer)
	if g.cfg.Patience > 0 {
		g.clock.AfterFunc(g.cfg.Patience, func() {
			if call.State() != sip.CallEstablished && call.State() != sip.CallTerminated {
				g.caller.Cancel(call)
			}
		})
	}
	var sess *media.Session
	call.OnEstablished = func(c *sip.Call) {
		g.noteOverload(c)
		rec.Established = true
		rec.SetupTime = c.SetupTime()
		g.active++
		if g.active > g.results.PeakConcurrent {
			g.results.PeakConcurrent = g.active
		}
		if g.cfg.Media == MediaPacketized {
			sess = g.newSession(g.callerHost, c)
			sess.Start()
		}
		g.clock.AfterFunc(hold, func() { g.caller.Hangup(c) })
	}
	call.OnEnded = func(c *sip.Call) {
		if rec.Established {
			g.active--
			rec.Duration = c.Duration()
		} else {
			g.noteOverload(c)
			rec.Status = c.RejectStatus()
			capacity := c.Cause() == sip.EndRejected &&
				(rec.Status == sip.StatusServiceUnavailable || rec.Status == sip.StatusBusyHere)
			timedOut := g.cfg.RetryTimeouts && c.Cause() == sip.EndTimeout
			if (capacity || timedOut) && try < g.cfg.RetryMax {
				base := g.cfg.RetryBase
				if base <= 0 {
					base = 500 * time.Millisecond
				}
				// Full jitter (seeded, so runs stay deterministic): wait
				// the server's Retry-After minimum plus U(0, base·2^try).
				// Uniform spreading breaks the lockstep retry wave a
				// deterministic backoff sends after a burst of 503s.
				window := base << uint(try)
				delay := time.Duration(c.RetryAfter()) * time.Second
				delay += time.Duration(g.rng.Float64() * float64(window))
				g.clock.AfterFunc(delay, func() { g.attempt(rec, try+1, hold, offer) })
				return
			}
			switch {
			case c.Cause() == sip.EndCanceled:
				rec.Abandoned = true
			case capacity:
				rec.Blocked = true
			default:
				rec.Failed = true
			}
		}
		if sess != nil {
			rec.CallerMedia = sess.Report(g.scoreProfile(c))
			rec.MOS = rec.CallerMedia.MOS
			g.results.RTPSent += rec.CallerMedia.Sent
			g.results.RTPReceived += rec.CallerMedia.Stream.Received
			sess.Close()
		}
		g.record(rec)
	}
}

func (g *Generator) record(rec CallRecord) {
	g.results.Records = append(g.results.Records, rec)
	g.outstanding--
	if rec.warmup {
		g.maybeFinish()
		return
	}
	g.results.Attempts++
	g.results.Retries += rec.Retries
	switch {
	case rec.Established:
		g.results.Established++
		if rec.MOS > 0 {
			g.results.MOS.Add(rec.MOS)
		}
		g.results.SetupTime.Add(float64(rec.SetupTime) / float64(time.Millisecond))
	case rec.Blocked:
		g.results.Blocked++
	case rec.Abandoned:
		g.results.Abandoned++
	case rec.Throttled:
		g.results.Throttled++
	default:
		g.results.Failed++
	}
	g.maybeFinish()
}

func (g *Generator) maybeFinish() {
	if !g.windowOver || g.outstanding > 0 || g.done == nil {
		return
	}
	if g.results.Attempts > 0 {
		g.results.BlockingProbability = float64(g.results.Blocked) / float64(g.results.Attempts)
	}
	done := g.done
	g.done = nil
	done(g.results)
}
