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
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/media"
	"repro/internal/mos"
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
	// CodecMix, when non-empty, draws each logical call's offered
	// codec preference list from these weighted shares (retries keep
	// the call's draw). Empty offers the phone default (G.711 µ/A).
	CodecMix []CodecShare
	// CalleeCodecs is the answering bank's supported payload-type
	// list. Empty keeps the G.711 default.
	CalleeCodecs []int
	// RTCPInterval, when positive, has every media leg send RTCP sender
	// reports at that interval (media.SessionConfig.RTCPInterval).
	RTCPInterval time.Duration
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
	Codec    string
	PlacedAt time.Duration
	// Late is how long after its due time the arrival was placed: zero
	// on a virtual clock, the generator's own scheduling delay on a wall
	// clock.
	Late        time.Duration
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
	// LateP99 is the 99th percentile of CallRecord.Late over every
	// arrival: a run whose generator ran late offered less than asked.
	LateP99 time.Duration
	Records []CallRecord
}

// ErrNotRegistered ends a run whose caller or callee the PBX refused to
// register or never answered: is it up, are uac and the target provisioned?
var ErrNotRegistered = errors.New("sipp: a phone failed to register")

// Listen binds addr ("host:port") on the substrate a generator runs
// over: a port of the simulated network, or a UDP socket.
type Listen func(addr string) (transport.Transport, error)

// Bind places one phone of the pair: its SIP address and the first RTP
// port it advertises (each concurrent call takes the next even one).
type Bind struct {
	Addr      string
	MediaPort int
}

// serial is what lets a generator run on any clock. Every entry point
// — a clock callback, a phone or transaction callback, an exported
// method — runs inside do, under one lock: uncontended on the virtual
// clock, and on the wall clock what orders timers, the phones' read
// loops and transaction timeouts. Phone callbacks run outside the
// phone's locks and Invite / Hangup / Cancel only send, so nothing
// re-enters.
type serial struct {
	mu    sync.Mutex
	clock transport.Clock
	// fin, set by a generator as it finishes, runs once the lock is
	// released: the caller's done never runs under it.
	fin func()
}

func (s *serial) do(fn func()) {
	s.mu.Lock()
	fn()
	fin := s.fin
	s.fin = nil
	s.mu.Unlock()
	if fin != nil {
		fin()
	}
}

// after runs fn on the clock, d from now, as an entry point.
func (s *serial) after(d time.Duration, fn func()) transport.Timer {
	return s.clock.AfterFunc(d, func() { s.do(fn) })
}

// Generator drives one scenario: a caller phone bank and an answering
// phone, both behind the PBX under test.
type Generator struct {
	serial
	cfg    Config
	listen Listen
	caller *sip.Phone
	callee *sip.Phone
	rng    *stats.RNG

	media *media.Metrics // nil without Config.Telemetry

	placed      int
	active      int
	results     Results
	done        func(Results, error)
	err         error // the first failure to register or to bind a media leg
	outstanding int
	windowOver  bool
	windowStart time.Duration

	// Arrivals are placed at absolute due times (windowStart + Σ gaps),
	// so a timer that fires late delays one call, not every later one.
	// pending is true while an arrival's timer is armed.
	due     time.Duration
	pending bool

	// early holds callee-leg reports that arrived before their caller's
	// record was filed (on the wire either leg can end first).
	early []media.Report

	// Upstream-throttle state (rung 3 of the degradation ladder): any
	// response carrying X-Overload-Window: W extends throttleUntil to
	// now + W. Arrivals inside the window are deferred once with full
	// jitter; still-windowed deferred arrivals are shed as Throttled.
	throttleUntil time.Duration
	lastWindow    int // seconds, sizes the jitter spread
}

// New creates a generator whose phones listen at caller.Addr and
// callee.Addr and sign in to the PBX at proxy; every timer runs on
// clock and every media leg is bound through listen. On a sharded
// simulated network both addresses must live on the shard clock
// belongs to: the phones share the generator's state.
func New(clock transport.Clock, listen Listen, caller, callee Bind, proxy string, cfg Config) (*Generator, error) {
	if cfg.Target == "" {
		cfg.Target = "uas"
	}
	g := &Generator{
		serial: serial{clock: clock},
		cfg:    cfg,
		listen: listen,
		rng:    stats.NewRNG(cfg.Seed ^ 0x51bb),
	}
	if cfg.Telemetry != nil {
		g.media = media.NewMetrics(cfg.Telemetry)
	}
	callerTr, err := listen(caller.Addr)
	if err != nil {
		return nil, fmt.Errorf("sipp: caller: %w", err)
	}
	calleeTr, err := listen(callee.Addr)
	if err != nil {
		callerTr.Close()
		return nil, fmt.Errorf("sipp: callee: %w", err)
	}
	g.caller = sip.NewPhone(sip.NewEndpoint(callerTr, clock),
		sip.PhoneConfig{User: "uac", Password: "pw-uac", Proxy: proxy, MediaPort: caller.MediaPort})
	g.callee = sip.NewPhone(sip.NewEndpoint(calleeTr, clock),
		sip.PhoneConfig{User: cfg.Target, Password: "pw-" + cfg.Target, Proxy: proxy,
			MediaPort: callee.MediaPort, AnswerDelay: cfg.AnswerDelay, Codecs: cfg.CalleeCodecs})
	if cfg.Media == MediaPacketized {
		g.callee.Sync(g.wireCalleeMedia)
	}
	return g, nil
}

// Close releases the two phones' sockets.
func (g *Generator) Close() error {
	return errors.Join(g.caller.Endpoint().Close(), g.callee.Endpoint().Close())
}

// SignalingStats returns the caller's and the callee's SIP books.
func (g *Generator) SignalingStats() (caller, callee sip.Stats) {
	return g.caller.Endpoint().StatsSnapshot(), g.callee.Endpoint().StatsSnapshot()
}

// Start registers both phones and schedules the arrival process. done
// fires when the window has closed and every placed call has ended, or
// at once, with the error, when a phone fails to register. A run that
// could not bind a media leg finishes with that error beside its
// results.
func (g *Generator) Start(done func(Results, error)) {
	registered := 0
	onReg := func(ok bool) {
		g.do(func() {
			if !ok {
				g.err = ErrNotRegistered
				g.finish()
				return
			}
			registered++
			if registered == 2 {
				g.windowStart = g.clock.Now()
				g.due = g.windowStart
				g.scheduleNextArrival()
				g.after(g.cfg.Window, func() {
					g.windowOver = true
					g.maybeFinish()
				})
			}
		})
	}
	g.do(func() {
		g.done = done
		g.caller.Register(time.Hour, onReg)
		g.callee.Register(time.Hour, onReg)
	})
}

// Results is a snapshot of the books so far. On a wall clock read the
// run's outcome here, not from the value done received: a callee leg's
// report can land after done, on another goroutine.
func (g *Generator) Results() Results {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.summarize()
	res := g.results
	res.Records = append([]CallRecord(nil), res.Records...)
	return res
}

// SettledResults is Results once every established call carries both
// legs' media reports, polled on the wall clock until timeout; settled
// says whether they all arrived. The callee hears a call's BYE after
// the caller has its 200, so on a wall clock the last callee reports
// land after done: a packetized run's media is read here.
func (g *Generator) SettledResults(timeout time.Duration) (res Results, settled bool) {
	deadline := time.Now().Add(timeout)
	for {
		res, settled = g.Results(), true
		for _, rec := range res.Records {
			if rec.Established && (rec.CallerMedia.Sent == 0 || rec.CalleeMedia.Sent == 0) {
				settled = false
				break
			}
		}
		if settled || !time.Now().Before(deadline) {
			return res, settled
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireCalleeMedia makes the answering phone start an RTP session per
// call in packetized mode.
func (g *Generator) wireCalleeMedia() {
	g.callee.OnIncoming = func(c *sip.Call) {
		var sess *media.Session
		c.OnEstablished = g.onCall(func(c *sip.Call) {
			sess = g.startSession(c)
			if sess != nil && g.cfg.MediaTimeout > 0 {
				g.watchCalleeMedia(c, sess)
			}
		})
		c.OnEnded = g.onCall(func(c *sip.Call) {
			if sess != nil {
				// Keep receiving briefly for in-flight packets, then
				// close and file the report with the matching record.
				g.attachCalleeReport(sess.Report(g.scoreProfile(c)))
				sess.Close()
			}
		})
	}
}

// onCall makes a call callback an entry point.
func (g *Generator) onCall(fn func(*sip.Call)) func(*sip.Call) {
	return func(c *sip.Call) { g.do(func() { fn(c) }) }
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
		g.after(g.cfg.MediaTimeout, poll)
	}
	g.after(g.cfg.MediaTimeout, poll)
}

// startSession binds the leg's negotiated RTP port and starts sending.
// A port that cannot be bound leaves the call without media and the
// run with an error.
func (g *Generator) startSession(c *sip.Call) *media.Session {
	mi := c.Media()
	tr, err := g.listen(fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
	if err != nil {
		if g.err == nil {
			g.err = fmt.Errorf("sipp: media leg: %w", err)
		}
		return nil
	}
	sc := media.SessionConfig{
		Remote:       fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort),
		PayloadType:  uint8(mi.PayloadType),
		SSRC:         uint32(mi.LocalPort)<<8 | 1,
		RTCPInterval: g.cfg.RTCPInterval,
		Metrics:      g.media,
	}
	// Size frames for the negotiated codec (a no-op for G.711, whose
	// 160-byte/20 ms defaults the session already uses).
	if cd, ok := codec.ByPayloadType(mi.PayloadType); ok {
		sc.FrameMs = cd.PtimeMs
		sc.PayloadBytes = cd.PayloadBytes
	}
	sess := media.NewSession(tr, g.clock, sc)
	sess.Start()
	return sess
}

// scoreProfile picks the E-model profile for one leg's report:
// VoIPmonitor's concealment-aware G.711 for single-codec runs, the
// negotiated codec's own profile under a mix.
func (g *Generator) scoreProfile(c *sip.Call) mos.Codec {
	if len(g.cfg.CodecMix) == 0 {
		return mos.G711PLC
	}
	if cd, ok := codec.ByPayloadType(c.Media().PayloadType); ok {
		return cd.MOS()
	}
	return mos.G711PLC
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

// attachCalleeReport files a callee-side media report. The B2BUA gives
// each leg its own Call-ID, so records are matched positionally: callee
// call k belongs to the k-th established record. A report whose
// caller's record is not filed yet waits in early for it.
func (g *Generator) attachCalleeReport(rep media.Report) {
	for i := range g.results.Records {
		r := &g.results.Records[i]
		if r.Established && r.CalleeMedia.Sent == 0 && r.CalleeMedia.Stream.Received == 0 {
			r.CalleeMedia = rep
			g.results.RTPSent += rep.Sent
			g.results.RTPReceived += rep.Stream.Received
			return
		}
	}
	g.early = append(g.early, rep)
}

// scheduleNextArrival plants the next call placement at its due time,
// stopping once the next arrival would land past the placement window.
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
	if g.due+gap > g.windowStart+g.cfg.Window {
		return
	}
	g.due += gap
	g.pending = true
	g.after(max(0, g.due-g.clock.Now()), func() {
		g.pending = false
		g.placeCall()
		g.scheduleNextArrival()
	})
}

// placeCall runs steps 1–4 of the evaluation procedure for one call.
func (g *Generator) placeCall() {
	id := g.placed
	g.placed++
	g.outstanding++
	now := g.clock.Now()
	rec := CallRecord{ID: id, PlacedAt: now, Late: now - g.due}
	rec.warmup = now < g.windowStart+g.cfg.Warmup

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
	g.after(delay, func() { g.maybePlace(rec, hold, offer, true) })
}

// attempt places one INVITE for the logical call rec. A capacity
// rejection (503/486) is retried up to RetryMax times with exponential
// backoff, stretched to the server's Retry-After when that is longer —
// so an overloaded PBX can push its rejected load into the future
// instead of having it hammer back immediately.
func (g *Generator) attempt(rec CallRecord, try int, hold time.Duration, offer []int) {
	rec.Retries = try
	var sess *media.Session
	onEstablished := g.onCall(func(c *sip.Call) {
		g.noteOverload(c)
		rec.Established = true
		rec.SetupTime = c.SetupTime()
		g.active++
		if g.active > g.results.PeakConcurrent {
			g.results.PeakConcurrent = g.active
		}
		if g.cfg.Media == MediaPacketized {
			sess = g.startSession(c)
		}
		g.after(hold, func() { g.caller.Hangup(c) })
	})
	onEnded := g.onCall(func(c *sip.Call) {
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
				g.after(delay, func() { g.attempt(rec, try+1, hold, offer) })
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
	})
	// The call is placed inside Sync so that no response — a read loop
	// can have one before InviteCodecs returns — is processed before
	// its callbacks are installed.
	var call *sip.Call
	g.caller.Sync(func() {
		call = g.caller.InviteCodecs(g.cfg.Target, offer)
		call.OnEstablished, call.OnEnded = onEstablished, onEnded
	})
	if g.cfg.Patience > 0 {
		g.after(g.cfg.Patience, func() {
			if call.State() != sip.CallEstablished && call.State() != sip.CallTerminated {
				g.caller.Cancel(call)
			}
		})
	}
}

func (g *Generator) record(rec CallRecord) {
	g.results.Records = append(g.results.Records, rec)
	if rec.Established && len(g.early) > 0 {
		rep := g.early[0]
		g.early = g.early[1:]
		g.attachCalleeReport(rep)
	}
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
	if !g.windowOver || g.outstanding > 0 {
		return
	}
	// An arrival whose due time has passed and whose timer has yet to
	// fire is as good as placed: a late wake-up must not end the run
	// under it. A virtual timer fires when due, so there this never holds.
	if g.pending && g.due < g.clock.Now() {
		return
	}
	g.finish()
}

// summarize brings the derived figures up to date with the counts.
func (g *Generator) summarize() {
	r := &g.results
	if r.Attempts > 0 {
		r.BlockingProbability = float64(r.Blocked) / float64(r.Attempts)
	}
	late := make([]float64, len(r.Records))
	for i := range r.Records {
		late[i] = float64(r.Records[i].Late)
	}
	r.LateP99 = time.Duration(stats.Percentile(late, 99))
}

// finish hands the books to done, once, after the lock is released.
func (g *Generator) finish() {
	if g.done == nil {
		return
	}
	g.summarize()
	done, res, err := g.done, g.results, g.err
	g.done = nil
	g.fin = func() { done(res, err) }
}
