package sipp

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// RegisterConfig parameterizes a registration workload: N logical
// endpoints signing in to the registrar, refreshing their bindings on
// jittered timers, and optionally re-registering en masse after a
// registrar restart (the post-outage avalanche of the SIP overload
// literature).
type RegisterConfig struct {
	// Endpoints is the population size N. Endpoint k registers as
	// <Prefix><k> with password "pw-<Prefix><k>" (the directory
	// Provision convention).
	Endpoints int
	// Prefix names the account range (default "u").
	Prefix string
	// Expires is the binding lifetime each REGISTER requests
	// (default 120s).
	Expires time.Duration
	// Ramp spreads the initial registrations uniformly over this
	// interval, modelling phones booting at different times
	// (default 10s).
	Ramp time.Duration
	// Window is how long the steady-state storm runs after the ramp.
	// Refreshes stop scheduling past the window end.
	Window time.Duration
	// RefreshFraction of the granted lifetime is the nominal refresh
	// interval (default 0.8, the softphone convention).
	RefreshFraction float64
	// RefreshJitter spreads each refresh by ±this fraction of the
	// interval (default 0.1), so a population registered in one burst
	// does not refresh in one burst forever.
	RefreshJitter float64
	// DisableRefresh turns the refresh loop off: endpoints register
	// once and go quiet (the avalanche scenarios use this so the drain
	// measurement is not polluted by refresh traffic).
	DisableRefresh bool
	// RetryMax bounds re-attempts after a 503 or timeout (default 8).
	RetryMax int
	// RetryBase sizes the full-jitter backoff U(0, base·2^try) added
	// to the server's Retry-After on each retry (default 500ms).
	RetryBase time.Duration
	// Seed drives ramp spreading, refresh jitter and retry jitter.
	Seed uint64
}

// RegisterSample is one second of registrar-visible outcomes at the
// generator.
type RegisterSample struct {
	Sec  int // seconds since the generator started
	OK   int // REGISTER round-trips completed (200)
	Shed int // 503s received
}

// RegisterResults aggregates a finished registration workload.
type RegisterResults struct {
	Endpoints    int
	Registers    int // successful REGISTER round-trips, all kinds
	Initial      int // first-time registrations
	Refreshes    int // refresh round-trips
	Reregisters  int // avalanche re-registrations
	StaleRetries int // 401 stale=true re-challenges absorbed
	Shed         int // 503 responses received
	Retries      int // re-attempts after 503/timeout
	Failed       int // endpoints that exhausted their retries
	// PeakOKPerSec / PeakShedPerSec are the busiest seconds.
	PeakOKPerSec   int
	PeakShedPerSec int
	// AvalancheAt / DrainTime: when the avalanche was triggered
	// (relative to generator start) and how long until the whole
	// population was re-registered. Zero when no avalanche ran.
	AvalancheAt time.Duration
	DrainTime   time.Duration
	Samples     []RegisterSample
}

// regEndpoint is one logical phone's registration state.
type regEndpoint struct {
	acct  sip.Account
	timer transport.Timer // pending refresh
	// gen invalidates in-flight operations and scheduled callbacks:
	// Avalanche bumps it, and any callback carrying an older gen
	// settles without touching the books. Within one gen, operations
	// are naturally sequential (ramp → finish → refresh → finish …).
	gen     uint32
	pending bool // part of an unfinished avalanche wave
}

// RegisterGenerator drives a registration workload from one client
// address against the PBX at proxy. All N logical endpoints share one
// SIP endpoint (and its transaction layer); they are distinguished by
// their account identity, which is what the registrar keys on.
type RegisterGenerator struct {
	serial
	cfg   RegisterConfig
	ep    *sip.Endpoint
	proxy string
	rng   *stats.RNG

	eps         []regEndpoint
	results     RegisterResults
	done        func(RegisterResults)
	start       time.Duration
	outstanding int
	windowOver  bool

	avalanchePending int
	avalancheAt      time.Duration
}

// NewRegister creates a registration generator listening at addr and
// signing in to the PBX at proxy, its timers on clock.
func NewRegister(clock transport.Clock, listen Listen, addr, proxy string, cfg RegisterConfig) (*RegisterGenerator, error) {
	if cfg.Prefix == "" {
		cfg.Prefix = "u"
	}
	if cfg.Expires <= 0 {
		cfg.Expires = 120 * time.Second
	}
	if cfg.Ramp <= 0 {
		cfg.Ramp = 10 * time.Second
	}
	if cfg.RefreshFraction <= 0 {
		cfg.RefreshFraction = 0.8
	}
	if cfg.RefreshJitter <= 0 {
		cfg.RefreshJitter = 0.1
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 8
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 500 * time.Millisecond
	}
	tr, err := listen(addr)
	if err != nil {
		return nil, fmt.Errorf("sipp: register: %w", err)
	}
	g := &RegisterGenerator{
		serial: serial{clock: clock},
		cfg:    cfg,
		ep:     sip.NewEndpoint(tr, clock),
		proxy:  proxy,
		rng:    stats.NewRNG(cfg.Seed ^ 0x2e91),
	}
	g.eps = make([]regEndpoint, cfg.Endpoints)
	for i := range g.eps {
		user := cfg.Prefix + strconv.Itoa(i)
		g.eps[i].acct = sip.Account{User: user, Password: "pw-" + user}
	}
	return g, nil
}

// Close releases the generator's socket.
func (g *RegisterGenerator) Close() error { return g.ep.Close() }

// SignalingStats returns the SIP books of the endpoint every logical
// endpoint registers through.
func (g *RegisterGenerator) SignalingStats() sip.Stats { return g.ep.StatsSnapshot() }

// Start spreads the initial registrations over the ramp and arms the
// window. done fires when the window has closed, every in-flight
// REGISTER has resolved, and any avalanche wave has drained.
func (g *RegisterGenerator) Start(done func(RegisterResults)) {
	g.do(func() {
		g.done = done
		g.start = g.clock.Now()
		g.results.Endpoints = g.cfg.Endpoints
		for i := range g.eps {
			delay := time.Duration(g.rng.Float64() * float64(g.cfg.Ramp))
			g.after(delay, func() { g.register(i, regInitial, 0, 0) })
		}
		g.after(g.cfg.Ramp+g.cfg.Window, func() {
			g.windowOver = true
			for i := range g.eps {
				if g.eps[i].timer != nil {
					g.eps[i].timer.Stop()
				}
			}
			g.maybeFinish()
		})
	})
}

// Avalanche makes the whole population re-register, spread uniformly
// over spread — the post-outage cold-restart wave. Call it, while the
// window is open, after crashing/restarting the registrar (in the
// simulator, from an event on the generator's scheduler); pending
// refresh timers are cancelled so the drain measurement sees only the
// wave.
func (g *RegisterGenerator) Avalanche(spread time.Duration) {
	g.do(func() { g.avalanche(spread) })
}

func (g *RegisterGenerator) avalanche(spread time.Duration) {
	g.avalancheAt = g.clock.Now()
	g.results.AvalancheAt = g.avalancheAt - g.start
	g.avalanchePending = 0
	for i := range g.eps {
		e := &g.eps[i]
		if e.timer != nil {
			e.timer.Stop()
			e.timer = nil
		}
		// Invalidate anything in flight: its response (if one ever
		// arrives) belongs to the dead incarnation and the wave
		// re-registers the endpoint regardless.
		e.gen++
		e.pending = true
		g.avalanchePending++
		gen := e.gen
		delay := time.Duration(g.rng.Float64() * float64(spread))
		g.after(delay, func() { g.register(i, regAvalanche, 0, gen) })
	}
}

// register kinds.
type regKind int

const (
	regInitial regKind = iota
	regRefresh
	regAvalanche
)

// register runs one REGISTER operation for endpoint i: the digest
// exchange (sip.Endpoint.Register), then the back-off after a 503 or a
// timeout. gen must match the endpoint's current generation or the
// call is a dead scheduled callback and no-ops.
func (g *RegisterGenerator) register(i int, kind regKind, try int, gen uint32) {
	e := &g.eps[i]
	if e.gen != gen {
		return
	}
	g.outstanding++

	aor := sip.AddrURI(e.acct.User, g.proxy)
	req := sip.NewRequest(sip.REGISTER, sip.AddrURI("", g.proxy),
		sip.NameAddr{URI: aor, Tag: g.ep.NewTag()},
		sip.NameAddr{URI: aor},
		g.ep.NewCallID(), 1)
	contact := sip.NameAddr{URI: sip.AddrURI(e.acct.User, g.ep.Addr())}
	req.Contact = &contact
	req.Expires = int(g.cfg.Expires / time.Second)

	// Every response enters through do. One from a dead incarnation,
	// outrun by an avalanche wave, settles the op without counting it.
	enter := func(handle func()) {
		g.do(func() {
			if e.gen != gen {
				g.outstanding--
				g.maybeFinish()
				return
			}
			handle()
		})
	}
	g.ep.Register(g.proxy, req, &e.acct, enter, func(resp *sip.Message, stale bool) {
		if stale {
			g.results.StaleRetries++
		}
		switch resp.StatusCode {
		case sip.StatusOK:
			g.bumpSample(true)
			g.finishOp(i, kind, true)
		case sip.StatusServiceUnavailable, sip.StatusRequestTimeout:
			if resp.StatusCode == sip.StatusServiceUnavailable {
				g.results.Shed++
				g.bumpSample(false)
			}
			if try < g.cfg.RetryMax {
				g.results.Retries++
				// Server-commanded minimum plus full jitter: the same
				// spreading discipline as the call generator, so a shed
				// wave does not re-arrive in lockstep.
				delay := time.Duration(resp.RetryAfter) * time.Second
				delay += time.Duration(g.rng.Float64() * float64(g.cfg.RetryBase<<uint(try)))
				g.outstanding--
				g.after(delay, func() { g.register(i, kind, try+1, gen) })
				return
			}
			g.finishOp(i, kind, false)
		default:
			g.finishOp(i, kind, false)
		}
	})
}

// finishOp settles one endpoint's REGISTER operation. Callers have
// already checked the generation.
func (g *RegisterGenerator) finishOp(i int, kind regKind, ok bool) {
	e := &g.eps[i]
	g.outstanding--
	if ok {
		g.results.Registers++
		switch kind {
		case regInitial:
			g.results.Initial++
		case regRefresh:
			g.results.Refreshes++
		case regAvalanche:
			g.results.Reregisters++
		}
		g.scheduleRefresh(i)
	} else {
		g.results.Failed++
	}
	if e.pending {
		// Settled, one way or the other: a failed endpoint stays
		// unregistered, but the wave must not hang the run on it.
		e.pending = false
		g.avalanchePending--
		if g.avalanchePending == 0 {
			g.results.DrainTime = g.clock.Now() - g.avalancheAt
		}
	}
	g.maybeFinish()
}

// scheduleRefresh arms endpoint i's next refresh at
// RefreshFraction·Expires ± jitter, while the window is open.
func (g *RegisterGenerator) scheduleRefresh(i int) {
	if g.cfg.DisableRefresh || g.windowOver {
		return
	}
	e := &g.eps[i]
	base := float64(g.cfg.Expires) * g.cfg.RefreshFraction
	jitter := 1 + g.cfg.RefreshJitter*(2*g.rng.Float64()-1)
	delay := time.Duration(base * jitter)
	if g.clock.Now()+delay > g.start+g.cfg.Ramp+g.cfg.Window {
		return
	}
	gen := e.gen
	e.timer = g.after(delay, func() { g.register(i, regRefresh, 0, gen) })
}

// bumpSample files one outcome into the per-second series.
func (g *RegisterGenerator) bumpSample(ok bool) {
	sec := int((g.clock.Now() - g.start) / time.Second)
	n := len(g.results.Samples)
	if n == 0 || g.results.Samples[n-1].Sec != sec {
		g.results.Samples = append(g.results.Samples, RegisterSample{Sec: sec})
		n++
	}
	s := &g.results.Samples[n-1]
	if ok {
		s.OK++
		if s.OK > g.results.PeakOKPerSec {
			g.results.PeakOKPerSec = s.OK
		}
	} else {
		s.Shed++
		if s.Shed > g.results.PeakShedPerSec {
			g.results.PeakShedPerSec = s.Shed
		}
	}
}

func (g *RegisterGenerator) maybeFinish() {
	if !g.windowOver || g.outstanding > 0 || g.avalanchePending > 0 || g.done == nil {
		return
	}
	done, res := g.done, g.results
	g.done = nil
	g.fin = func() { done(res) }
}
