package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sip"
	"repro/internal/transport"
)

// wire_register: digest REGISTERs for many addresses of record from
// one generator socket, built by hand on sip.Endpoint.SendRequest (a
// softphone per AOR would measure 20 000 sockets, not the registrar).
//
//	phase A, open loop:   first registrations — REGISTER, 401, REGISTER
//	                      with credentials, 200: a new binding each
//	phase B, open loop:   refreshes of those bindings with pre-emptive
//	                      credentials — one round trip, a nonce-cache
//	                      hit and a TTL-heap move each
//	phase C, closed loop: refreshes, a fixed number outstanding
//
// A and B take a fifth of the run each and C the rest: the closed-loop
// rate is the figure that moves most with the host, so it gets the
// longest window.
const (
	registerUsers       = 20000 // AORs pbxd provisions; phase A registers as many as its time allows
	registerRate        = 2000  // REGISTERs/s, phases A and B
	registerOutstanding = 16    // phase C
	registerExpires     = 3600
)

// registrant is the generator's state for one AOR.
type registrant struct {
	user   string
	callID string
	seq    uint32
	auth   string // Authorization header answering the last challenge
}

type registerGen struct {
	ep         *sip.Endpoint
	proxy      string
	requestURI sip.URI
	contact    sip.URI

	ok, refused, timedOut atomic.Int64
	challenges            atomic.Int64
}

// register runs one REGISTER operation for r — following a 401 with
// credentials, at most twice (a first challenge, and a stale=true
// re-challenge) — and reports whether it ended in 200.
func (g *registerGen) register(r *registrant, done func(ok bool)) {
	g.send(r, 0, done)
}

func (g *registerGen) send(r *registrant, round int, done func(ok bool)) {
	r.seq++
	aor := sip.NewURI(r.user, g.contact.Host, g.contact.Port)
	req := sip.NewRequest(sip.REGISTER, g.requestURI,
		sip.NameAddr{URI: aor, Tag: "g" + r.user}, sip.NameAddr{URI: aor}, r.callID, r.seq)
	contact := sip.NameAddr{URI: aor}
	req.Contact = &contact
	req.Expires = registerExpires
	req.Authorization = r.auth
	g.ep.SendRequest(g.proxy, req, func(resp *sip.Message) {
		switch {
		case resp.StatusCode < 200:
		case resp.StatusCode == sip.StatusOK:
			g.ok.Add(1)
			done(true)
		case resp.StatusCode == sip.StatusUnauthorized && round < 2:
			ch, ok := sip.ParseDigestChallenge(resp.WWWAuthenticate)
			if !ok {
				g.refused.Add(1)
				done(false)
				return
			}
			g.challenges.Add(1)
			r.auth = ch.Answer(r.user, "pw-"+r.user, sip.REGISTER, g.requestURI.String()).Header()
			g.send(r, round+1, done)
		case resp.StatusCode == sip.StatusRequestTimeout:
			g.timedOut.Add(1)
			done(false)
		default:
			g.refused.Add(1)
			done(false)
		}
	})
}

func runWireRegister(srv server, p params) (*outcome, error) {
	o := newOutcome("wire_register", p)
	tr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := sip.NewEndpoint(tr, transport.NewRealClock())
	defer ep.Close()
	host, portStr, _ := strings.Cut(srv.sipAddr(), ":")
	port, _ := strconv.Atoi(portStr)
	lhost, lportStr, _ := strings.Cut(ep.Addr(), ":")
	lport, _ := strconv.Atoi(lportStr)
	g := &registerGen{
		ep: ep, proxy: srv.sipAddr(),
		requestURI: sip.NewURI("", host, port),
		contact:    sip.NewURI("", lhost, lport),
	}

	before, err := takeReading(srv, false)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	rate := registerRate * p.scale
	open, closed := p.dur(0.2), p.dur(0.6) // phases A and B each, phase C
	var late []time.Duration
	var pending atomic.Int64
	var abandoned int64
	attempted := 0

	// openLoop sends one operation per due time and returns the
	// latencies, due time → 200 OK, of those that succeeded.
	openLoop := func(n int, pick func(i int) *registrant) []time.Duration {
		var mu sync.Mutex
		var lat []time.Duration
		t0 := time.Now()
		for i, off := range uniformSchedule(rate, n) {
			due := t0.Add(off)
			late = append(late, pace(due, &pending))
			attempted++
			g.register(pick(i), func(ok bool) {
				if ok {
					d := time.Since(due)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
				pending.Add(-1)
			})
		}
		abandoned += waitCalls(&pending)
		mu.Lock()
		defer mu.Unlock()
		return lat
	}

	// Phase A: as many first registrations as the phase has time for,
	// never more than pbxd has users.
	population := int(rate * open.Seconds())
	if max := p.scaled(registerUsers); population > max {
		population = max
	}
	if population < 1 {
		population = 1
	}
	regs := make([]*registrant, population)
	for i := range regs {
		regs[i] = &registrant{user: fmt.Sprintf("u%d", i), callID: fmt.Sprintf("reg-%d-%d@bench", p.seed, i)}
	}
	firstLat := openLoop(population, func(i int) *registrant { return regs[i] })

	// Phase B: refreshes, round-robin over the registered population.
	refreshLat := openLoop(int(rate*open.Seconds()), func(i int) *registrant { return regs[i%population] })

	// The server's memory is read here, after the two open-loop phases:
	// the same operations at the same rate on every run, where the closed
	// loop does as many as the host of the moment allows, and the
	// transactions they leave lingering are most of the memory.
	paced, err := srv.memory()
	if err != nil {
		return nil, fmt.Errorf("read memory: %w", err)
	}

	// Phase C: closed loop over the same population.
	var cursor atomic.Int64
	cStart := time.Now()
	cEnd := cStart.Add(closed)
	var inWindow atomic.Int64
	var closedAttempts atomic.Int64
	var next func()
	next = func() {
		if !time.Now().Before(cEnd) {
			pending.Add(-1)
			return
		}
		closedAttempts.Add(1)
		// Slots stride through the population so two outstanding
		// refreshes never share an AOR.
		r := regs[int(cursor.Add(1))%population]
		g.register(r, func(ok bool) {
			if ok && time.Now().Before(cEnd) {
				inWindow.Add(1)
			}
			next()
		})
	}
	for i := 0; i < p.scaled(registerOutstanding); i++ {
		pending.Add(1)
		next()
	}
	sleepUntil(cEnd)
	abandoned += waitCalls(&pending)
	attempted += int(closedAttempts.Load())
	gen := selfCPU().sub(gen0)

	after, err := takeReading(srv, true)
	if err != nil {
		return nil, err
	}

	oks := g.ok.Load()
	failed := g.refused.Load() + g.timedOut.Load()
	o.Attempted = attempted
	o.Failed = int(failed + abandoned)
	o.check("generator: operations = 200 OKs + refused + timed out + abandoned", int64(attempted) == oks+failed+abandoned,
		"%d = %d + %d + %d + %d", attempted, oks, g.refused.Load(), g.timedOut.Load(), abandoned)
	if oks == 0 {
		return o, fmt.Errorf("wire_register: no REGISTER succeeded out of %d", attempted)
	}

	o.Metrics["throughput_per_s"] = float64(inWindow.Load()) / cEnd.Sub(cStart).Seconds()
	o.latencies(refreshLat)
	cpu := after.cpu.sub(before.cpu)
	o.Metrics["cpu_us_per_op"] = float64(cpu.total().Microseconds()) / float64(oks)
	o.Metrics["maxrss_mb"] = paced.hwmKB / 1024

	o.lateness(late)
	o.Layers["loadgen.cpu_s"] = gen.total().Seconds()
	o.Layers["sip.register_p50_ms"] = o.Metrics["latency_p50_us"] / 1000
	o.Samples["first_registration_latency"] = len(firstLat)
	o.serverLayers(before, after)
	o.Layers["sip.retransmits"] += float64(ep.StatsSnapshot().Retransmissions)

	d := after.prom.delta(before.prom)
	o.equal("server: registers accepted = generator 200 OKs", d.sum("pbx_registers_total", "outcome", "accepted"), float64(oks))
	o.equal("server: challenges = generator 401s", d.sum("pbx_registers_total", "outcome", "challenged")+d.sum("pbx_registers_total", "outcome", "stale"), float64(g.challenges.Load()))
	o.equal("generator: one challenge per AOR, at its first registration; no refresh was re-challenged", float64(g.challenges.Load()), float64(population))
	o.equal("server: live bindings = registered AORs", after.prom.sum("pbx_bindings")-before.prom.sum("pbx_bindings"), float64(population))
	o.equal("server: relayed packets (no media in this workload)", o.Layers["pbx.relayed_pkts"], 0)
	o.equal("server: INVITEs (no calls in this workload)", d.sum("pbx_invites_total"), 0)
	o.quiesced(srv, after.prom, p)
	return o, nil
}
