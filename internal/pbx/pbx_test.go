package pbx

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/netsim"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// rig is a complete simulated testbed: PBX + n phones, all registered.
type rig struct {
	sched  *netsim.Scheduler
	net    *netsim.Network
	clock  transport.SimClock
	server *Server
	phones []*sip.Phone
}

// cdrs is the call ledger of a rig built with Config.Journal set: the
// server keeps no history of its own.
func (r *rig) cdrs() []CDR { return r.server.Journal().Committed() }

func newRig(t testing.TB, nPhones int, cfg Config) *rig {
	t.Helper()
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(31))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	clock := transport.SimClock{Sched: sched}

	dir := directory.New()
	factory := func(port int) (transport.Transport, error) {
		return transport.NewSim(net, fmt.Sprintf("pbx:%d", port)), nil
	}
	ep := sip.NewEndpoint(transport.NewSim(net, "pbx:5060"), clock)
	server := New(ep, dir, factory, cfg)

	r := &rig{sched: sched, net: net, clock: clock, server: server}
	for i := 0; i < nPhones; i++ {
		user := fmt.Sprintf("u%d", i)
		if err := dir.AddUser(directory.User{Username: user, Password: "pw-" + user}); err != nil {
			t.Fatal(err)
		}
		host := fmt.Sprintf("host%d", i)
		phone := sip.NewPhone(
			sip.NewEndpoint(transport.NewSim(net, host+":5060"), clock),
			sip.PhoneConfig{User: user, Password: "pw-" + user, Proxy: "pbx:5060", MediaPort: 4000})
		phone.Register(time.Hour, nil)
		r.phones = append(r.phones, phone)
	}
	sched.Run(5 * time.Second) // let registrations settle
	for i, p := range r.phones {
		if !p.Registered() {
			t.Fatalf("phone %d failed to register", i)
		}
	}
	return r
}

func TestRegistrarRequiresValidDigest(t *testing.T) {
	r := newRig(t, 1, Config{})
	// A phone with a bad password must be refused.
	evil := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, "evil:5060"), r.clock),
		sip.PhoneConfig{User: "u0", Password: "wrong", Proxy: "pbx:5060"})
	var ok, done bool
	evil.Register(time.Hour, func(success bool) { ok, done = success, true })
	r.sched.Run(20 * time.Second)
	if !done || ok {
		t.Fatalf("bad-password register: done=%v ok=%v", done, ok)
	}
	// Unknown user gets 404.
	ghost := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, "ghost:5060"), r.clock),
		sip.PhoneConfig{User: "nobody", Password: "x", Proxy: "pbx:5060"})
	var gok, gdone bool
	ghost.Register(time.Hour, func(success bool) { gok, gdone = success, true })
	r.sched.Run(40 * time.Second)
	if !gdone || gok {
		t.Fatalf("unknown-user register: done=%v ok=%v", gdone, gok)
	}
}

func TestBridgedCallLifecycle(t *testing.T) {
	r := newRig(t, 2, Config{Journal: NewCDRJournal()})
	caller, callee := r.phones[0], r.phones[1]

	var calleeGot *sip.Call
	callee.OnIncoming = func(c *sip.Call) { calleeGot = c }

	call := caller.Invite("u1")
	var established, ended bool
	call.OnEstablished = func(c *sip.Call) {
		established = true
		caller.Endpoint().Clock().AfterFunc(120*time.Second, func() { caller.Hangup(c) })
	}
	call.OnEnded = func(*sip.Call) { ended = true }
	r.sched.Run(10 * time.Minute)

	if !established || !ended {
		t.Fatalf("established=%v ended=%v", established, ended)
	}
	if calleeGot == nil {
		t.Fatal("callee never rang")
	}
	if calleeGot.State() != sip.CallTerminated || calleeGot.Cause() != sip.EndRemoteBye {
		t.Errorf("callee state=%v cause=%v", calleeGot.State(), calleeGot.Cause())
	}
	c := r.server.CountersSnapshot()
	if c.Attempts != 1 || c.Established != 1 || c.Completed != 1 || c.Blocked != 0 {
		t.Errorf("counters: %+v", c)
	}
	if r.server.ActiveChannels() != 0 {
		t.Errorf("channels leaked: %d", r.server.ActiveChannels())
	}
	cdrs := r.cdrs()
	if len(cdrs) != 1 {
		t.Fatalf("CDRs: %d", len(cdrs))
	}
	cdr := cdrs[0]
	if cdr.Caller != "u0" || cdr.Callee != "u1" || cdr.Disposition != Answered {
		t.Errorf("CDR: %+v", cdr)
	}
	if cdr.Duration < 119*time.Second || cdr.Duration > 121*time.Second {
		t.Errorf("CDR duration: %v", cdr.Duration)
	}
}

func TestThirteenSIPMessagesThroughPBX(t *testing.T) {
	// Sec. IV: "the SIP protocol demands the exchange of 9 messages to
	// establish a call and 4 to tear it down, accounting to a total of
	// 13 SIP messages for each call."
	r := newRig(t, 2, Config{})
	sipCount := 0
	byKind := map[string]int{}
	r.net.AddTap(func(_ time.Duration, p *netsim.Packet) {
		if !sip.LooksLikeSIP(p.Payload) {
			return
		}
		m, err := sip.Parse(p.Payload)
		if err != nil {
			return
		}
		sipCount++
		if m.IsRequest() {
			byKind[string(m.Method)]++
		} else {
			byKind[fmt.Sprintf("%d", m.StatusCode)]++
		}
	})

	call := r.phones[0].Invite("u1")
	call.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(time.Second, func() { r.phones[0].Hangup(c) })
	}
	r.sched.Run(5 * time.Minute)

	if sipCount != 13 {
		t.Errorf("SIP messages on the wire = %d, want 13; breakdown %v", sipCount, byKind)
	}
	want := map[string]int{
		"INVITE": 2, "100": 1, "180": 2, "200": 4, "ACK": 2, "BYE": 2,
	}
	for k, v := range want {
		if byKind[k] != v {
			t.Errorf("%s count = %d, want %d (all: %v)", k, byKind[k], v, byKind)
		}
	}
}

func TestBlockingAtChannelCap(t *testing.T) {
	r := newRig(t, 6, Config{MaxChannels: 2})
	// Place 3 concurrent calls: the third must be blocked with 503.
	var statuses []int
	for i := 0; i < 3; i++ {
		call := r.phones[i].Invite(fmt.Sprintf("u%d", i+3))
		call.OnEnded = func(c *sip.Call) {
			if c.Cause() == sip.EndRejected {
				statuses = append(statuses, c.RejectStatus())
			}
		}
	}
	r.sched.Run(30 * time.Second)
	c := r.server.CountersSnapshot()
	if c.Blocked != 1 {
		t.Fatalf("blocked = %d, want 1 (counters %+v)", c.Blocked, c)
	}
	if len(statuses) != 1 || statuses[0] != sip.StatusServiceUnavailable {
		t.Errorf("reject statuses = %v, want [503]", statuses)
	}
	if c.Established != 2 {
		t.Errorf("established = %d, want 2", c.Established)
	}
	if c.PeakChannels != 2 {
		t.Errorf("peak channels = %d, want 2", c.PeakChannels)
	}
}

func TestChannelFreedAfterCallAllowsNext(t *testing.T) {
	r := newRig(t, 4, Config{MaxChannels: 1})
	first := r.phones[0].Invite("u2")
	first.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(10*time.Second, func() { r.phones[0].Hangup(c) })
	}
	var secondBlocked, secondOK bool
	first.OnEnded = func(*sip.Call) {
		second := r.phones[1].Invite("u3")
		second.OnEstablished = func(*sip.Call) { secondOK = true }
		second.OnEnded = func(c *sip.Call) {
			if c.Cause() == sip.EndRejected {
				secondBlocked = true
			}
		}
	}
	r.sched.Run(5 * time.Minute)
	if secondBlocked || !secondOK {
		t.Errorf("second call blocked=%v ok=%v after channel freed", secondBlocked, secondOK)
	}
}

func TestUnknownCalleeGets404(t *testing.T) {
	r := newRig(t, 1, Config{})
	call := r.phones[0].Invite("no-such-user")
	var status int
	call.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	r.sched.Run(30 * time.Second)
	if status != sip.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
	if c := r.server.CountersSnapshot(); c.Rejected != 1 {
		t.Errorf("rejected = %d", c.Rejected)
	}
	if r.server.ActiveChannels() != 0 {
		t.Errorf("channel leaked on 404")
	}
}

func TestUnregisteredCalleeGets404(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.server.Directory().Unregister("u1")
	call := r.phones[0].Invite("u1")
	var status int
	call.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	r.sched.Run(30 * time.Second)
	if status != sip.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
}

func TestRTPRelayCarriesMedia(t *testing.T) {
	r := newRig(t, 2, Config{RelayRTP: true, Journal: NewCDRJournal()})
	caller, callee := r.phones[0], r.phones[1]

	var callerSess, calleeSess *media.Session
	mkSession := func(p *sip.Phone, c *sip.Call) *media.Session {
		mi := c.Media()
		tr := transport.NewSim(r.net, fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
		return media.NewSession(tr, r.clock, media.SessionConfig{
			Remote:      fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort),
			PayloadType: uint8(mi.PayloadType),
			SSRC:        uint32(mi.LocalPort),
		})
	}
	callee.OnIncoming = func(c *sip.Call) {
		c.OnEstablished = func(c *sip.Call) {
			calleeSess = mkSession(callee, c)
			calleeSess.Start()
		}
	}
	call := caller.Invite("u1")
	call.OnEstablished = func(c *sip.Call) {
		callerSess = mkSession(caller, c)
		callerSess.Start()
		r.clock.AfterFunc(30*time.Second, func() {
			callerSess.Stop()
			if calleeSess != nil {
				calleeSess.Stop()
			}
			caller.Hangup(c)
		})
	}
	r.sched.Run(5 * time.Minute)

	if callerSess == nil || calleeSess == nil {
		t.Fatal("media sessions not created")
	}
	rep := callerSess.Report(mos.G711)
	if rep.Stream.Received < 1400 || rep.Stream.Received > 1501 {
		t.Errorf("caller received %d packets, want ~1500 (30s @ 50pps)", rep.Stream.Received)
	}
	if rep.EffectiveLoss > 0.001 {
		t.Errorf("loss on clean path: %v", rep.EffectiveLoss)
	}
	if rep.MOS < 4.2 {
		t.Errorf("MOS through relay = %v", rep.MOS)
	}
	c := r.server.CountersSnapshot()
	// Both directions relayed: ~1500 each way.
	if c.RelayedPackets < 2800 || c.RelayedPackets > 3100 {
		t.Errorf("relayed = %d, want ~3000", c.RelayedPackets)
	}
	cdr := r.cdrs()[0]
	if cdr.MOS < 4.2 {
		t.Errorf("CDR MOS = %v", cdr.MOS)
	}
	if cdr.FromCaller.Received < 1400 || cdr.FromCallee.Received < 1400 {
		t.Errorf("CDR stream stats: %d / %d", cdr.FromCaller.Received, cdr.FromCallee.Received)
	}
}

func TestCalleeHangupForwardsByeToCaller(t *testing.T) {
	r := newRig(t, 2, Config{})
	callee := r.phones[1]
	callee.OnIncoming = func(c *sip.Call) {
		c.OnEstablished = func(c *sip.Call) {
			r.clock.AfterFunc(5*time.Second, func() { callee.Hangup(c) })
		}
	}
	call := r.phones[0].Invite("u1")
	var cause sip.EndCause = -1
	call.OnEnded = func(c *sip.Call) { cause = c.Cause() }
	r.sched.Run(2 * time.Minute)
	if cause != sip.EndRemoteBye {
		t.Errorf("caller cause = %v, want remote-bye", cause)
	}
	if c := r.server.CountersSnapshot(); c.Completed != 1 {
		t.Errorf("completed = %d", c.Completed)
	}
}

func TestInviteAuthentication(t *testing.T) {
	// With AuthInvites on, an INVITE without credentials is challenged
	// with 401. Our phone does not retry INVITE auth, so the call is
	// rejected — the test asserts the server-side policy. The challenge
	// ends the attempt, so it is counted Rejected, in the same books
	// the tracer's outcome reads.
	reg := telemetry.NewRegistry()
	r := newRig(t, 2, Config{AuthInvites: true, Telemetry: reg})
	call := r.phones[0].Invite("u1")
	var status int
	call.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	r.sched.Run(30 * time.Second)
	if status != sip.StatusUnauthorized {
		t.Errorf("status = %d, want 401", status)
	}
	if c := r.server.CountersSnapshot(); c.Attempts != 1 || c.Rejected != 1 {
		t.Errorf("Attempts=%d Rejected=%d, want 1/1", c.Attempts, c.Rejected)
	}
	snap := reg.Snapshot()
	if got, traced := snap.Scalar(mRejected), series(snap, "pbx_calls_total", "outcome", "rejected"); got != 1 || got != traced {
		t.Errorf("%s = %v, pbx_calls_total{outcome=\"rejected\"} = %v, want 1 and equal", mRejected, got, traced)
	}
}

func TestCPUPercentAdmission(t *testing.T) {
	// A tiny CPU budget admits only a handful of calls.
	r := newRig(t, 20, Config{
		// base 7% + ~0.2/call + 5%/attempt: admits ~1/burst
		CPU:       cpu.DefaultModel(),
		Admission: Admission{CPUPercent: 15},
	})
	for i := 0; i < 10; i++ {
		r.phones[i].Invite(fmt.Sprintf("u%d", i+10))
	}
	r.sched.Run(time.Minute)
	c := r.server.CountersSnapshot()
	if c.Blocked == 0 {
		t.Errorf("no calls blocked under CPU admission: %+v", c)
	}
	if c.Established == 0 {
		t.Errorf("no calls admitted under CPU admission: %+v", c)
	}
}

func TestCPUMeterSamplesDuringRun(t *testing.T) {
	r := newRig(t, 2, Config{CPU: cpu.DefaultModel()})
	call := r.phones[0].Invite("u1")
	call.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(60*time.Second, func() { r.phones[0].Hangup(c) })
	}
	r.sched.Run(2 * time.Minute)
	lo, mean, hi := r.server.CPUBand()
	if mean <= 0 || lo > mean || mean > hi {
		t.Errorf("CPU band: lo=%v mean=%v hi=%v", lo, mean, hi)
	}
	// One call ≈ base + small load; far below the paper's 60% ceiling.
	if hi >= 60 {
		t.Errorf("one call saturates modelled CPU: %v", hi)
	}
}

// TestCPUBandPlateauAndFallback: the band is read over the samples
// taken at ≥ 90 % of peak occupancy; when no sample caught the peak, it
// is read over the whole run, in sample order.
func TestCPUBandPlateauAndFallback(t *testing.T) {
	r := newRig(t, 0, Config{})
	s := r.server
	m := cpu.DefaultModel()
	var plateau, all stats.Summary
	// Replace the rig's registration ticks with a ramp of 35..45 calls.
	s.mu.Lock()
	s.cpuSamples = nil
	for calls := 35; calls <= 45; calls++ {
		u := m.UtilizationWith(calls, 0.33, 0, 0)
		s.cpuSamples = append(s.cpuSamples, cpuSample{util: u, channels: calls})
		all.Add(u)
		if calls >= 41 { // ceil(0.9 · 45)
			plateau.Add(u)
		}
	}
	s.mu.Unlock()

	for _, tc := range []struct {
		peak int
		want *stats.Summary
	}{{45, &plateau}, {60, &all}} { // a peak of 60 fell between samples
		s.mu.Lock()
		s.counters.PeakChannels = tc.peak
		s.mu.Unlock()
		lo, mean, hi := s.CPUBand()
		m, dev := tc.want.Mean(), tc.want.Stddev()
		if lo != m-dev || mean != m || hi != m+dev {
			t.Errorf("peak %d: band [%v %v %v], want mean %v ± %v",
				tc.peak, lo, mean, hi, m, dev)
		}
		if !(lo < mean && mean < hi) {
			t.Errorf("peak %d: band [%v, %v, %v] not ordered", tc.peak, lo, mean, hi)
		}
	}
}

// TestDropProbabilityFollowsLastSample: the relay's overload drop
// probability is the CPU model's at the server's last per-second
// sample — none below the knee, a linear share of the maximum above.
func TestDropProbabilityFollowsLastSample(t *testing.T) {
	for _, tc := range []struct{ base, want float64 }{
		{7, 0},       // idle, under the knee at 45 %
		{72.5, 0.02}, // halfway from the knee to 100 %: half of 0.04
	} {
		m := cpu.DefaultModel()
		m.BasePercent = tc.base
		r := newRig(t, 0, Config{CPU: m})
		r.sched.Run(3 * time.Second)
		if got := math.Float64frombits(r.server.dropP.Load()); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("base %v%%: drop probability %v, want %v", tc.base, got, tc.want)
		}
	}
}

func TestConcurrentBridges(t *testing.T) {
	const pairs = 20
	r := newRig(t, pairs*2, Config{Journal: NewCDRJournal()})
	for i := 0; i < pairs; i++ {
		caller := r.phones[i]
		call := caller.Invite(fmt.Sprintf("u%d", i+pairs))
		call.OnEstablished = func(c *sip.Call) {
			r.clock.AfterFunc(60*time.Second, func() { caller.Hangup(c) })
		}
	}
	r.sched.Run(10 * time.Minute)
	c := r.server.CountersSnapshot()
	if c.Established != pairs || c.Completed != pairs {
		t.Errorf("established=%d completed=%d, want %d", c.Established, c.Completed, pairs)
	}
	if c.PeakChannels != pairs {
		t.Errorf("peak channels = %d, want %d", c.PeakChannels, pairs)
	}
	if got := len(r.cdrs()); got != pairs {
		t.Errorf("CDRs = %d", got)
	}
}

func TestByeForUnknownDialogCounted(t *testing.T) {
	r := newRig(t, 1, Config{})
	// Hand-craft a BYE for a dialog the PBX never saw.
	bye := sip.NewRequest(sip.BYE, sip.NewURI("u0", "pbx", 5060),
		sip.NameAddr{URI: sip.NewURI("x", "host0", 5060), Tag: "t1"},
		sip.NameAddr{URI: sip.NewURI("u0", "pbx", 5060), Tag: "t2"},
		"ghost-call-id", 1)
	r.phones[0].Endpoint().SendRequest("pbx:5060", bye, nil)
	r.sched.Run(10 * time.Second)
	// Server answers 200 (teardown idempotence) but counts the anomaly.
	// No crash and no channel change is the main assertion.
	if r.server.ActiveChannels() != 0 {
		t.Error("ghost BYE affected channels")
	}
}

// TestUnknownMethodNotImplemented: a method the PBX does not implement
// gets 501 (RFC 3261 §8.2.1) and is no error of the server's: it feeds
// neither the CPU model's error rate nor, through it, the relay's
// overload drop.
func TestUnknownMethodNotImplemented(t *testing.T) {
	r := newRig(t, 1, Config{})
	for _, m := range []sip.Method{"INFO", "UPDATE"} {
		info := sip.NewRequest(m, sip.NewURI("u0", "pbx", 5060),
			sip.NameAddr{URI: sip.NewURI("u0", "host0", 5060), Tag: "t1"},
			sip.NameAddr{URI: sip.NewURI("u0", "pbx", 5060)},
			"stranger-"+string(m), 1)
		var status int
		r.phones[0].Endpoint().SendRequest("pbx:5060", info, func(resp *sip.Message) { status = resp.StatusCode })
		// Read the per-second error window between two sampler ticks.
		var errs uint64
		start := r.sched.Now()
		r.clock.AfterFunc(100*time.Millisecond, func() {
			r.server.mu.Lock()
			errs = r.server.errorsWindow
			r.server.mu.Unlock()
		})
		r.sched.Run(start + time.Second)
		if status != sip.StatusNotImplemented || errs != 0 {
			t.Errorf("%s: status %d, %d errors counted; want 501 and none", m, status, errs)
		}
	}
}

// TestCountersAddCoversEveryField guards Add against a counter added to
// the struct and forgotten in the sum.
func TestCountersAddCoversEveryField(t *testing.T) {
	var one Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanUint() {
			f.SetUint(1)
		} else {
			f.SetInt(1)
		}
	}
	sum := one
	sum.Add(one)
	v = reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanUint() && f.Uint() != 2 || f.CanInt() && f.Int() != 2 {
			t.Errorf("Add leaves %s out", v.Type().Field(i).Name)
		}
	}
}
