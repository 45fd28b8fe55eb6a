package pbx

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/cpu"
	"repro/internal/sip"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// series returns the value of family name's series whose labels
// include every key=value pair in kv, summed; 0 when none matches.
func series(snap telemetry.Snapshot, name string, kv ...string) float64 {
	f := snap.Family(name)
	if f == nil {
		return 0
	}
	total := 0.0
	for _, m := range f.Metrics {
		ok := m.Value != nil
		for i := 0; ok && i+1 < len(kv); i += 2 {
			ok = false
			for _, l := range m.Labels {
				if l.Key == kv[i] && l.Value == kv[i+1] {
					ok = true
				}
			}
		}
		if ok {
			total += *m.Value
		}
	}
	return total
}

// twoIncarnations runs a server with registrar, ladder, drain and RTP
// relay on one registry, crashes it, and runs its restart on the same
// registry and address, which it leaves carrying one call with media:
// the two incarnations are returned oldest first, with the registry
// both publish into. Both endpoints publish their sip_* families there
// too.
func twoIncarnations(t *testing.T) (*telemetry.Registry, []*Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := Config{
		Telemetry:   reg,
		MaxChannels: 2,
		RelayRTP:    true,
		Registrar:   RegistrarConfig{Enabled: true},
		CPU:         cpu.DefaultModel(),
		// Thresholds under the idle CPU model: the ladder climbs to
		// upstream-throttle in its first ticks, so answers and 503s
		// carry the backoff window; the block rung stays out of reach.
		Degradation: &DegradationConfig{Enter: [4]float64{0.01, 0.02, 0.03, 0.99}},
	}
	r := newRig(t, 6, cfg)
	r.server.ep.UseTelemetry(reg)
	calls := func() {
		// Let the ladder climb: two ticks a rung.
		r.sched.Run(r.sched.Now() + 10*time.Second)
		// Three callers for two channels: one is shed.
		for i := 0; i < 3; i++ {
			caller := r.phones[i]
			call := caller.Invite(fmt.Sprintf("u%d", i+3))
			call.OnEstablished = func(c *sip.Call) {
				r.clock.AfterFunc(10*time.Second, func() { caller.Hangup(c) })
			}
		}
		r.sched.Run(r.sched.Now() + 30*time.Second)
	}
	calls()

	// A bad password is refused; an Expires: 0 refresh removes a binding.
	intruder := sip.NewPhone(sip.NewEndpoint(transport.NewSim(r.net, "intruder:5060"), r.clock),
		sip.PhoneConfig{User: "u0", Password: "wrong", Proxy: "pbx:5060"})
	intruder.Register(time.Hour, nil)
	r.phones[5].Register(0, nil)
	r.sched.Run(r.sched.Now() + 5*time.Second)

	r.server.Drain()
	r.phones[0].Invite("u3")
	r.sched.Run(r.sched.Now() + 5*time.Second)

	first := r.server
	first.Crash()
	dir := first.Directory()
	ep := sip.NewEndpoint(transport.NewSim(r.net, "pbx:5060"), r.clock)
	ep.UseTelemetry(reg)
	r.server = New(ep, dir, func(port int) (transport.Transport, error) {
		return transport.NewSim(r.net, fmt.Sprintf("pbx:%d", port)), nil
	}, cfg)
	// The phones answer with nonces the restart never issued: each is
	// re-challenged stale, then accepted.
	for _, p := range r.phones[:5] {
		p.Register(time.Hour, nil)
	}
	r.sched.Run(r.sched.Now() + 5*time.Second)
	calls()
	mediaCall(r, r.phones[0], "u3", time.Hour)
	r.sched.Run(r.sched.Now() + 5*time.Second)
	return reg, []*Server{first, r.server}
}

// TestPulledFamiliesSumIncarnations checks every family that reads
// Counters against the sum, over a crashed server and its restart on
// one registry, of the expression it publishes — so an outside
// collector sees what the two incarnations counted between them.
func TestPulledFamiliesSumIncarnations(t *testing.T) {
	reg, servers := twoIncarnations(t)
	var c Counters
	var hits, transitions uint64
	var sent, recv uint64
	for _, s := range servers {
		c.Add(s.CountersSnapshot())
		hits += s.NonceStats().Hits
		transitions += uint64(len(s.DegradationTimeline()))
		st := s.SignalingStats()
		for _, v := range st.Sent {
			sent += v
		}
		for _, v := range st.Received {
			recv += v
		}
	}
	// Each path this test means to cover must have been taken.
	for name, v := range map[string]uint64{
		"Attempts": c.Attempts, "Blocked": c.Blocked, "Established": c.Established,
		"DrainRejected": c.DrainRejected, "ThrottleSignals": c.ThrottleSignals,
		"Registers": c.Registers, "RegisterRemovals": c.RegisterRemovals,
		"RegisterChallenges": c.RegisterChallenges, "RegisterStale": c.RegisterStale,
		"RegisterAuthFail": c.RegisterAuthFail, "nonce hits": hits, "transitions": transitions,
	} {
		if v == 0 {
			t.Errorf("%s = 0: the scenario no longer exercises it", name)
		}
	}
	if servers[1].CountersSnapshot().Attempts == 0 || servers[1].CountersSnapshot().RegisterStale == 0 {
		t.Errorf("the restart took no INVITE or stale REGISTER: %+v", servers[1].CountersSnapshot())
	}

	snap := reg.Snapshot()
	for _, w := range []struct {
		family string
		kv     []string
		want   uint64
	}{
		{mInvites, nil, c.Attempts},
		{mBlocked, nil, c.Blocked},
		{mRejected, nil, c.Rejected},
		{mEstablished, nil, c.Established},
		{mTranscoded, nil, c.TranscodedCalls},
		{mDrainRejects, nil, c.DrainRejected},
		{mCallsTotal, []string{"outcome", "completed"}, c.Completed},
		{mCallsTotal, []string{"outcome", "blocked"}, c.Blocked},
		{mCallsTotal, []string{"outcome", "rejected"}, c.Unanswered},
		{mCallsTotal, []string{"outcome", "canceled"}, c.Canceled},
		{mCallsTotal, []string{"outcome", "failed"}, c.Aborted},
		{mCallsTotal, []string{"outcome", "lost"}, c.Lost},
		{mThrottleSignals, nil, c.ThrottleSignals},
		{mDegradeTransitions, nil, transitions},
		{mRegisters, []string{"outcome", "accepted"}, c.Registers - c.RegisterRemovals},
		{mRegisters, []string{"outcome", "challenged"}, c.RegisterChallenges},
		{mRegisters, []string{"outcome", "stale"}, c.RegisterStale},
		{mRegisters, []string{"outcome", "authfail"}, c.RegisterAuthFail},
		{mRegisters, []string{"outcome", "shed"}, c.RegisterShed},
		{mRegisters, []string{"outcome", "removed"}, c.RegisterRemovals},
		{mNonceCache, []string{"result", "hit"}, hits},
		{mNonceCache, []string{"result", "stale"}, c.RegisterStale},
		{mNonceCache, []string{"result", "bad"}, c.RegisterAuthFail},
		{"sip_messages_total", []string{"dir", "sent"}, sent},
		{"sip_messages_total", []string{"dir", "recv"}, recv},
	} {
		if got := series(snap, w.family, w.kv...); got != float64(w.want) {
			t.Errorf("%s%v = %v, want %d", w.family, w.kv, got, w.want)
		}
	}
}

// TestPulledReadsAllocFree pins the cost of watching: with two servers
// publishing into one registry, a read of a pulled family allocates
// nothing — a live relay's count and a level included.
func TestPulledReadsAllocFree(t *testing.T) {
	reg, _ := twoIncarnations(t)
	for _, name := range []string{"sip_messages_total", mRegisters, mInvites, mCallsTotal, mRelayPkts, mActive} {
		read := reg.ValueFunc(name)
		if read == nil || read() == 0 {
			t.Fatalf("%s: nothing to read", name)
		}
		if allocs := testing.AllocsPerRun(200, func() { read() }); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestBindingsFollowExpiry: pbx_bindings reads the directory, so a
// binding that expires leaves the family when it leaves the directory.
func TestBindingsFollowExpiry(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 2, Config{Telemetry: reg, Registrar: RegistrarConfig{Enabled: true}})
	r.phones[1].Register(2*time.Second, nil)
	r.sched.Run(r.sched.Now() + 10*time.Second)
	live := r.server.Directory().LiveBindings()
	if got := reg.Snapshot().Scalar(mBindings); live != 1 || got != float64(live) {
		t.Errorf("%s = %v, LiveBindings = %d; want both 1", mBindings, got, live)
	}
}

// TestTranscodeLoadAfterCrash: a crash releases the transcoding
// surcharge of the calls it cuts, and pbx_transcode_load_percent reads
// the released load.
func TestTranscodeLoadAfterCrash(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newCodecRig(t, Config{RelayRTP: true, Codecs: codec.AllPayloadTypes(), Telemetry: reg},
		[]int{18}, []int{0, 8})
	mediaCall(r, r.phones[0], "u1", time.Minute)
	r.sched.Run(r.sched.Now() + 5*time.Second)
	want := codec.TranscodeCostPercent(codec.G729, codec.G711U)
	if got := reg.Snapshot().Scalar(mTranscodeLoad); got != want {
		t.Fatalf("mid-call %s = %v, want %v", mTranscodeLoad, got, want)
	}
	r.server.Crash()
	r.sched.Run(r.sched.Now() + time.Second)
	load := r.server.TranscodeLoad()
	if got := reg.Snapshot().Scalar(mTranscodeLoad); load != 0 || got != load {
		t.Errorf("after the crash %s = %v, TranscodeLoad = %v; want both 0", mTranscodeLoad, got, load)
	}
}

// TestOneRelayBookAcrossCrash: the relay families read Counters plus
// the live relays, and a crash folds the relays it cuts into Counters,
// so family and Counters agree after it and the family never falls.
func TestOneRelayBookAcrossCrash(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 2, Config{RelayRTP: true, Telemetry: reg})
	mediaCall(r, r.phones[0], "u1", time.Minute)
	pkts, bytes := reg.ValueFunc(mRelayPkts), reg.ValueFunc(mRelayBytes)
	start, last := r.sched.Now(), 0.0
	for step := 1; step <= 100; step++ {
		r.sched.Run(start + time.Duration(step)*100*time.Millisecond)
		if step == 50 {
			r.server.Crash()
		}
		v := pkts()
		if v < last {
			t.Fatalf("%s fell from %v to %v at %v", mRelayPkts, last, v, r.sched.Now())
		}
		last = v
	}
	c := r.server.CountersSnapshot()
	if c.RelayedPackets == 0 || last != float64(c.RelayedPackets) {
		t.Errorf("%s = %v, Counters.RelayedPackets = %d; want equal and non-zero",
			mRelayPkts, last, c.RelayedPackets)
	}
	if got := bytes(); got != float64(c.RelayedBytes) {
		t.Errorf("%s = %v, Counters.RelayedBytes = %d", mRelayBytes, got, c.RelayedBytes)
	}
}
