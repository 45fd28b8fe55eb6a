package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sip"
	"repro/internal/stats"
)

// wire_calls: zero-hold calls uac → server → uas, BYE straight after
// the ACK, no RTP. Phase A is an open loop (seeded Poisson arrivals on
// an absolute schedule) and yields the set-up latencies; phase B is a
// closed loop (a fixed number of calls outstanding, each replaced the
// moment it ends) and yields the throughput. The server's CPU is read
// across both.
const (
	callsOpenRate    = 200 // calls/s, phase A
	callsOutstanding = 8   // phase B
	msgsPerCall      = 13  // SIP messages through the server per completed call
)

// callTally counts call outcomes. Every attempt must end in exactly
// one of completed / blocked / failed — the conservation check.
type callTally struct {
	attempts, completed, blocked, failed atomic.Int64

	mu    sync.Mutex
	setup []time.Duration // due → 200 OK at the uac
}

// place starts one call that was due at due and reports its end to
// done. It runs no goroutine and arms no timer of its own.
func (t *callTally) place(uac *sip.Phone, due time.Time, done func()) {
	t.attempts.Add(1)
	uac.InviteWithHandlers("uas", nil,
		func(c *sip.Call) {
			d := time.Since(due)
			t.mu.Lock()
			t.setup = append(t.setup, d)
			t.mu.Unlock()
			uac.Hangup(c)
		},
		func(c *sip.Call) {
			switch {
			case c.Cause() == sip.EndCompleted && c.RejectStatus() == sip.StatusOK:
				t.completed.Add(1)
			case c.Cause() == sip.EndRejected &&
				(c.RejectStatus() == sip.StatusServiceUnavailable || c.RejectStatus() == sip.StatusBusyHere):
				t.blocked.Add(1)
			default:
				t.failed.Add(1)
			}
			done()
		})
}

// drainTimeout is how long a phase waits for its outstanding operations
// after the last one was placed. It is longer than the SIP transaction
// timeout (32 s), so every operation has ended one way or the other by
// then and none is counted twice; a quiet run waits milliseconds.
const drainTimeout = 35 * time.Second

// waitCalls waits until pending reaches zero or the drain timeout
// passes, and returns how many calls were abandoned.
func waitCalls(pending *atomic.Int64) int64 {
	deadline := time.Now().Add(drainTimeout)
	for pending.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return pending.Load()
}

func runWireCalls(srv server, ag *agents, p params) (*outcome, error) {
	o := newOutcome("wire_calls", p)
	rng := stats.NewRNG(p.seed)
	before, err := takeReading(srv, false)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	// Heap allocated per call can only be read from inside the process,
	// so it exists on the traced, in-process run alone (and includes the
	// generator's share).
	_, inproc := srv.(*inprocServer)
	var m0, m1 runtime.MemStats
	if inproc {
		runtime.ReadMemStats(&m0)
	}

	// Phase A: open loop.
	var a callTally
	var pending atomic.Int64
	schedule := poissonSchedule(rng, callsOpenRate*p.scale, p.dur(2.0/3))
	late := make([]time.Duration, 0, len(schedule))
	t0 := time.Now()
	for _, off := range schedule {
		due := t0.Add(off)
		late = append(late, pace(due, &pending))
		a.place(ag.uac, due, func() { pending.Add(-1) })
	}
	abandonedA := waitCalls(&pending)
	// The server's memory is read here, after the open-loop phase: the
	// same calls at the same rate on every run, where the closed loop
	// places as many as the host of the moment allows, and the buffers
	// calls leave lingering are most of the memory.
	paced, err := srv.memory()
	if err != nil {
		return nil, fmt.Errorf("read memory: %w", err)
	}

	// Phase B: closed loop. Each call's end places the next from the
	// uac's receive path, until the deadline.
	var b callTally
	pending.Store(0)
	bStart := time.Now()
	bEnd := bStart.Add(p.dur(1.0 / 3))
	var inWindow atomic.Int64
	var next func()
	next = func() {
		now := time.Now()
		if !now.Before(bEnd) {
			pending.Add(-1)
			return
		}
		b.place(ag.uac, now, func() {
			if time.Now().Before(bEnd) {
				inWindow.Add(1)
			}
			next()
		})
	}
	for i := 0; i < p.scaled(callsOutstanding); i++ {
		pending.Add(1)
		next()
	}
	sleepUntil(bEnd)
	abandonedB := waitCalls(&pending)
	gen := selfCPU().sub(gen0)
	if inproc {
		runtime.ReadMemStats(&m1)
	}
	awaitIdle(srv)

	after, err := takeReading(srv, true)
	if err != nil {
		return nil, err
	}

	attempts := a.attempts.Load() + b.attempts.Load()
	completed := a.completed.Load() + b.completed.Load()
	blocked := a.blocked.Load() + b.blocked.Load()
	failed := a.failed.Load() + b.failed.Load() + abandonedA + abandonedB
	o.Attempted = int(attempts)
	o.Failed = int(failed + blocked) // a refused call is a failed operation here: capacity is unlimited
	o.check("generator: attempts = completed + blocked + failed", attempts == completed+blocked+failed,
		"%d = %d + %d + %d", attempts, completed, blocked, failed)
	if completed == 0 {
		return o, fmt.Errorf("wire_calls: no call completed out of %d", attempts)
	}

	o.Metrics["throughput_per_s"] = float64(inWindow.Load()) / bEnd.Sub(bStart).Seconds()
	a.mu.Lock()
	o.latencies(a.setup)
	a.mu.Unlock()
	cpu := after.cpu.sub(before.cpu)
	o.Metrics["cpu_us_per_op"] = float64(cpu.total().Microseconds()) / float64(completed)
	o.Metrics["maxrss_mb"] = paced.hwmKB / 1024

	o.lateness(late)
	o.Layers["loadgen.cpu_s"] = gen.total().Seconds()
	o.serverLayers(before, after)
	if inproc {
		o.Layers["pbx.bridge_alloc_kb_per_call"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(completed)
	}

	// The server's own books must agree with the generator's. A frozen
	// host loses datagrams (a retransmission is the sign), and a call
	// whose ACK the server never saw completes at the generator without
	// ever counting as established at the server: the two may then differ
	// by as many calls as messages were sent again.
	d := after.prom.delta(before.prom)
	o.Layers["sip.retransmits"] += float64(ag.retransmits())
	resent := o.Layers["sip.retransmits"]
	o.equal("server: INVITEs = generator attempts", d.sum("pbx_invites_total"), float64(attempts))
	o.within("server: established = generator completed", d.sum("pbx_calls_established_total"), float64(completed), resent)
	o.within("server: calls completed = generator completed", d.sum("pbx_calls_total", "outcome", "completed"), float64(completed), resent)
	msgs := d.sum("sip_messages_total") - d.sum("sip_messages_total", "kind", "REGISTER")
	perCall := msgs / float64(completed)
	o.Layers["sip.msgs_per_call"] = perCall
	if failed+blocked == 0 && resent == 0 {
		o.equal("server: SIP messages per call", perCall, msgsPerCall)
	}
	o.equal("server: relayed packets (no media in this workload)", o.Layers["pbx.relayed_pkts"], 0)
	o.quiesced(srv, after.prom, p)
	return o, nil
}
