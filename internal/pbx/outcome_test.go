package pbx

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// wantTiming checks a call-timing histogram's count and, to the
// nanosecond, its sum.
func wantTiming(t *testing.T, reg *telemetry.Registry, name string, count uint64, sum float64) {
	t.Helper()
	h := reg.FindHistogram(name)
	if h == nil {
		t.Fatalf("%s not registered", name)
	}
	if h.Count() != count || math.Abs(h.Sum()-sum) > 1e-9 {
		t.Errorf("%s: %d observations summing to %v s, want %d summing to %v s", name, h.Count(), h.Sum(), count, sum)
	}
}

// stagesOf lists one call's flight-recorder stages, oldest first.
func stagesOf(s *Server, callID string) []string {
	var out []string
	for _, e := range s.TraceEvents() {
		if e.CallID == callID {
			out = append(out, e.Stage)
		}
	}
	return out
}

// checkConserved checks that every attempt ended exactly once, in
// Counters and on the pbx_calls_total view, and that no call is open.
func checkConserved(t *testing.T, s *Server, reg *telemetry.Registry) {
	t.Helper()
	c := s.CountersSnapshot()
	snap := reg.Snapshot()
	if c.Ended() != c.Attempts || series(snap, mCallsTotal) != float64(c.Attempts) {
		t.Errorf("%d attempts, %d outcomes, %v on %s", c.Attempts, c.Ended(), series(snap, mCallsTotal), mCallsTotal)
	}
	if open := snap.Scalar(mActiveSpans); open != 0 {
		t.Errorf("%s = %v after the calls ended", mActiveSpans, open)
	}
}

// TestCallTimingFromRecord: the latency histograms and the flight
// recorder read the stamps the call's record keeps. The callee rings
// for 2 s over 1 ms links, so post-dial delay is the B-leg round trip
// (2 ms) and set-up adds the ring time. A hung-up call closes its
// record on the BYE — zero teardown, "completed"; a crash ends the call
// as "lost", with the timing it had reached and no teardown.
func TestCallTimingFromRecord(t *testing.T) {
	for _, tc := range []struct {
		name      string
		end       func(r *rig, c *sip.Call)
		teardowns uint64
		stages    []string
	}{
		{"hangup", func(r *rig, c *sip.Call) { r.phones[0].Hangup(c) }, 1,
			[]string{"invite", "admitted", "ringing", "answered", "acked", "bye", "completed"}},
		{"crash", func(r *rig, _ *sip.Call) { r.server.Crash() }, 0,
			[]string{"invite", "admitted", "ringing", "answered", "acked", "lost"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			r := newRigWithAnswerDelay(t, 2*time.Second, Config{Telemetry: reg})
			call := r.phones[0].Invite("u1")
			call.OnEstablished = func(c *sip.Call) {
				if open := reg.Snapshot().Scalar(mActiveSpans); open != 1 {
					t.Errorf("%s = %v with the call up, want 1", mActiveSpans, open)
				}
				r.clock.AfterFunc(5*time.Second, func() { tc.end(r, c) })
			}
			r.sched.Run(r.sched.Now() + time.Minute)

			outcome := tc.stages[len(tc.stages)-1]
			if n := series(reg.Snapshot(), mCallsTotal, "outcome", outcome); n != 1 {
				t.Fatalf("%s{outcome=%q} = %v, counters %+v", mCallsTotal, outcome, n, r.server.CountersSnapshot())
			}
			wantTiming(t, reg, mPostDial, 1, 0.002)
			wantTiming(t, reg, mCallSetup, 1, 2.002)
			wantTiming(t, reg, mCallTeardown, tc.teardowns, 0)
			checkConserved(t, r.server, reg)

			if got := stagesOf(r.server, call.CallID); !slices.Equal(got, tc.stages) {
				t.Fatalf("flight stages %v", got)
			}
			at := map[string]time.Duration{}
			for _, e := range r.server.TraceEvents() {
				if e.CallID == call.CallID {
					at[e.Stage] = e.At
				}
			}
			if pdd, setup := at["ringing"]-at["invite"], at["answered"]-at["invite"]; pdd != 2*time.Millisecond || setup != 2002*time.Millisecond {
				t.Errorf("flight recorder: ringing +%v, answered +%v after the INVITE", pdd, setup)
			}
		})
	}
}

// TestSecondRingingKeepsPostDialDelay: a callee that rings twice moves
// neither the post-dial delay nor the flight record; the first 1xx
// forwarded is the one that counts.
func TestSecondRingingKeepsPostDialDelay(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 1, Config{Telemetry: reg})
	dir := r.server.Directory()
	if err := dir.AddUser(directory.User{Username: "ringer", Password: "pw-ringer"}); err != nil {
		t.Fatal(err)
	}
	if err := dir.Register("ringer", "ringer:5060", r.sched.Now(), time.Hour); err != nil {
		t.Fatal(err)
	}
	// A hand-driven callee: 180 at once, 180 again a second later, 200
	// a second after that.
	uas := sip.NewEndpoint(transport.NewSim(r.net, "ringer:5060"), r.clock)
	rings := 0
	uas.Handle(func(tx *sip.ServerTx, req *sip.Message, _ string) {
		switch req.Method {
		case sip.INVITE:
			ringing := req.Response(sip.StatusRinging)
			ringing.To.Tag = "ringer-tag"
			ring := func() { rings++; tx.Respond(ringing) }
			ring()
			r.clock.AfterFunc(time.Second, ring)
			r.clock.AfterFunc(2*time.Second, func() {
				offer, err := sdp.Parse(req.Body)
				if err != nil {
					t.Error(err)
					return
				}
				answer, err := offer.Answer("ringer", "ringer", 4000, []int{0, 8})
				if err != nil {
					t.Error(err)
					return
				}
				ok := req.Response(sip.StatusOK)
				ok.To.Tag = "ringer-tag"
				ok.Contact = &sip.NameAddr{URI: sip.NewURI("ringer", "ringer", 5060)}
				ok.ContentType = sdp.ContentType
				ok.Body = answer.Marshal()
				tx.Respond(ok)
			})
		case sip.BYE:
			tx.Respond(req.Response(sip.StatusOK))
		}
	})
	caller := r.phones[0]
	call := caller.Invite("ringer")
	call.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(time.Second, func() { caller.Hangup(c) })
	}
	r.sched.Run(r.sched.Now() + time.Minute)

	if rings != 2 || call.Cause() != sip.EndCompleted {
		t.Fatalf("%d rings, call ended %v", rings, call.Cause())
	}
	wantTiming(t, reg, mPostDial, 1, 0.002)
	wantTiming(t, reg, mCallSetup, 1, 2.002)
	if got := stagesOf(r.server, call.CallID); !slices.Equal(got, []string{"invite", "admitted", "ringing", "answered", "acked", "bye", "completed"}) {
		t.Errorf("flight stages %v", got)
	}
	checkConserved(t, r.server, reg)
}

// TestChallengeAndRetryAreTwoAttempts: the 401 ends the first attempt
// as "rejected"; the retry with credentials, on the same Call-ID, is a
// second attempt with an outcome of its own.
func TestChallengeAndRetryAreTwoAttempts(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 2, Config{AuthInvites: true, Telemetry: reg})
	raw := sip.NewEndpoint(transport.NewSim(r.net, "raw:5060"), r.clock)
	raw.Handle(func(tx *sip.ServerTx, req *sip.Message, _ string) {
		if tx != nil {
			tx.Respond(req.Response(sip.StatusOK))
		}
	})
	const callID = "challenged@raw"
	target := sip.NewURI("u1", "pbx", 5060)
	from := sip.NameAddr{URI: sip.NewURI("u0", "raw", 5060), Tag: "raw-tag"}
	invite := func(seq uint32, auth string) *sip.Message {
		req := sip.NewRequest(sip.INVITE, target, from, sip.NameAddr{URI: target}, callID, seq)
		req.Contact = &sip.NameAddr{URI: from.URI}
		req.Authorization = auth
		req.ContentType = sdp.ContentType
		req.Body = sdp.NewSessionWith("u0", "raw", 4000, []int{0, 8}).Marshal()
		return req
	}
	var statuses []int
	raw.SendRequest("pbx:5060", invite(1, ""), func(resp *sip.Message) {
		if resp.StatusCode < 200 {
			return
		}
		statuses = append(statuses, resp.StatusCode)
		ch, ok := sip.ParseDigestChallenge(resp.WWWAuthenticate)
		if resp.StatusCode != sip.StatusUnauthorized || !ok {
			return
		}
		creds := ch.Answer("u0", "pw-u0", sip.INVITE, target.String())
		raw.SendRequest("pbx:5060", invite(2, creds.Header()), func(resp *sip.Message) {
			if resp.StatusCode != sip.StatusOK {
				if resp.StatusCode >= 200 {
					statuses = append(statuses, resp.StatusCode)
				}
				return
			}
			statuses = append(statuses, resp.StatusCode)
			to := sip.NameAddr{URI: target, Tag: resp.To.Tag}
			ack := sip.NewRequest(sip.ACK, target, from, to, callID, 2)
			ack.CSeq.Method = sip.ACK
			raw.SendACK("pbx:5060", ack)
			r.clock.AfterFunc(time.Second, func() {
				raw.SendRequest("pbx:5060", sip.NewRequest(sip.BYE, target, from, to, callID, 3), nil)
			})
		})
	})
	r.sched.Run(r.sched.Now() + time.Minute)

	if len(statuses) != 2 || statuses[0] != sip.StatusUnauthorized || statuses[1] != sip.StatusOK {
		t.Fatalf("final responses %v, want [401 200]", statuses)
	}
	c := r.server.CountersSnapshot()
	if c.Attempts != 2 || c.Rejected != 1 || c.Unanswered != 1 || c.Completed != 1 {
		t.Errorf("counters %+v", c)
	}
	snap := reg.Snapshot()
	if rej, done := series(snap, mCallsTotal, "outcome", "rejected"), series(snap, mCallsTotal, "outcome", "completed"); rej != 1 || done != 1 {
		t.Errorf("%s: rejected %v, completed %v", mCallsTotal, rej, done)
	}
	if got := stagesOf(r.server, callID); !slices.Equal(got, []string{"invite", "rejected",
		"invite", "admitted", "ringing", "answered", "acked", "bye", "completed"}) {
		t.Errorf("flight stages %v", got)
	}
	checkConserved(t, r.server, reg)
}

// TestFlightRingOrderAndWrap: the flight recorder keeps its last
// flightCap events oldest first. 300 calls to an unknown user are 600
// events, invite then rejected each, so the ring holds the last 256
// calls whole.
func TestFlightRingOrderAndWrap(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 1, Config{Telemetry: reg})
	const calls = 300
	ids := make([]string, calls)
	for i := range ids {
		ids[i] = r.phones[0].Invite("nobody").CallID
	}
	r.sched.Run(r.sched.Now() + time.Minute)

	ev := r.server.TraceEvents()
	if len(ev) != flightCap {
		t.Fatalf("%d events, want %d", len(ev), flightCap)
	}
	first := calls - flightCap/2
	for i, e := range ev {
		stage, id := "invite", ids[first+i/2]
		if i%2 == 1 {
			stage = "rejected"
		}
		if e.Stage != stage || e.CallID != id || (i > 0 && e.At < ev[i-1].At) {
			t.Fatalf("event %d = %+v, want %s of %s, not before %v", i, e, stage, id, ev[max(i-1, 0)].At)
		}
	}
	checkConserved(t, r.server, reg)
}

// relayPortsHeld counts the relay port numbers handed out and not
// returned.
func relayPortsHeld(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextPort - s.cfg.RTPPortBase - (len(s.freePorts) - s.freeHead)
}

// reInvite sends an INVITE on the live call's Call-ID, CSeq 2 and with
// a To tag, from the caller's endpoint; its final response lands in
// *final.
func reInvite(p *sip.Phone, c *sip.Call, callee string, final **sip.Message) {
	uri := sip.NewURI(callee, "pbx", 5060)
	req := sip.NewRequest(sip.INVITE, uri,
		sip.NameAddr{URI: sip.NewURI(p.User(), "host0", 5060), Tag: "caller-tag"},
		sip.NameAddr{URI: uri, Tag: "dialog-tag"}, c.CallID, 2)
	req.ContentType = sdp.ContentType
	req.Body = sdp.NewSessionWith(p.User(), "host0", 4100, []int{0}).Marshal()
	p.Endpoint().SendRequest("pbx:5060", req, func(resp *sip.Message) {
		if resp.StatusCode >= 200 {
			*final = resp
		}
	})
}

// checkReInviteRefused places a call to callee, sends a second INVITE
// on its Call-ID a second into it and hangs up five seconds in. The
// INVITE must get 488 with its To tag kept, and leave the call as it
// was: one attempt, one channel while up, and nothing held — channels,
// relay ports, transactions — once the run drains.
func checkReInviteRefused(t *testing.T, r *rig, reg *telemetry.Registry, callee string) {
	t.Helper()
	caller := r.phones[0]
	var final *sip.Message
	channels := -1
	call := caller.Invite(callee)
	call.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(time.Second, func() { reInvite(caller, c, callee, &final) })
		r.clock.AfterFunc(2*time.Second, func() { channels = r.server.ActiveChannels() })
		r.clock.AfterFunc(5*time.Second, func() { caller.Hangup(c) })
	}
	r.sched.Run(r.sched.Now() + 2*time.Minute)

	if final == nil || final.StatusCode != sip.StatusNotAcceptableHere || final.To.Tag != "dialog-tag" {
		t.Errorf("second INVITE answered %+v, want 488 with To tag dialog-tag", final)
	}
	if call.Cause() != sip.EndCompleted || channels != 1 {
		t.Errorf("call ended %v, %d channels held after the second INVITE", call.Cause(), channels)
	}
	c := r.server.CountersSnapshot()
	if c.Attempts != 1 || c.Completed != 1 {
		t.Errorf("counters %+v, want one attempt, completed", c)
	}
	if ch, ports, txs := r.server.ActiveChannels(), relayPortsHeld(r.server), r.server.ActiveTransactions(); ch != 0 || ports != 0 || txs != 0 {
		t.Errorf("after the drain: %d channels, %d relay ports, %d transactions", ch, ports, txs)
	}
	checkConserved(t, r.server, reg)
}

// TestReInviteOnLiveBridgeRefused: an INVITE on a bridged call's
// Call-ID is refused, not dropped: the server transaction completes.
func TestReInviteOnLiveBridgeRefused(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 2, Config{RelayRTP: true, Telemetry: reg})
	checkReInviteRefused(t, r, reg, "u1")
}

// TestReInviteOnLiveDepositRefused: an INVITE on a voicemail deposit's
// Call-ID is refused, not answered as a second deposit: the first
// keeps its channel and port and is stored at the BYE.
func TestReInviteOnLiveDepositRefused(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRig(t, 1, Config{RelayRTP: true, Voicemail: true, Telemetry: reg})
	if err := r.server.Directory().AddUser(directory.User{Username: "absent", Password: "pw-absent"}); err != nil {
		t.Fatal(err)
	}
	checkReInviteRefused(t, r, reg, "absent")
	if n, c := len(r.server.Voicemails("absent")), r.server.CountersSnapshot(); n != 1 || c.VoicemailDeposits != 1 {
		t.Errorf("%d deposits stored, VoicemailDeposits=%d, want 1", n, c.VoicemailDeposits)
	}
}
