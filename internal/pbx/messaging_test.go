package pbx

import (
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/sip"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func TestMessageRoutedBetweenRegisteredUsers(t *testing.T) {
	r := newRig(t, 2, Config{})
	var gotFrom, gotBody string
	r.phones[1].OnMessage = func(from, body string) { gotFrom, gotBody = from, body }
	var status int
	r.phones[0].SendMessage("u1", "hello from u0", func(s int) { status = s })
	r.sched.Run(r.sched.Now() + 10*time.Second)
	if gotFrom != "u0" || gotBody != "hello from u0" {
		t.Errorf("delivered from=%q body=%q", gotFrom, gotBody)
	}
	if status != sip.StatusOK {
		t.Errorf("sender saw status %d", status)
	}
	if c := r.server.CountersSnapshot(); c.MessagesRouted != 1 {
		t.Errorf("routed = %d", c.MessagesRouted)
	}
}

func TestMessageToUnknownUser404(t *testing.T) {
	r := newRig(t, 1, Config{StoreOfflineMessages: true})
	var status int
	r.phones[0].SendMessage("ghost", "anyone there?", func(s int) { status = s })
	r.sched.Run(r.sched.Now() + 10*time.Second)
	if status != sip.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
}

func TestMessageToOfflineUserStoredAndDelivered(t *testing.T) {
	r := newRig(t, 1, Config{StoreOfflineMessages: true})
	// Provision an offline user.
	r.server.Directory().Provision("u", 1, 1) // u1, never registered

	var status int
	r.phones[0].SendMessage("u1", "catch up later", func(s int) { status = s })
	r.sched.Run(r.sched.Now() + 10*time.Second)
	if status != sip.StatusAccepted {
		t.Fatalf("status = %d, want 202", status)
	}
	if msgs := r.server.OfflineMessages("u1"); len(msgs) != 1 || msgs[0].Body != "catch up later" {
		t.Fatalf("stored: %+v", msgs)
	}
	if c := r.server.CountersSnapshot(); c.MessagesStored != 1 {
		t.Errorf("stored counter = %d", c.MessagesStored)
	}

	// u1 comes online: the message must arrive.
	var gotBody string
	phone := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, "late:5060"), r.clock),
		sip.PhoneConfig{User: "u1", Password: "pw-u1", Proxy: "pbx:5060"})
	phone.OnMessage = func(from, body string) { gotBody = body }
	phone.Register(time.Hour, nil)
	r.sched.Run(r.sched.Now() + 10*time.Second)
	if gotBody != "catch up later" {
		t.Errorf("delivered body = %q", gotBody)
	}
	if msgs := r.server.OfflineMessages("u1"); len(msgs) != 0 {
		t.Errorf("store not drained: %+v", msgs)
	}
}

func TestMessageOfflineWithoutStoreGets404(t *testing.T) {
	r := newRig(t, 1, Config{})
	r.server.Directory().Provision("u", 1, 1)
	var status int
	r.phones[0].SendMessage("u1", "x", func(s int) { status = s })
	r.sched.Run(r.sched.Now() + 10*time.Second)
	if status != sip.StatusNotFound {
		t.Errorf("status = %d, want 404 without offline store", status)
	}
}

func TestVoicemailDeposit(t *testing.T) {
	r := newRig(t, 1, Config{Voicemail: true, RelayRTP: true, Journal: NewCDRJournal()})
	r.server.Directory().Provision("u", 1, 1) // u1 provisioned, offline

	call := r.phones[0].Invite("u1")
	var established bool
	call.OnEstablished = func(c *sip.Call) {
		established = true
		// Deposit 5 seconds of RTP "audio".
		mi := c.Media()
		tr := transport.NewSim(r.net, fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
		sendRTPBurst(r, tr, fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort), 250)
		r.clock.AfterFunc(5*time.Second, func() { r.phones[0].Hangup(c) })
	}
	r.sched.Run(r.sched.Now() + 5*time.Minute)

	if !established {
		t.Fatal("voicemail never answered")
	}
	if call.Cause() != sip.EndCompleted {
		t.Errorf("cause = %v", call.Cause())
	}
	vms := r.server.Voicemails("u1")
	if len(vms) != 1 {
		t.Fatalf("voicemails = %d", len(vms))
	}
	vm := vms[0]
	if vm.From != "u0" || vm.To != "u1" {
		t.Errorf("deposit: %+v", vm)
	}
	if vm.Duration < 4*time.Second || vm.Duration > 6*time.Second {
		t.Errorf("duration = %v", vm.Duration)
	}
	if vm.Packets != 250 {
		t.Errorf("recorded %d packets, want 250", vm.Packets)
	}
	if r.server.ActiveChannels() != 0 {
		t.Errorf("channel leaked: %d", r.server.ActiveChannels())
	}
	if c := r.server.CountersSnapshot(); c.VoicemailDeposits != 1 {
		t.Errorf("deposit counter = %d", c.VoicemailDeposits)
	}
	// The deposit is a call like any other: one ANSWERED record whose
	// caller stream is the recording, journaled from begin to end.
	if calls := r.server.RecentCalls(); len(calls) != 1 || calls[0].Disposition != Answered ||
		calls[0].FromCaller.Received != vm.Packets {
		t.Errorf("records %+v, want one ANSWERED with %d packets from the caller", calls, vm.Packets)
	}
	if st := r.server.Journal().Stats(); st.Begins != 1 || st.Answers != 1 || st.Ends != 1 ||
		st.Open != 0 || st.DoubleEnds != 0 {
		t.Errorf("journal %+v, want one begin, answer and end", st)
	}

	// The recipient registers and receives the MWI notification.
	var note string
	phone := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, "mwi:5060"), r.clock),
		sip.PhoneConfig{User: "u1", Password: "pw-u1", Proxy: "pbx:5060"})
	phone.OnMessage = func(from, body string) { note = body }
	phone.Register(time.Hour, nil)
	r.sched.Run(r.sched.Now() + 10*time.Second)
	if note != "You have 1 new voice message(s)" {
		t.Errorf("MWI = %q", note)
	}
}

// sendRTPBurst transmits n G.711-sized RTP packets at 20 ms spacing.
func sendRTPBurst(r *rig, tr transport.Transport, dst string, n int) {
	seq := 0
	var tick func()
	tick = func() {
		if seq >= n {
			tr.Close()
			return
		}
		pkt := rtpPacket(uint16(seq))
		tr.Send(dst, pkt)
		seq++
		r.clock.AfterFunc(20*time.Millisecond, tick)
	}
	tick()
}

func rtpPacket(seq uint16) []byte {
	// Minimal valid RTP: version 2 header + 160-byte payload.
	b := make([]byte, 172)
	b[0] = 2 << 6
	b[2] = byte(seq >> 8)
	b[3] = byte(seq)
	b[11] = 9 // ssrc
	return b
}

func TestVoicemailDisabledGives404(t *testing.T) {
	r := newRig(t, 1, Config{})
	r.server.Directory().Provision("u", 1, 1)
	call := r.phones[0].Invite("u1")
	var status int
	call.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	r.sched.Run(r.sched.Now() + 30*time.Second)
	if status != sip.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
	if len(r.server.Voicemails("u1")) != 0 {
		t.Error("deposit without voicemail enabled")
	}
}

func TestVoicemailCountsAgainstCapacity(t *testing.T) {
	r := newRig(t, 2, Config{Voicemail: true, MaxChannels: 1})
	r.server.Directory().Provision("u", 2, 1) // offline u2

	first := r.phones[0].Invite("u2") // goes to voicemail, holds the channel
	var firstEstablished bool
	first.OnEstablished = func(c *sip.Call) {
		firstEstablished = true
		r.clock.AfterFunc(30*time.Second, func() { r.phones[0].Hangup(c) })
	}
	// Second call while the deposit is in progress: blocked.
	var secondStatus int
	r.clock.AfterFunc(5*time.Second, func() {
		second := r.phones[1].Invite("u0")
		second.OnEnded = func(c *sip.Call) { secondStatus = c.RejectStatus() }
	})
	r.sched.Run(r.sched.Now() + 2*time.Minute)
	if !firstEstablished {
		t.Fatal("voicemail call not established")
	}
	if secondStatus != sip.StatusServiceUnavailable {
		t.Errorf("second call status = %d, want 503 (voicemail holds the channel)", secondStatus)
	}
}

// rawInvite sends u1 an INVITE offering payload types pts from a raw
// endpoint at rude:5060, which never ACKs; its final response lands
// in *final.
func rawInvite(r *rig, pts string, final **sip.Message) {
	ep := sip.NewEndpoint(transport.NewSim(r.net, "rude:5060"), r.clock)
	invite := sip.NewRequest(sip.INVITE, sip.NewURI("u1", "pbx", 5060),
		sip.NameAddr{URI: sip.NewURI("rude", "rude", 5060), Tag: "t1"},
		sip.NameAddr{URI: sip.NewURI("u1", "pbx", 5060)},
		"rude-call", 1)
	invite.ContentType = "application/sdp"
	invite.Body = []byte("v=0\r\nc=IN IP4 rude\r\nm=audio 4000 RTP/AVP " + pts + "\r\n")
	ep.SendRequest("pbx:5060", invite, func(resp *sip.Message) {
		if resp.StatusCode >= 200 {
			*final = resp
		}
	})
}

func TestVoicemailAbandonedDepositReaped(t *testing.T) {
	// A caller that never ACKs and never BYEs: the reaper must release
	// the channel and store nothing, and the call ends unanswered like a
	// bridge whose caller never ACKed.
	r := newRig(t, 1, Config{Voicemail: true, VoicemailMaxDuration: 30 * time.Second})
	r.server.Directory().Provision("u", 1, 1)
	var final *sip.Message
	rawInvite(r, "0", &final)

	r.sched.Run(r.sched.Now() + 10*time.Minute)
	if final == nil || final.StatusCode != sip.StatusOK {
		t.Fatalf("deposit answered %+v, want 200", final)
	}
	if n := r.server.ActiveChannels(); n != 0 {
		t.Errorf("abandoned deposit leaked channel: %d", n)
	}
	if len(r.server.Voicemails("u1")) != 0 {
		t.Error("unanswered deposit stored")
	}
	if c := r.server.CountersSnapshot(); c.Unanswered != 1 || c.Ended() != c.Attempts {
		t.Errorf("counters %+v, want the one attempt ended rejected", c)
	}
	if calls := r.server.RecentCalls(); len(calls) != 1 || calls[0].Disposition != NoAnswer {
		t.Errorf("records %+v, want one NO ANSWER", calls)
	}
}

// TestVoicemailRefusesOfferWithoutG711: the mailbox records G.711
// only, so an offer the PBX could bridge (G.729) but a deposit cannot
// answer gets 500 before anything rings, and gives its channel back.
func TestVoicemailRefusesOfferWithoutG711(t *testing.T) {
	r := newRig(t, 1, Config{Voicemail: true, RelayRTP: true, Codecs: codec.AllPayloadTypes()})
	r.server.Directory().Provision("u", 1, 1)
	var final *sip.Message
	rawInvite(r, "18", &final)

	r.sched.Run(r.sched.Now() + time.Minute)
	if final == nil || final.StatusCode != sip.StatusInternalError {
		t.Fatalf("G.729-only deposit answered %+v, want 500", final)
	}
	c := r.server.CountersSnapshot()
	if c.Rejected != 1 || c.Unanswered != 1 || c.Ended() != c.Attempts {
		t.Errorf("counters %+v, want the one attempt ended rejected", c)
	}
	if ch, ports := r.server.ActiveChannels(), relayPortsHeld(r.server); ch != 0 || ports != 0 {
		t.Errorf("%d channels, %d ports held after the refusal", ch, ports)
	}
}

// TestVoicemailDepositCrashRecoveredLost: a deposit in flight when the
// server crashes leaves its journal entry open, and the next
// incarnation's recovery closes it LOST like any other call.
func TestVoicemailDepositCrashRecoveredLost(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := NewCDRJournal()
	cfg := Config{Voicemail: true, RelayRTP: true, Journal: j, Telemetry: reg}
	r := newRig(t, 1, cfg)
	r.server.Directory().Provision("u", 1, 1)
	var crashAt time.Duration
	call := r.phones[0].Invite("u1")
	call.OnEstablished = func(*sip.Call) {
		r.clock.AfterFunc(5*time.Second, func() {
			crashAt = r.clock.Now()
			r.server.Crash()
		})
	}
	r.sched.Run(r.sched.Now() + time.Minute)
	if c := r.server.CountersSnapshot(); c.Lost != 1 || c.Ended() != c.Attempts || len(r.server.Voicemails("u1")) != 0 {
		t.Fatalf("counters %+v, want the deposit lost and nothing stored", c)
	}

	// The restart: a fresh server on the same address, journal and registry.
	ep := sip.NewEndpoint(transport.NewSim(r.net, "pbx:5060"), r.clock)
	next := New(ep, r.server.Directory(), nil, cfg)
	defer next.Close()
	lost := next.RecoverJournal(crashAt)
	if len(lost) != 1 || lost[0].CallID != call.CallID || lost[0].Disposition != Lost ||
		lost[0].AnsweredAt == 0 || lost[0].Duration != crashAt-lost[0].AnsweredAt {
		t.Fatalf("recovered %+v, want the answered deposit LOST at %v", lost, crashAt)
	}
	if n := series(reg.Snapshot(), mCDR, "disposition", "lost"); n != 1 {
		t.Errorf("%s{disposition=\"lost\"} = %v, want 1", mCDR, n)
	}
	if st := j.Stats(); st.Open != 0 || st.Begins != st.Ends {
		t.Errorf("journal %+v, want balanced after recovery", st)
	}
}

func TestCDRCSVExport(t *testing.T) {
	r := newRig(t, 2, Config{Journal: NewCDRJournal()})
	call := r.phones[0].Invite("u1")
	call.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(10*time.Second, func() { r.phones[0].Hangup(c) })
	}
	r.sched.Run(r.sched.Now() + 2*time.Minute)

	var sb strings.Builder
	if err := WriteCSV(&sb, r.cdrs()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "src,dst,start,duration_s,disposition") {
		t.Errorf("header: %q", lines[0])
	}
	fields := strings.Split(lines[1], ",")
	if fields[0] != "u0" || fields[1] != "u1" || fields[4] != "ANSWERED" {
		t.Errorf("record: %v", fields)
	}
	// Parse back through the csv reader for structural validity.
	rd := csv.NewReader(strings.NewReader(out))
	rows, err := rd.ReadAll()
	if err != nil || len(rows) != 2 || len(rows[1]) != 13 {
		t.Errorf("reparse: %d rows, err=%v", len(rows), err)
	}
}
