package pbx

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/mos"
	"repro/internal/netsim"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// newCodecRig builds a relay-enabled testbed whose phones carry
// explicit codec preference lists (one list per phone).
func newCodecRig(t *testing.T, cfg Config, phoneCodecs ...[]int) *rig {
	t.Helper()
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(31))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	clock := transport.SimClock{Sched: sched}

	dir := directory.New()
	factory := func(port int) (transport.Transport, error) {
		return transport.NewSim(net, fmt.Sprintf("pbx:%d", port)), nil
	}
	server := New(sip.NewEndpoint(transport.NewSim(net, "pbx:5060"), clock), dir, factory, cfg)

	r := &rig{sched: sched, net: net, clock: clock, server: server}
	for i, codecs := range phoneCodecs {
		user := fmt.Sprintf("u%d", i)
		if err := dir.AddUser(directory.User{Username: user, Password: "pw-" + user}); err != nil {
			t.Fatal(err)
		}
		host := fmt.Sprintf("host%d", i)
		phone := sip.NewPhone(
			sip.NewEndpoint(transport.NewSim(net, host+":5060"), clock),
			sip.PhoneConfig{User: user, Password: "pw-" + user, Proxy: "pbx:5060",
				MediaPort: 4000, Codecs: codecs})
		phone.Register(time.Hour, nil)
		r.phones = append(r.phones, phone)
	}
	sched.Run(5 * time.Second)
	for i, p := range r.phones {
		if !p.Registered() {
			t.Fatalf("phone %d failed to register", i)
		}
	}
	return r
}

// startMedia attaches a media session to an established call using its
// negotiated payload type.
func startMedia(r *rig, c *sip.Call) *media.Session {
	mi := c.Media()
	tr := transport.NewSim(r.net, fmt.Sprintf("%s:%d", mi.LocalHost, mi.LocalPort))
	sess := media.NewSession(tr, r.clock, media.SessionConfig{
		Remote:      fmt.Sprintf("%s:%d", mi.RemoteHost, mi.RemotePort),
		PayloadType: uint8(mi.PayloadType),
		SSRC:        uint32(mi.LocalPort),
	})
	sess.Start()
	return sess
}

// TestTranscodingBridgeEndToEnd: a G.729-only caller dials a G.711-only
// callee through a transcoding-capable PBX. The bridge must negotiate
// different codecs per leg, rewrite media in both directions, charge
// the transcode CPU surcharge for the call's lifetime, and release it
// at teardown.
func TestTranscodingBridgeEndToEnd(t *testing.T) {
	r := newCodecRig(t, Config{RelayRTP: true, Codecs: codec.AllPayloadTypes(), Journal: NewCDRJournal()},
		[]int{18}, []int{0, 8})
	caller, callee := r.phones[0], r.phones[1]

	wantCost := codec.TranscodeCostPercent(codec.G729, codec.G711U)
	var callerPT, calleePT int
	var midCallLoad float64
	var callerSess, calleeSess *media.Session
	callee.OnIncoming = func(c *sip.Call) {
		c.OnEstablished = func(c *sip.Call) {
			calleePT = c.Media().PayloadType
			calleeSess = startMedia(r, c)
		}
	}
	call := caller.Invite("u1")
	call.OnEstablished = func(c *sip.Call) {
		callerPT = c.Media().PayloadType
		callerSess = startMedia(r, c)
		r.clock.AfterFunc(10*time.Second, func() { midCallLoad = r.server.TranscodeLoad() })
		r.clock.AfterFunc(30*time.Second, func() {
			callerSess.Stop()
			calleeSess.Stop()
			caller.Hangup(c)
		})
	}
	r.sched.Run(5 * time.Minute)

	if callerPT != 18 || calleePT != 0 {
		t.Fatalf("negotiated PTs: caller %d callee %d, want 18/0", callerPT, calleePT)
	}
	if midCallLoad != wantCost {
		t.Errorf("mid-call transcode load = %v, want %v", midCallLoad, wantCost)
	}
	if got := r.server.TranscodeLoad(); got != 0 {
		t.Errorf("transcode load after teardown = %v, want 0", got)
	}
	c := r.server.CountersSnapshot()
	if c.TranscodedCalls != 1 {
		t.Errorf("transcoded calls = %d, want 1", c.TranscodedCalls)
	}
	// ~1500 packets each way over 30 s at 50 pps, every one rewritten.
	if c.TranscodedPkts < 2800 || c.TranscodedPkts > 3100 {
		t.Errorf("transcoded packets = %d, want ~3000", c.TranscodedPkts)
	}
	// Both parties must have received media in their own codec.
	if calleeSess == nil {
		t.Fatal("callee media never started")
	}
	if rx := callerSess.Report(mos.G729).Stream.Received; rx < 1400 {
		t.Errorf("caller received %d rewritten packets", rx)
	}
	if rx := calleeSess.Report(mos.G711).Stream.Received; rx < 1400 {
		t.Errorf("callee received %d rewritten packets", rx)
	}
	// The CDR is scored with the G.729>G.711 tandem profile: capped
	// below a clean single-encode G.711 call.
	cdr := r.cdrs()[0]
	if cdr.MOS <= 2 || cdr.MOS >= 4.2 {
		t.Errorf("tandem CDR MOS = %v, want in (2, 4.2)", cdr.MOS)
	}
}

// TestPassthroughDynamicPayloadType: two iLBC endpoints negotiate the
// dynamic payload type 97 end to end; the relay must pass packets
// through untouched while still observing the stream (the pt >= 96
// audio carve-out), and no transcode surcharge may be charged.
func TestPassthroughDynamicPayloadType(t *testing.T) {
	r := newCodecRig(t, Config{RelayRTP: true, Codecs: codec.AllPayloadTypes(), Journal: NewCDRJournal()},
		[]int{97}, []int{97, 0})
	caller, callee := r.phones[0], r.phones[1]

	var callerPT, calleePT int
	var sessions []*media.Session
	callee.OnIncoming = func(c *sip.Call) {
		c.OnEstablished = func(c *sip.Call) {
			calleePT = c.Media().PayloadType
			sessions = append(sessions, startMedia(r, c))
		}
	}
	call := caller.Invite("u1")
	call.OnEstablished = func(c *sip.Call) {
		callerPT = c.Media().PayloadType
		sessions = append(sessions, startMedia(r, c))
		r.clock.AfterFunc(30*time.Second, func() {
			for _, s := range sessions {
				s.Stop()
			}
			caller.Hangup(c)
		})
	}
	r.sched.Run(5 * time.Minute)

	if callerPT != 97 || calleePT != 97 {
		t.Fatalf("negotiated PTs: caller %d callee %d, want 97/97", callerPT, calleePT)
	}
	c := r.server.CountersSnapshot()
	if c.TranscodedCalls != 0 || c.TranscodedPkts != 0 {
		t.Errorf("passthrough call charged transcoding: calls=%d pkts=%d",
			c.TranscodedCalls, c.TranscodedPkts)
	}
	if r.server.TranscodeLoad() != 0 {
		t.Errorf("transcode load = %v on passthrough", r.server.TranscodeLoad())
	}
	// The dynamic-PT stream must be observed, not skipped as
	// telephone-events: the CDR carries its statistics and a real score.
	cdr := r.cdrs()[0]
	if cdr.FromCaller.Received < 1400 || cdr.FromCallee.Received < 1400 {
		t.Errorf("iLBC stream not observed: %d / %d",
			cdr.FromCaller.Received, cdr.FromCallee.Received)
	}
	if cdr.MOS <= 0 {
		t.Errorf("iLBC CDR unscored: MOS = %v", cdr.MOS)
	}
}

// TestQualityFloorAdmission: with a MOS floor between G.729's and
// G.711's clean-path predictions, a G.729 caller is shed with 503
// while a G.711 caller is admitted at the same load.
func TestQualityFloorAdmission(t *testing.T) {
	clean := func(c mos.Codec) float64 {
		return mos.Score(c, mos.Metrics{OneWayDelay: predictMOSNominalDelay, BurstRatio: 1})
	}
	g729 := clean(codec.G729.MOS())
	g711 := clean(codec.G711U.MOS())
	if g729 >= g711 {
		t.Fatalf("precondition: G.729 prediction %v >= G.711 %v", g729, g711)
	}
	floor := (g729 + g711) / 2

	r := newCodecRig(t, Config{RelayRTP: true, Codecs: codec.AllPayloadTypes(),
		Admission: Admission{MOSFloor: floor}},
		[]int{18}, []int{0, 8}, []int{0, 8}, []int{0, 8})

	var g729Status int
	low := r.phones[0].Invite("u2")
	low.OnEnded = func(c *sip.Call) { g729Status = c.RejectStatus() }
	var established bool
	high := r.phones[1].Invite("u3")
	high.OnEstablished = func(c *sip.Call) {
		established = true
		r.clock.AfterFunc(10*time.Second, func() { r.phones[1].Hangup(c) })
	}
	r.sched.Run(2 * time.Minute)

	if g729Status != sip.StatusServiceUnavailable {
		t.Errorf("G.729 caller status = %d, want 503", g729Status)
	}
	if !established {
		t.Error("G.711 caller not admitted under the same floor")
	}
	c := r.server.CountersSnapshot()
	if c.QualityRejected != 1 {
		t.Errorf("quality rejections = %d, want 1 (counters %+v)", c.QualityRejected, c)
	}
	if c.Blocked != 1 || c.Completed != 1 {
		t.Errorf("blocked=%d completed=%d, want 1/1", c.Blocked, c.Completed)
	}
}

// TestCodecRejectionBeforeAdmission: an offer sharing nothing with a
// G.711-only PBX is refused with 488 before any channel is charged.
func TestCodecRejectionBeforeAdmission(t *testing.T) {
	r := newCodecRig(t, Config{RelayRTP: true}, // default PBX codecs: G.711 only
		[]int{18, 97}, []int{0, 8})
	var status int
	call := r.phones[0].Invite("u1")
	call.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	r.sched.Run(30 * time.Second)

	if status != sip.StatusNotAcceptableHere {
		t.Errorf("status = %d, want 488", status)
	}
	c := r.server.CountersSnapshot()
	if c.CodecRejected != 1 {
		t.Errorf("codec rejections = %d, want 1", c.CodecRejected)
	}
	if c.Blocked != 0 || c.PeakChannels != 0 {
		t.Errorf("488 charged admission: blocked=%d peak=%d", c.Blocked, c.PeakChannels)
	}
}
