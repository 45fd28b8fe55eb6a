package pbx

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sip"
	"repro/internal/transport"
)

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, ext string
		want         bool
	}{
		{"1000", "1000", true},
		{"1000", "1001", false},
		{"_XXXX", "1234", true},
		{"_XXXX", "123", false},
		{"_XXXX", "12345", false},
		{"_XXXX", "12a4", false},
		{"_NXX", "212", true},
		{"_NXX", "112", false}, // N is 2-9
		{"_ZXX", "112", true},  // Z is 1-9
		{"_ZXX", "012", false},
		{"_85XXXXXX", "85123456", true},
		{"_85XXXXXX", "86123456", false},
		{"_9.", "9123", true},
		{"_9.", "9", false}, // '.' needs at least one char
		{"_9.", "91", true},
		{"_.", "anything", true},
		{"_1X.", "1", false},
	}
	for _, c := range cases {
		if got := MatchPattern(c.pattern, c.ext); got != c.want {
			t.Errorf("MatchPattern(%q, %q) = %v, want %v", c.pattern, c.ext, got, c.want)
		}
	}
}

func TestMatchPatternLiteralProperty(t *testing.T) {
	// Property: a literal pattern matches exactly itself.
	f := func(raw uint32) bool {
		ext := "9" + string(rune('0'+raw%10)) + string(rune('0'+(raw/10)%10))
		return MatchPattern(ext, ext) && !MatchPattern(ext, ext+"0")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDialplanResolve(t *testing.T) {
	dp := &Dialplan{Rules: []Rule{
		{Pattern: "_0.", Kind: RouteReject, Status: sip.StatusTemporarilyDenied},
		{Pattern: "_9XXXXXXXX", Kind: RouteTrunk, Trunk: "exchange:5060", StripDigits: 1},
		{Pattern: "_85XXXXXX", Kind: RouteTrunk, Trunk: "exchange:5060"},
		{Pattern: "_1XXX", Kind: RouteUser},
	}}
	// Trunk with prefix strip.
	r, ok := dp.Resolve("961234567")
	if !ok || r.Kind != RouteTrunk || r.Target != "61234567" || r.Trunk != "exchange:5060" {
		t.Errorf("dial-out: %+v ok=%v", r, ok)
	}
	// Trunk without strip.
	r, ok = dp.Resolve("85123456")
	if !ok || r.Kind != RouteTrunk || r.Target != "85123456" {
		t.Errorf("landline: %+v ok=%v", r, ok)
	}
	// Reject rule.
	r, ok = dp.Resolve("0800")
	if !ok || r.Kind != RouteReject || r.Status != sip.StatusTemporarilyDenied {
		t.Errorf("reject: %+v ok=%v", r, ok)
	}
	// User rule.
	r, ok = dp.Resolve("1042")
	if !ok || r.Kind != RouteUser || r.Target != "1042" {
		t.Errorf("user: %+v ok=%v", r, ok)
	}
	// No match falls through.
	if _, ok := dp.Resolve("alice"); ok {
		t.Error("non-matching extension resolved")
	}
	// Nil dialplan never matches.
	var nilDP *Dialplan
	if _, ok := nilDP.Resolve("1000"); ok {
		t.Error("nil dialplan matched")
	}
	// First match wins: add an overlapping earlier rule.
	dp2 := &Dialplan{Rules: []Rule{
		{Pattern: "_9.", Kind: RouteReject},
		{Pattern: "_9XXXXXXXX", Kind: RouteTrunk, Trunk: "x:1"},
	}}
	if r, _ := dp2.Resolve("912345678"); r.Kind != RouteReject {
		t.Errorf("rule order not respected: %+v", r)
	}
}

func TestDialplanRejectDefaultStatus(t *testing.T) {
	dp := &Dialplan{Rules: []Rule{{Pattern: "_0.", Kind: RouteReject}}}
	r, _ := dp.Resolve("0800")
	if r.Status != 403 {
		t.Errorf("default reject status = %d", r.Status)
	}
}

// TestTrunkCallReachesExchange reproduces Fig. 1's landline path: a
// VoWiFi phone dials a campus landline number, the PBX routes it to
// the telephone-exchange gateway, and the call completes end to end.
func TestTrunkCallReachesExchange(t *testing.T) {
	r := newRig(t, 1, Config{
		Journal: NewCDRJournal(),
		Dialplan: &Dialplan{Rules: []Rule{
			{Pattern: "_85XXXXXX", Kind: RouteTrunk, Trunk: "exchange:5060"},
		}},
	})
	// The telephone exchange: a gateway UA that answers any extension.
	exchange := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, "exchange:5060"), r.clock),
		sip.PhoneConfig{User: "pstn", Proxy: "pbx:5060", MediaPort: 7000})
	var dialed string
	exchange.OnIncoming = func(c *sip.Call) { dialed = "85123456" }

	call := r.phones[0].Invite("85123456")
	var established bool
	call.OnEstablished = func(c *sip.Call) {
		established = true
		r.clock.AfterFunc(10*time.Second, func() { r.phones[0].Hangup(c) })
	}
	r.sched.Run(r.sched.Now() + 2*time.Minute)

	if !established {
		t.Fatal("trunk call never established")
	}
	if dialed == "" {
		t.Fatal("exchange never rang")
	}
	c := r.server.CountersSnapshot()
	if c.TrunkCalls != 1 || c.Completed != 1 {
		t.Errorf("counters: %+v", c)
	}
	cdr := r.cdrs()[0]
	if cdr.Callee != "85123456" || cdr.Disposition != Answered {
		t.Errorf("CDR: %+v", cdr)
	}
}

func TestDialplanRejectRule(t *testing.T) {
	r := newRig(t, 1, Config{
		Dialplan: &Dialplan{Rules: []Rule{
			{Pattern: "_0.", Kind: RouteReject, Status: sip.StatusTemporarilyDenied},
		}},
	})
	call := r.phones[0].Invite("0800555")
	var status int
	call.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	r.sched.Run(r.sched.Now() + 30*time.Second)
	if status != sip.StatusTemporarilyDenied {
		t.Errorf("status = %d, want 403", status)
	}
	if r.server.ActiveChannels() != 0 {
		t.Error("rejected dialplan call leaked a channel")
	}
}

func TestTrunkCallsCountAgainstCapacity(t *testing.T) {
	r := newRig(t, 2, Config{
		MaxChannels: 1,
		Dialplan: &Dialplan{Rules: []Rule{
			{Pattern: "_85XXXXXX", Kind: RouteTrunk, Trunk: "exchange:5060"},
		}},
	})
	exchange := sip.NewPhone(
		sip.NewEndpoint(transport.NewSim(r.net, "exchange:5060"), r.clock),
		sip.PhoneConfig{User: "pstn", Proxy: "pbx:5060", MediaPort: 7000})
	_ = exchange

	first := r.phones[0].Invite("85123456")
	first.OnEstablished = func(c *sip.Call) {
		r.clock.AfterFunc(time.Minute, func() { r.phones[0].Hangup(c) })
	}
	var status int
	r.clock.AfterFunc(5*time.Second, func() {
		second := r.phones[1].Invite("u0")
		second.OnEnded = func(c *sip.Call) { status = c.RejectStatus() }
	})
	r.sched.Run(r.sched.Now() + 3*time.Minute)
	if status != sip.StatusServiceUnavailable {
		t.Errorf("second call status = %d, want 503 (trunk call holds a channel)", status)
	}
}
