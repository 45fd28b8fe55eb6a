package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rtp"
	"repro/internal/sip"
)

func sipWire(kind string) []byte {
	from := sip.NameAddr{URI: sip.NewURI("a", "h", 5060), Tag: "t1"}
	to := sip.NameAddr{URI: sip.NewURI("b", "h", 5060)}
	if code := map[string]int{"100": 100, "180": 180, "200": 200}[kind]; code != 0 {
		req := sip.NewRequest(sip.INVITE, to.URI, from, to, "c1", 1)
		req.Via = []sip.Via{{SentBy: "h:5060", Branch: "z9hG4bK1"}}
		return req.Response(code).Marshal()
	}
	req := sip.NewRequest(sip.Method(kind), to.URI, from, to, "c1", 1)
	req.Via = []sip.Via{{SentBy: "h:5060", Branch: "z9hG4bK1"}}
	return req.Marshal()
}

func rtpWire(seq uint16) []byte {
	p := rtp.Packet{Sequence: seq, SSRC: 9, Payload: make([]byte, 160)}
	return p.Marshal(nil)
}

func traceWithOneCall() *FlowTrace {
	f := NewFlowTrace()
	seq := []struct {
		src, dst, kind string
	}{
		{"gen", "pbx", "INVITE"},
		{"pbx", "gen", "100"},
		{"pbx", "recv", "INVITE"},
		{"recv", "pbx", "180"},
		{"pbx", "gen", "180"},
		{"recv", "pbx", "200"},
		{"pbx", "recv", "ACK"},
		{"pbx", "gen", "200"},
		{"gen", "pbx", "ACK"},
		{"gen", "pbx", "BYE"},
		{"pbx", "gen", "200"},
		{"pbx", "recv", "BYE"},
		{"recv", "pbx", "200"},
	}
	now := time.Duration(0)
	for _, s := range seq {
		f.Observe(now, s.src, s.dst, sipWire(s.kind))
		now += 2 * time.Millisecond
	}
	return f
}

func TestFlowTraceRecordsThirteenMessages(t *testing.T) {
	f := traceWithOneCall()
	if len(f.Events()) != 13 {
		t.Fatalf("events = %d, want 13", len(f.Events()))
	}
	hosts := f.Hosts()
	if len(hosts) != 3 || hosts[0] != "gen" || hosts[1] != "pbx" || hosts[2] != "recv" {
		t.Errorf("hosts = %v", hosts)
	}
}

func TestFlowTraceIgnoresNonSIP(t *testing.T) {
	f := NewFlowTrace()
	f.Observe(0, "a", "b", rtpWire(1))
	f.Observe(0, "a", "b", []byte("junk"))
	if len(f.Events()) != 0 {
		t.Errorf("non-SIP recorded: %d", len(f.Events()))
	}
}

func TestFlowTraceCap(t *testing.T) {
	f := &FlowTrace{MaxEvents: 3}
	for i := 0; i < 10; i++ {
		f.Observe(0, "a", "b", sipWire("INVITE"))
	}
	if len(f.Events()) != 3 {
		t.Errorf("cap ignored: %d", len(f.Events()))
	}
}

func TestFlowRender(t *testing.T) {
	f := traceWithOneCall()
	var sb strings.Builder
	f.Render(&sb, []string{"gen", "pbx", "recv"})
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 13 message rows.
	if len(lines) != 14 {
		t.Fatalf("rendered %d lines, want 14:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "gen") || !strings.Contains(lines[0], "pbx") {
		t.Errorf("header: %q", lines[0])
	}
	// First message flows rightward gen→pbx.
	if !strings.Contains(lines[1], "INVITE") || !strings.Contains(lines[1], ">") {
		t.Errorf("first row: %q", lines[1])
	}
	// Second flows leftward pbx→gen.
	if !strings.Contains(lines[2], "100 Trying") || !strings.Contains(lines[2], "<") {
		t.Errorf("second row: %q", lines[2])
	}
	// No doubled lifeline pipes anywhere.
	if strings.Contains(out, "||") {
		t.Errorf("doubled pipes in render:\n%s", out)
	}
}

func TestFlowRenderEmpty(t *testing.T) {
	var sb strings.Builder
	NewFlowTrace().Render(&sb, nil)
	if !strings.Contains(sb.String(), "no SIP messages") {
		t.Errorf("empty render: %q", sb.String())
	}
}

func TestFlowSummary(t *testing.T) {
	f := traceWithOneCall()
	s := f.Summary()
	for _, want := range []string{"INVITE x2", "ACK x2", "BYE x2", "200 OK x4", "180 Ringing x2", "100 Trying x1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
