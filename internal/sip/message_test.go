package sip

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseURI(t *testing.T) {
	cases := []struct {
		in   string
		user string
		host string
		port int
	}{
		{"sip:alice@pbx.unb.br", "alice", "pbx.unb.br", 0},
		{"sip:alice@10.0.0.1:5060", "alice", "10.0.0.1", 5060},
		{"sip:10.0.0.1:5080", "", "10.0.0.1", 5080},
		{"sip:bob@h;transport=udp", "bob", "h", 0},
	}
	for _, c := range cases {
		u, err := ParseURI(c.in)
		if err != nil {
			t.Errorf("ParseURI(%q): %v", c.in, err)
			continue
		}
		if u.User != c.user || u.Host != c.host || u.Port != c.port {
			t.Errorf("ParseURI(%q) = %+v", c.in, u)
		}
	}
}

func TestParseURIErrors(t *testing.T) {
	for _, in := range []string{"", "http://x", "sip:", "sip:@", "sip:u@h:notaport", "sip:u@h:0", "sip:u@h:70000"} {
		if _, err := ParseURI(in); err == nil {
			t.Errorf("ParseURI(%q) accepted", in)
		}
	}
}

func TestURIRoundTrip(t *testing.T) {
	f := func(userRaw, hostRaw uint8, port uint16) bool {
		user := "u" + string(rune('a'+userRaw%26))
		host := "h" + string(rune('a'+hostRaw%26)) + ".example"
		p := int(port)%65535 + 1
		u := NewURI(user, host, p)
		back, err := ParseURI(u.String())
		return err == nil && back.User == user && back.Host == host && back.Port == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestURIParamsRoundTrip(t *testing.T) {
	u := URI{User: "a", Host: "h", Params: map[string]string{"transport": "udp", "lr": ""}}
	back, err := ParseURI(u.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Params["transport"] != "udp" {
		t.Errorf("params = %v", back.Params)
	}
	if _, ok := back.Params["lr"]; !ok {
		t.Errorf("flag param lost: %v", back.Params)
	}
}

func TestNameAddrRoundTrip(t *testing.T) {
	n := NameAddr{Display: "Alice Liddell", URI: NewURI("alice", "unb.br", 5060), Tag: "abc123"}
	back, err := ParseNameAddr(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Display != n.Display || back.Tag != n.Tag || back.URI.User != "alice" {
		t.Errorf("round trip = %+v", back)
	}
}

func TestParseNameAddrForms(t *testing.T) {
	// Bare URI with tag.
	n, err := ParseNameAddr("sip:bob@h;tag=xyz")
	if err != nil || n.URI.User != "bob" || n.Tag != "xyz" {
		t.Errorf("bare form: %+v, %v", n, err)
	}
	// Bracketed without display.
	n, err = ParseNameAddr("<sip:bob@h:5070>;tag=q")
	if err != nil || n.URI.Port != 5070 || n.Tag != "q" {
		t.Errorf("bracketed: %+v, %v", n, err)
	}
}

func buildInvite() *Message {
	from := NameAddr{URI: NewURI("alice", "10.0.0.2", 5060), Tag: "ft"}
	to := NameAddr{URI: NewURI("bob", "pbx", 5060)}
	req := NewRequest(INVITE, NewURI("bob", "pbx", 5060), from, to, "call-1@10.0.0.2", 1)
	req.Via = []Via{{Transport: "UDP", SentBy: "10.0.0.2:5060", Branch: BranchPrefix + "-test-1"}}
	contact := NameAddr{URI: NewURI("alice", "10.0.0.2", 5060)}
	req.Contact = &contact
	req.ContentType = "application/sdp"
	req.Body = []byte("v=0\r\nc=IN IP4 10.0.0.2\r\nm=audio 4000 RTP/AVP 0\r\n")
	return req
}

func TestMessageRoundTrip(t *testing.T) {
	req := buildInvite()
	wire := req.Marshal()
	back, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsRequest() || back.Method != INVITE {
		t.Fatalf("start line: %+v", back)
	}
	if back.RequestURI.User != "bob" || back.From.Tag != "ft" || back.CallID != req.CallID {
		t.Errorf("headers: %+v", back)
	}
	if back.CSeq.Seq != 1 || back.CSeq.Method != INVITE {
		t.Errorf("cseq: %+v", back.CSeq)
	}
	if len(back.Via) != 1 || back.Via[0].Branch != BranchPrefix+"-test-1" {
		t.Errorf("via: %+v", back.Via)
	}
	if back.Contact == nil || back.Contact.URI.User != "alice" {
		t.Errorf("contact: %+v", back.Contact)
	}
	if !bytes.Equal(back.Body, req.Body) {
		t.Errorf("body: %q", back.Body)
	}
	if back.MaxForwards != 70 {
		t.Errorf("max-forwards: %d", back.MaxForwards)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	req := buildInvite()
	resp := req.Response(StatusRinging)
	resp.To.Tag = "remote-tag"
	wire := resp.Marshal()
	back, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsResponse() || back.StatusCode != 180 || back.Reason() != "Ringing" {
		t.Errorf("response: %+v", back)
	}
	if back.To.Tag != "remote-tag" || back.From.Tag != "ft" {
		t.Errorf("tags: to=%q from=%q", back.To.Tag, back.From.Tag)
	}
	if back.Via[0].Branch != req.Via[0].Branch {
		t.Errorf("via not copied")
	}
	if back.CSeq != req.CSeq {
		t.Errorf("cseq: %+v", back.CSeq)
	}
}

func TestParsePreservesUnknownHeaders(t *testing.T) {
	wire := "OPTIONS sip:h SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP a:5060;branch=z9hG4bK1\r\n" +
		"From: <sip:a@h>;tag=1\r\n" +
		"To: <sip:b@h>\r\n" +
		"Call-ID: x\r\n" +
		"CSeq: 1 OPTIONS\r\n" +
		"X-Custom: hello world\r\n" +
		"Content-Length: 0\r\n\r\n"
	m, err := Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range m.Other {
		if h.Name == "X-Custom" && h.Value == "hello world" {
			found = true
		}
	}
	if !found {
		t.Errorf("unknown header lost: %+v", m.Other)
	}
	// And it survives re-marshalling.
	if !strings.Contains(string(m.Marshal()), "X-Custom: hello world\r\n") {
		t.Error("unknown header not re-emitted")
	}
}

func TestParseCompactHeaderNames(t *testing.T) {
	wire := "BYE sip:h SIP/2.0\r\n" +
		"v: SIP/2.0/UDP a:5060;branch=z9hG4bK9\r\n" +
		"f: <sip:a@h>;tag=1\r\n" +
		"t: <sip:b@h>;tag=2\r\n" +
		"i: compact-call\r\n" +
		"CSeq: 2 BYE\r\n" +
		"l: 0\r\n\r\n"
	m, err := Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	if m.CallID != "compact-call" || m.From.Tag != "1" || m.To.Tag != "2" || len(m.Via) != 1 {
		t.Errorf("compact parse: %+v", m)
	}
}

func TestParseErrorsMessage(t *testing.T) {
	cases := []string{
		"",
		"garbage\r\n\r\n",
		"SIP/2.0 abc Huh\r\nCall-ID: x\r\nCSeq: 1 X\r\n\r\n",
		"INVITE sip:h\r\n\r\n",                                           // bad start line
		"INVITE sip:h SIP/2.0\r\nCSeq: 1 INVITE\r\n\r\n",                 // missing Call-ID
		"INVITE sip:h SIP/2.0\r\nCall-ID: x\r\n\r\n",                     // missing CSeq
		"INVITE sip:h SIP/2.0\r\nCall-ID: x\r\nCSeq: one INVITE\r\n\r\n", // bad CSeq
		"INVITE sip:h SIP/2.0\r\nVia: nonsense\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\n\r\n",
		"INVITE sip:h SIP/2.0\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\nContent-Length: 99\r\n\r\nshort",
	}
	for _, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestContentLengthTruncatesBody(t *testing.T) {
	wire := "INVITE sip:h SIP/2.0\r\nFrom: <sip:a@h>;tag=1\r\nTo: <sip:b@h>\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\nContent-Length: 4\r\n\r\nbodyEXTRA"
	m, err := Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Body) != "body" {
		t.Errorf("body = %q", m.Body)
	}
}

func TestLooksLikeSIP(t *testing.T) {
	if !LooksLikeSIP(buildInvite().Marshal()) {
		t.Error("INVITE not recognized")
	}
	if !LooksLikeSIP([]byte("SIP/2.0 200 OK\r\n\r\n")) {
		t.Error("response not recognized")
	}
	rtpLike := make([]byte, 172)
	rtpLike[0] = 0x80
	if LooksLikeSIP(rtpLike) {
		t.Error("RTP misclassified as SIP")
	}
	if LooksLikeSIP([]byte("short")) {
		t.Error("short buffer misclassified")
	}
	if LooksLikeSIP([]byte("GET / HTTP/1.1\r\n\r\n")) {
		t.Error("HTTP misclassified")
	}
}

func TestTransactionKey(t *testing.T) {
	req := buildInvite()
	resp := req.Response(StatusOK)
	if req.key() != resp.key() {
		t.Error("request and its response have different keys")
	}
	// ACK and CANCEL are their own transactions, but their inviteKey
	// locates the INVITE they refer to.
	ack := NewRequest(ACK, req.RequestURI, req.From, req.To, req.CallID, req.CSeq.Seq)
	ack.Via = []Via{req.Via[0]}
	if ack.key() == req.key() {
		t.Error("ACK transaction key should differ from INVITE's")
	}
	if ack.inviteKey() != req.key() {
		t.Error("ACK inviteKey does not locate the INVITE")
	}
	cancel := NewRequest(CANCEL, req.RequestURI, req.From, req.To, req.CallID, req.CSeq.Seq)
	cancel.Via = []Via{req.Via[0]}
	if cancel.inviteKey() != req.key() {
		t.Error("CANCEL inviteKey does not locate the INVITE")
	}
	// BYE with its own branch must not match.
	bye := NewRequest(BYE, req.RequestURI, req.From, req.To, req.CallID, 2)
	bye.Via = []Via{{SentBy: "a", Branch: "z9hG4bK-other"}}
	if bye.key() == req.key() {
		t.Error("BYE collides with INVITE key")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(seq uint32, status uint8, bodyLen uint8) bool {
		code := 100 + int(status)%500
		req := buildInvite()
		req.CSeq.Seq = seq
		resp := req.Response(code)
		resp.Body = bytes.Repeat([]byte("x"), int(bodyLen))
		resp.ContentType = "text/plain"
		back, err := Parse(resp.Marshal())
		if err != nil {
			return false
		}
		return back.StatusCode == code && back.CSeq.Seq == seq && len(back.Body) == int(bodyLen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMessageMarshal(b *testing.B) {
	req := buildInvite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = req.Marshal()
	}
}

func BenchmarkMessageParse(b *testing.B) {
	wire := buildInvite().Marshal()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRetryAfterRoundTrip(t *testing.T) {
	req := buildInvite()
	resp := req.Response(StatusServiceUnavailable)
	resp.RetryAfter = 7
	back, err := Parse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.RetryAfter != 7 {
		t.Errorf("RetryAfter = %d, want 7", back.RetryAfter)
	}
	// Zero means absent: the header must not appear on the wire.
	resp.RetryAfter = 0
	if bytes.Contains(resp.Marshal(), []byte("Retry-After")) {
		t.Error("Retry-After emitted for zero value")
	}
}

func TestRetryAfterParsing(t *testing.T) {
	frame := func(value string) []byte {
		return []byte("SIP/2.0 503 Service Unavailable\r\n" +
			"Via: SIP/2.0/UDP h:5060;branch=z9hG4bK1\r\n" +
			"From: <sip:a@h>;tag=1\r\nTo: <sip:b@h>\r\n" +
			"Call-ID: c1\r\nCSeq: 1 INVITE\r\n" +
			"Retry-After: " + value + "\r\n" +
			"Content-Length: 0\r\n\r\n")
	}
	valid := map[string]int{
		"30":                         30,
		"0":                          0,
		"120 (maintenance)":          120,
		"5;duration=3600":            5,
		"18000;duration=3600 (down)": 18000,
	}
	for value, want := range valid {
		m, err := Parse(frame(value))
		if err != nil {
			t.Errorf("Retry-After %q rejected: %v", value, err)
			continue
		}
		if m.RetryAfter != want {
			t.Errorf("Retry-After %q = %d, want %d", value, m.RetryAfter, want)
		}
	}
	for _, value := range []string{"-1", "abc", "", "2x", "99999999999999999999"} {
		if _, err := Parse(frame(value)); err == nil {
			t.Errorf("malformed Retry-After %q accepted", value)
		}
	}
}
