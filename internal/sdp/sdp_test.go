package sdp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	in := NewG711Session("alice", "10.0.0.5", 4000)
	out, err := Parse(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Host != "10.0.0.5" || out.Port != 4000 {
		t.Errorf("round trip: %+v", out)
	}
	if len(out.PayloadTypes) != 2 || out.PayloadTypes[0] != 0 || out.PayloadTypes[1] != 8 {
		t.Errorf("payload types: %v", out.PayloadTypes)
	}
	if out.Origin != "alice" {
		t.Errorf("origin: %q", out.Origin)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(portRaw uint16, hostOctet uint8) bool {
		port := int(portRaw)%60000 + 1024
		host := "192.168.1." + string(rune('0'+hostOctet%10))
		in := NewG711Session("u", host, port)
		out, err := Parse(in.Marshal())
		return err == nil && out.Host == host && out.Port == port
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("this is not sdp")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Parse([]byte("v=0\r\nc=IN IP4 1.2.3.4\r\n")); err != ErrNoMedia {
		t.Errorf("missing media: %v", err)
	}
	if _, err := Parse([]byte("v=0\r\nm=audio 4000 RTP/AVP 0\r\n")); err != ErrNoConnection {
		t.Errorf("missing connection: %v", err)
	}
	if _, err := Parse([]byte("v=0\r\nc=IN IP6 ::1\r\nm=audio 4000 RTP/AVP 0\r\n")); err == nil {
		t.Error("IP6 connection accepted by IP4-only parser")
	}
	if _, err := Parse([]byte("v=0\r\nc=IN IP4 1.2.3.4\r\nm=audio 99999 RTP/AVP 0\r\n")); err == nil {
		t.Error("out-of-range port accepted")
	}
	if _, err := Parse([]byte("v=0\r\nc=IN IP4 1.2.3.4\r\nm=audio 4000 RTP/AVP zero\r\n")); err == nil {
		t.Error("non-numeric payload type accepted")
	}
}

func TestParseSkipsUnknownLinesAndVideo(t *testing.T) {
	body := []byte("v=0\r\n" +
		"o=bob 3 3 IN IP4 5.6.7.8\r\n" +
		"s=session\r\n" +
		"i=an information line\r\n" +
		"c=IN IP4 5.6.7.8\r\n" +
		"b=AS:64\r\n" +
		"t=0 0\r\n" +
		"m=video 6000 RTP/AVP 96\r\n" +
		"m=audio 4002 RTP/AVP 8 0\r\n" +
		"a=sendrecv\r\n")
	s, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if s.Port != 4002 {
		t.Errorf("port = %d, want audio port 4002", s.Port)
	}
	if len(s.PayloadTypes) != 2 || s.PayloadTypes[0] != 8 {
		t.Errorf("payload types = %v", s.PayloadTypes)
	}
}

func TestOriginHostFallback(t *testing.T) {
	// Host can come from o= when c= is absent at session level... our
	// parser takes o= address as a fallback only.
	body := []byte("v=0\r\no=u 1 1 IN IP4 9.9.9.9\r\nm=audio 4000 RTP/AVP 0\r\n")
	s, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if s.Host != "9.9.9.9" {
		t.Errorf("host = %q", s.Host)
	}
}

func TestAnswerSelectsSharedCodec(t *testing.T) {
	offer := NewG711Session("alice", "10.0.0.5", 4000)
	ans, err := offer.Answer("bob", "10.0.0.9", 4242, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.PayloadTypes) != 1 || ans.PayloadTypes[0] != 8 {
		t.Errorf("answer codecs = %v", ans.PayloadTypes)
	}
	if ans.Host != "10.0.0.9" || ans.Port != 4242 {
		t.Errorf("answer addr = %s:%d", ans.Host, ans.Port)
	}
	if ans.Version != offer.Version+1 {
		t.Errorf("version not bumped: %d", ans.Version)
	}
}

func TestAnswerPrefersOffererOrder(t *testing.T) {
	offer := NewG711Session("alice", "h", 1) // offers 0 then 8
	ans, err := offer.Answer("bob", "h2", 2, []int{8, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ans.PayloadTypes[0] != 0 {
		t.Errorf("answer should honor offerer preference, got %v", ans.PayloadTypes)
	}
}

func TestAnswerNoSharedCodec(t *testing.T) {
	offer := NewG711Session("alice", "h", 1)
	if _, err := offer.Answer("bob", "h2", 2, []int{96}); err == nil {
		t.Error("expected no-codec-in-common error")
	}
}

func TestMarshalContainsRtpmap(t *testing.T) {
	body := NewG711Session("a", "h", 4000).Marshal()
	if !bytes.Contains(body, []byte("a=rtpmap:0 PCMU/8000")) {
		t.Error("missing PCMU rtpmap")
	}
	if !bytes.Contains(body, []byte("a=rtpmap:8 PCMA/8000")) {
		t.Error("missing PCMA rtpmap")
	}
	if !bytes.Contains(body, []byte("m=audio 4000 RTP/AVP 0 8\r\n")) {
		t.Error("malformed media line")
	}
}

func TestSDPParserNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Parse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// fmtMarshal is Marshal as it was written with fmt, kept as the
// reference the append-based one must match byte for byte.
func fmtMarshal(s *Session) []byte {
	var b strings.Builder
	origin := s.Origin
	if origin == "" {
		origin = "-"
	}
	fmt.Fprintf(&b, "v=0\r\n")
	fmt.Fprintf(&b, "o=%s %d %d IN IP4 %s\r\n", origin, s.SessionID, s.Version, s.Host)
	fmt.Fprintf(&b, "s=call\r\n")
	fmt.Fprintf(&b, "c=IN IP4 %s\r\n", s.Host)
	fmt.Fprintf(&b, "t=0 0\r\n")
	fmt.Fprintf(&b, "m=audio %d RTP/AVP", s.Port)
	for _, pt := range s.PayloadTypes {
		fmt.Fprintf(&b, " %d", pt)
	}
	b.WriteString("\r\n")
	for _, pt := range s.PayloadTypes {
		if name, ok := s.PayloadName(pt); ok {
			fmt.Fprintf(&b, "a=rtpmap:%d %s\r\n", pt, name)
		}
	}
	if s.Ptime > 0 {
		fmt.Fprintf(&b, "a=ptime:%d\r\n", s.Ptime)
	}
	return []byte(b.String())
}

func TestMarshalMatchesFmtReference(t *testing.T) {
	long := strings.Repeat("h", 300)
	for name, s := range map[string]*Session{
		"g711 offer":     NewG711Session("alice", "10.0.0.5", 4000),
		"empty origin":   NewSessionWith("", "pbx", 10002, []int{0}),
		"every codec":    NewSessionWith("u", "127.0.0.1", 65535, []int{0, 3, 8, 9, 18, 97}),
		"unknown pt":     NewSessionWith("u", "h", 1, []int{0, 96, 127}),
		"no codecs":      NewSessionWith("u", "h", 0, nil),
		"parsed rtpmap":  {Origin: "o", SessionID: 7, Version: 8, Host: "h", Port: 9, PayloadTypes: []int{96, 0}, Rtpmap: map[int]string{96: "opus/48000/2", 0: "pcmu/8000"}},
		"ptime":          {Origin: "o", SessionID: 1, Version: 2, Host: "h", Port: 9, PayloadTypes: []int{18}, Ptime: 30},
		"negative ids":   {Origin: "o", SessionID: -1 << 63, Version: -5, Host: "h", Port: -1, PayloadTypes: []int{-3}, Ptime: -1},
		"past the guess": {Origin: long, SessionID: 1<<63 - 1, Version: 1<<63 - 1, Host: long, Port: 4000, PayloadTypes: []int{0, 8}},
	} {
		if got, want := s.Marshal(), fmtMarshal(s); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

func TestMarshalAllocatesOnce(t *testing.T) {
	s := NewG711Session("alice", "10.0.0.5", 4000)
	if n := testing.AllocsPerRun(100, func() { s.Marshal() }); n != 1 {
		t.Errorf("Marshal of a two-codec offer: %v allocs, want 1", n)
	}
}
