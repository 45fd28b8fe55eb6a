package sip

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/stats"
)

// The parser sits directly on the network: arbitrary datagrams must
// never panic it, only return errors. These property tests drive it
// with hostile inputs — random bytes, mutated valid messages, and
// truncations.

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Parse(data) // must not panic
		_ = LooksLikeSIP(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestParseNeverPanicsOnMutatedMessages(t *testing.T) {
	base := buildInvite().Marshal()
	f := func(pos uint16, val byte) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = val
		_, _ = Parse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestParseNeverPanicsOnTruncations(t *testing.T) {
	base := buildInvite().Marshal()
	for i := 0; i <= len(base); i++ {
		_, _ = Parse(base[:i])
	}
}

func TestParseURIRobustness(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseURI(s)
		_, _ = ParseURI("sip:" + s)
		_, _ = ParseNameAddr(s)
		_, _ = ParseNameAddr("<sip:" + s + ">")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDigestParserRobustness(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseDigestChallenge(s)
		_, _ = ParseDigestChallenge("Digest " + s)
		_, _ = ParseDigestCredentials("Digest " + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestEndpointSurvivesGarbageFlood feeds an endpoint random datagrams
// mixed with valid traffic and checks it keeps serving.
func TestEndpointSurvivesGarbageFlood(t *testing.T) {
	sched, epA, epB := simPair(t, netsim.LinkProfile{})
	epB.Handle(func(tx *ServerTx, req *Message, src string) {
		tx.Respond(req.Response(StatusOK))
	})
	// Garbage barrage straight into the receive path.
	rng := uint64(12345)
	for i := 0; i < 2000; i++ {
		n := int(rng % 300)
		data := make([]byte, n)
		for j := range data {
			rng = rng*6364136223846793005 + 1442695040888963407
			data[j] = byte(rng >> 33)
		}
		epB.handleData("x:1", data)
	}
	// Valid request still served.
	var got *Message
	epA.SendRequest("b:5060", options("a", "b"), func(resp *Message) { got = resp })
	sched.Run(sched.Now() + 30e9)
	if got == nil || got.StatusCode != StatusOK {
		t.Fatalf("endpoint wedged after garbage flood: %+v", got)
	}
}

// sipParseSeeds is FuzzSIPParse's seed corpus: the historically
// dangerous shapes — malformed Retry-After values, folded
// (continuation-line) headers, and truncated INVITEs.
func sipParseSeeds() [][]byte {
	base := buildInvite().Marshal()
	resp := buildInvite().Response(StatusServiceUnavailable)
	resp.RetryAfter = 30
	// Truncated INVITEs: mid-header, mid-start-line, mid-body.
	seeds := [][]byte{base, resp.Marshal(), base[:len(base)/2], base[:9], base[:len(base)-10]}
	// Malformed Retry-After variants.
	frame := func(retryAfter string) []byte {
		return []byte("SIP/2.0 503 Service Unavailable\r\n" +
			"Via: SIP/2.0/UDP h:5060;branch=z9hG4bK1\r\n" +
			"From: <sip:a@h>;tag=1\r\nTo: <sip:b@h>\r\n" +
			"Call-ID: c1\r\nCSeq: 1 INVITE\r\n" +
			"Retry-After: " + retryAfter + "\r\n\r\n")
	}
	for _, v := range []string{"-1", "1e9", "2147483648", " 5 ;duration", "(now)", "5 5 5", "\x00"} {
		seeds = append(seeds, frame(v))
	}
	return append(seeds,
		// Folded headers (RFC 3261 permits them; this parser rejects
		// them, but must do so without panicking).
		[]byte("INVITE sip:b@h SIP/2.0\r\n"+
			"Via: SIP/2.0/UDP h:5060\r\n ;branch=z9hG4bK1\r\n"+
			"From: <sip:a@h>\r\n\t;tag=1\r\n"+
			"To: <sip:b@h>\r\nCall-ID: c1\r\nCSeq: 1 INVITE\r\n\r\n"),
		// CRLF pathologies.
		[]byte("INVITE sip:b@h SIP/2.0\r\n\r\n\r\n"),
		[]byte("SIP/2.0 \r\n\r\n"),
	)
}

// FuzzSIPParse is the native fuzz target (run a smoke pass with
// `go test -run=^$ -fuzz=FuzzSIPParse -fuzztime=10s ./internal/sip/`),
// seeded by sipParseSeeds and testdata/fuzz/FuzzSIPParse.
func FuzzSIPParse(f *testing.F) {
	for _, seed := range sipParseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		if m.RetryAfter < 0 {
			t.Fatalf("parser admitted negative Retry-After %d", m.RetryAfter)
		}
		// A successfully parsed message must re-marshal without panic,
		// and the result must parse again (marshal is a fixed point of
		// the accepted language).
		wire := m.Marshal()
		if _, err := Parse(wire); err != nil {
			t.Fatalf("re-parse of marshalled message failed: %v\n%q", err, wire)
		}
	})
}

// looksLikeSIPReference is LooksLikeSIP before its first-byte reject:
// the classification the fast path must reproduce exactly.
func looksLikeSIPReference(data []byte) bool {
	if len(data) < 12 {
		return false
	}
	if string(data[:8]) == "SIP/2.0 " {
		return true
	}
	sp := bytes.IndexByte(data[:min(len(data), 64)], ' ')
	if sp <= 0 {
		return false
	}
	switch string(data[:sp]) {
	case "INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS", "MESSAGE":
		return true
	}
	return false
}

// TestLooksLikeSIPMatchesReference checks the first-byte reject changes
// no answer: over the FuzzSIPParse corpus (seeds and testdata), RTP-shaped
// buffers of every valid first byte, method- and status-prefixed
// strings, and random ASCII.
func TestLooksLikeSIPMatchesReference(t *testing.T) {
	inputs := sipParseSeeds()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSIPParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inputs = append(inputs, []byte(data))
	}
	if len(files) == 0 {
		t.Fatal("no FuzzSIPParse corpus files")
	}

	rng := stats.NewRNG(0x51b)
	randomASCII := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(0x20 + rng.Intn(0x5f))
		}
		return b
	}
	for first := 0x80; first <= 0xbf; first++ {
		for _, n := range []int{11, 12, 20, 172} {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			b[0] = byte(first)
			inputs = append(inputs, b)
		}
	}
	prefixes := []string{"SIP/2.0 ", "SIP/2.0", "INVITE ", "ACK ", "BYE ", "CANCEL ", "REGISTER ",
		"OPTIONS ", "MESSAGE ", "INFO ", "invite ", "GET ", " INVITE ", "INVITEX "}
	for i := 0; i < 5000; i++ {
		tail := randomASCII(rng.Intn(80))
		inputs = append(inputs, append([]byte(prefixes[rng.Intn(len(prefixes))]), tail...))
		inputs = append(inputs, randomASCII(rng.Intn(80)))
	}

	hits := 0
	for _, in := range inputs {
		want := looksLikeSIPReference(in)
		if got := LooksLikeSIP(in); got != want {
			t.Fatalf("LooksLikeSIP(%q) = %v, reference %v", in, got, want)
		}
		if want {
			hits++
		}
	}
	if hits == 0 || hits == len(inputs) {
		t.Fatalf("%d of %d inputs classified SIP: the corpus exercises only one answer", hits, len(inputs))
	}
}
