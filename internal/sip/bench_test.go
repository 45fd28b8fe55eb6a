package sip

import (
	"fmt"
	"testing"
)

// benchInvite is a representative INVITE as the generator emits it.
var benchInvite = func() []byte {
	req := NewRequest(INVITE, NewURI("uas", "pbx", 5060),
		NameAddr{URI: NewURI("uac", "sippc", 5060), Tag: "t17-sippc:5060"},
		NameAddr{URI: NewURI("uas", "pbx", 5060)},
		"c42@sippc:5060", 1)
	req.Via = []Via{{Transport: "UDP", SentBy: "sippc:5060", Branch: BranchPrefix + "-sippc:5060-42"}}
	req.Contact = &NameAddr{URI: NewURI("uac", "sippc", 20000)}
	req.ContentType = "application/sdp"
	req.Body = []byte("v=0\r\no=uac 1 1 IN IP4 sippc\r\ns=-\r\nc=IN IP4 sippc\r\nt=0 0\r\nm=audio 20000 RTP/AVP 0\r\n")
	return req.Marshal()
}()

// messageRoundTrip is the endpoint hot path: parse a wire message and
// marshal a message out again.
func messageRoundTrip(tb testing.TB) func() {
	var buf []byte
	return func() {
		msg, err := Parse(benchInvite)
		if err != nil {
			tb.Fatal(err)
		}
		buf = msg.Append(buf[:0])
	}
}

func BenchmarkMessageRoundTrip(b *testing.B) {
	b.ReportAllocs()
	op := messageRoundTrip(b)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestMessageRoundTripAllocs pins the round trip at what Parse costs
// today — the message text, the Message, its Via slice, the Contact and
// the body — and Append at nothing.
func TestMessageRoundTripAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, messageRoundTrip(t)); n != 5 {
		t.Errorf("parse + marshal of an INVITE: %v allocs, want 5", n)
	}
}

// BenchmarkEndpointAck2xx times the endpoint's handling of one 2xx ACK
// (parse, match to its INVITE server transaction, start the linger)
// with lingering answered transactions already in the table. The match
// is an index lookup, so ns/op must not grow with the table.
func BenchmarkEndpointAck2xx(b *testing.B) {
	for _, lingering := range []int{0, 16384} {
		b.Run(fmt.Sprintf("lingering=%d", lingering), func(b *testing.B) {
			r := newUASRig()
			r.linger(lingering)
			acks := make([][]byte, b.N)
			for i := range acks {
				id := fmt.Sprintf("call-%d", i)
				r.ep.handleData("a:5060", wireRequest(INVITE, id, "inv-"+id))
				acks[i] = wireRequest(ACK, id, "ack-"+id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, ack := range acks {
				r.ep.handleData("a:5060", ack)
			}
			b.StopTimer()
			if got := r.ep.UnackedInvites(); got != 0 {
				b.Fatalf("%d INVITEs left un-ACKed", got)
			}
		})
	}
}
