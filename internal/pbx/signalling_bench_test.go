package pbx

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sip"
)

// The signalling layer end to end, in process: sip.Endpoint and
// pbx.Server over SimTransport, one operation per iteration, with the
// transactions earlier iterations left lingering reaped as the virtual
// clock moves. What these read that BenchmarkMessageRoundTrip cannot is
// the allocations of the transaction layer itself.

// registerRefresher sends one REGISTER refresh with pre-emptive
// credentials per call of refresh — a nonce-cache hit, a TTL move and a
// 200, in one round trip — from a bare socket, as hand-built wire bytes
// with a fresh branch patched in, so nothing but the server allocates.
type registerRefresher struct {
	rig    *fuzzRig
	wire   []byte
	branch []byte // the digits of the branch inside wire
	n, oks int
}

func newRegisterRefresher(tb testing.TB) *registerRefresher {
	tb.Helper()
	r := &registerRefresher{rig: newFuzzRig()}
	const hdr = "Contact: <sip:u0@fuzz:5060>\r\nExpires: 3600\r\n"
	r.rig.tr.Send("pbx:5060", fuzzRegister(hdr))
	r.rig.sched.Run(r.rig.sched.Now() + time.Second)
	if len(r.rig.resps) != 1 || r.rig.resps[0].StatusCode != sip.StatusUnauthorized {
		tb.Fatalf("first REGISTER: %v, want one 401", r.rig.resps)
	}
	ch, ok := sip.ParseDigestChallenge(r.rig.resps[0].WWWAuthenticate)
	if !ok {
		tb.Fatalf("challenge %q", r.rig.resps[0].WWWAuthenticate)
	}
	auth := ch.Answer("u0", "pw-u0", sip.REGISTER, "sip:pbx:5060").Header()
	r.wire = fuzzRegister(hdr + "Authorization: " + auth + "\r\n")
	const mark = "branch=z9hG4bKf1"
	r.wire = bytes.Replace(r.wire, []byte(mark), []byte("branch=z9hG4bK00000000"), 1)
	at := bytes.Index(r.wire, []byte("z9hG4bK00000000")) + len("z9hG4bK")
	r.branch = r.wire[at : at+8]
	r.rig.tr.SetReceiver(func(_ string, data []byte) {
		if bytes.HasPrefix(data, []byte("SIP/2.0 200 ")) {
			r.oks++
		}
	})
	return r
}

func (r *registerRefresher) refresh() {
	r.n++
	for i, v := len(r.branch)-1, r.n; i >= 0; i, v = i-1, v/10 {
		r.branch[i] = byte('0' + v%10)
	}
	r.rig.tr.Send("pbx:5060", r.wire)
	r.rig.sched.Run(r.rig.sched.Now() + 5*time.Millisecond)
}

func (r *registerRefresher) check(tb testing.TB) {
	tb.Helper()
	if r.oks != r.n {
		tb.Fatalf("%d of %d refreshes answered 200", r.oks, r.n)
	}
}

func BenchmarkEndpointRegister(b *testing.B) {
	r := newRegisterRefresher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.refresh()
	}
	b.StopTimer()
	r.check(b)
}

// callPlacer places one zero-hold call per call of place between two
// registered softphones through the PBX (relay off: signalling only) —
// the thirteen messages of the paper's Fig. 2 — and runs it to its end.
type callPlacer struct {
	rig             *rig
	placed, clean   int
	msgs0, retrans0 uint64
}

func newCallPlacer(tb testing.TB) *callPlacer {
	p := &callPlacer{rig: newRig(tb, 2, Config{})}
	p.msgs0, p.retrans0 = p.wire()
	return p
}

// wire sums the messages sent and the retransmissions over the three
// endpoints.
func (p *callPlacer) wire() (msgs, retrans uint64) {
	for _, st := range []sip.Stats{p.rig.server.ep.StatsSnapshot(),
		p.rig.phones[0].Endpoint().StatsSnapshot(), p.rig.phones[1].Endpoint().StatsSnapshot()} {
		for _, n := range st.Sent {
			msgs += n
		}
		retrans += st.Retransmissions
	}
	return msgs, retrans
}

func (p *callPlacer) place() {
	p.placed++
	caller := p.rig.phones[0]
	caller.InviteWithHandlers("u1", nil,
		func(c *sip.Call) { caller.Hangup(c) },
		func(c *sip.Call) {
			if c.Cause() == sip.EndCompleted {
				p.clean++
			}
		})
	p.rig.sched.Run(p.rig.sched.Now() + 50*time.Millisecond)
}

func (p *callPlacer) check(tb testing.TB) {
	tb.Helper()
	if p.clean != p.placed {
		tb.Fatalf("%d of %d calls completed", p.clean, p.placed)
	}
	msgs, retrans := p.wire()
	if got := msgs - p.msgs0; got != 13*uint64(p.placed) || retrans != p.retrans0 {
		tb.Fatalf("%d messages and %d retransmissions for %d calls, want 13 a call and none",
			got, retrans-p.retrans0, p.placed)
	}
}

func BenchmarkEndpointCall(b *testing.B) {
	p := newCallPlacer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.place()
	}
	b.StopTimer()
	p.check(b)
}

// TestSignallingAllocs pins what the two benchmarks above read: the
// mean over 2 000 operations, so that map growth and the lingering
// ring's doublings, which land on few of them, round away.
func TestSignallingAllocs(t *testing.T) {
	r := newRegisterRefresher(t)
	p := newCallPlacer(t)
	for _, c := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"REGISTER refresh", r.refresh, maxAllocsPerRegister},
		{"call", p.place, maxAllocsPerCall},
	} {
		got := testing.AllocsPerRun(2000, c.op)
		t.Logf("%s: %.1f allocs", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.1f allocs, pinned at ≤ %v", c.name, got, c.max)
		}
	}
	r.check(t)
	p.check(t)
}

// As measured; the parent of the commit that added this test read 23
// and 411.
const (
	maxAllocsPerRegister = 9
	maxAllocsPerCall     = 203
)

// TestServerKeepsNoCallHistory: a server with no journal attached — as
// pbxd runs — is as large after fifteen thousand calls as after ten
// thousand. Three equal batches, each run past the transactions'
// linger; the first warms the maps, the lingering ring, the recent-calls
// ring and most of the simulator's timing wheel, whose slots are what
// the slack is for (≈ 30 KB over the third batch). A record kept per
// call is a third of a kilobyte each: 1.5 MB.
func TestServerKeepsNoCallHistory(t *testing.T) {
	const (
		batch = 5000
		slack = 64 << 10
	)
	p := newCallPlacer(t)
	var heap [3]int64
	for i := range heap {
		for j := 0; j < batch; j++ {
			p.place()
		}
		p.rig.sched.Run(p.rig.sched.Now() + sip.CompletedLinger + time.Second)
		if n := p.rig.server.ActiveTransactions(); n != 0 {
			t.Fatalf("%d transactions outlived the linger", n)
		}
		heap[i] = int64(liveHeap())
	}
	p.check(t)
	t.Logf("live heap after each batch of %d calls: %d, %d, %d KB", batch, heap[0]>>10, heap[1]>>10, heap[2]>>10)
	if grown := heap[2] - heap[1]; grown > slack {
		t.Errorf("live heap grew %d KB over the third batch of %d calls (%d B a call), want ≤ %d KB in all",
			grown>>10, batch, grown/batch, slack>>10)
	}
}
