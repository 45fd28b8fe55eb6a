package pbx

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/directory"
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
// Each refresh moves the virtual clock refreshStep, so every
// DefaultNonceWindow / refreshStep refreshes the nonce it answers ages
// out; the 401 stale=true that follows is answered with the fresh nonce
// and the refresh sent again, as a phone does.
type registerRefresher struct {
	rig    *fuzzRig
	wire   []byte
	branch []byte // the digits of the branch inside wire
	n, oks int
	// sent numbers the branches: a re-challenged refresh goes out twice.
	sent int
	// rechallenges counts the 401 stale=true answers.
	rechallenges int
}

const (
	refreshStep    = 5 * time.Millisecond
	refreshContact = "Contact: <sip:u0@fuzz:5060>\r\nExpires: 3600\r\n"
)

func newRegisterRefresher(tb testing.TB) *registerRefresher {
	tb.Helper()
	r := &registerRefresher{rig: newFuzzRig()}
	r.rig.tr.Send("pbx:5060", fuzzRegister(refreshContact))
	r.rig.sched.Run(r.rig.sched.Now() + time.Second)
	if len(r.rig.resps) != 1 || r.rig.resps[0].StatusCode != sip.StatusUnauthorized {
		tb.Fatalf("first REGISTER: %v, want one 401", r.rig.resps)
	}
	ch, ok := sip.ParseDigestChallenge(r.rig.resps[0].WWWAuthenticate)
	if !ok {
		tb.Fatalf("challenge %q", r.rig.resps[0].WWWAuthenticate)
	}
	r.answer(ch)
	r.rig.tr.SetReceiver(func(_ string, data []byte) {
		switch {
		case bytes.HasPrefix(data, []byte("SIP/2.0 200 ")):
			r.oks++
		case bytes.HasPrefix(data, []byte("SIP/2.0 401 ")):
			m, err := sip.Parse(data)
			if err != nil {
				return
			}
			if ch, ok := sip.ParseDigestChallenge(m.WWWAuthenticate); ok && ch.Stale {
				r.answer(ch)
				r.rechallenges++
				r.send()
			}
		}
	})
	return r
}

// answer builds the refresh's wire bytes with credentials for ch.
func (r *registerRefresher) answer(ch sip.DigestChallenge) {
	auth := ch.Answer("u0", "pw-u0", sip.REGISTER, "sip:pbx:5060").Header()
	r.wire = fuzzRegister(refreshContact + "Authorization: " + auth + "\r\n")
	const mark = "branch=z9hG4bKf1"
	r.wire = bytes.Replace(r.wire, []byte(mark), []byte("branch=z9hG4bK00000000"), 1)
	at := bytes.Index(r.wire, []byte("z9hG4bK00000000")) + len("z9hG4bK")
	r.branch = r.wire[at : at+8]
}

func (r *registerRefresher) refresh() {
	r.n++
	r.send()
	r.rig.sched.Run(r.rig.sched.Now() + refreshStep)
}

// send sends the refresh on a branch of its own.
func (r *registerRefresher) send() {
	r.sent++
	for i, v := len(r.branch)-1, r.sent; i >= 0; i, v = i-1, v/10 {
		r.branch[i] = byte('0' + v%10)
	}
	r.rig.tr.Send("pbx:5060", r.wire)
}

// check fails tb unless every refresh was answered 200, after at most
// one stale re-challenge per replay window.
func (r *registerRefresher) check(tb testing.TB) {
	tb.Helper()
	perWindow := int(directory.DefaultNonceWindow / refreshStep)
	if r.oks != r.n || r.rechallenges > r.n/perWindow+1 {
		tb.Fatalf("%d of %d refreshes answered 200, after %d stale re-challenges (≤ %d expected)",
			r.oks, r.n, r.rechallenges, r.n/perWindow+1)
	}
}

// TestRefresherOutlivesNonceWindow drives the refresher past its
// nonce's replay window: each refresh moves the clock refreshStep, so
// 70 000 of them span 350 s against the registrar's 300 s. The refresh
// that answers the aged-out nonce is re-challenged once and then
// answered 200, as BenchmarkEndpointRegister needs once b.N passes
// about 60 000.
func TestRefresherOutlivesNonceWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("70 000 refreshes")
	}
	r := newRegisterRefresher(t)
	for i := 0; i < 70000; i++ {
		r.refresh()
	}
	r.check(t)
	if r.rechallenges != 1 {
		t.Fatalf("%d stale re-challenges over %s, want 1", r.rechallenges, time.Duration(r.n)*refreshStep)
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
// mean over 2 000 operations, so that map growth and the linger log's
// buffer doublings, which land on few of them, round away.
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
// and 411. Logging a lingering transaction as bytes took them from 9
// and 203: a non-INVITE final is logged from the send buffer, with no
// copy of its own, and no ring of pointers grows.
const (
	maxAllocsPerRegister = 8
	maxAllocsPerCall     = 197
)

// TestServerKeepsNoCallHistory: a server with no journal attached — as
// pbxd runs — is as large after fifteen thousand calls as after ten
// thousand. Three equal batches, each run past the transactions'
// linger; the first warms the maps, the linger log, the recent-calls
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
