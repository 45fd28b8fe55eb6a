package sip

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// lingerStart is when the edge tests put their transactions into the
// Completed linger; the reaper first runs CompletedLinger later.
const lingerStart = time.Second

// edgeCounters is what an endpoint reports about its transactions.
type edgeCounters struct {
	active, lingering, unacked int
	reaperRuns                 uint64
}

func countersOf(ep *Endpoint) edgeCounters {
	return edgeCounters{ep.ActiveTransactions(), ep.LingeringTransactions(), ep.UnackedInvites(), ep.ReaperRuns()}
}

// TestLingerAnswersAtTheExpiryEdge pins what a lingering transaction
// answers at the last instant before the reaper run that removes it,
// and what the endpoint answers at the first instant after: a replay
// or an absorbed message before, a fresh transaction or a 481 after.
// The counters are pinned at both instants too.
func TestLingerAnswersAtTheExpiryEdge(t *testing.T) {
	// answered leaves inv1 lingering (answered 200, then its 2xx ACK)
	// beside the OPTIONS o1, both from lingerStart.
	answered := func(r *uasRig) {
		r.ep.handleData("a:5060", wireRequest(OPTIONS, "o1", "o1"))
		r.ep.handleData("a:5060", wireRequest(INVITE, "call-1", "inv1"))
		r.ep.handleData("a:5060", wireRequest(ACK, "call-1", "ack1"))
	}
	reap := lingerStart + CompletedLinger
	for _, c := range []struct {
		name string
		// at is when the reaper run that removes the probe's target
		// fires; setup runs at lingerStart.
		at    time.Duration
		setup func(r *uasRig)
		probe []byte
		// check asserts what the probe did, given the counters and
		// datagrams from before it.
		before, after func(t *testing.T, r *uasRig, st Stats, sent int)
		// counters read after the probe, before and after the run.
		cBefore, cAfter edgeCounters
	}{
		{
			name: "retransmitted non-INVITE is replayed", at: reap, setup: answered,
			probe: wireRequest(OPTIONS, "o1", "o1"),
			before: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.served != 2 || len(r.raw) != sent+1 || !bytes.Equal(r.raw[sent], r.raw[0]) {
					t.Errorf("TU served %d (want 2), %d datagrams (want %d, the first again)", r.served, len(r.raw), sent+1)
				}
				if got := r.ep.StatsSnapshot().Retransmissions - st.Retransmissions; got != 1 {
					t.Errorf("%d retransmissions counted, want 1", got)
				}
			},
			after: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.served != 3 || r.ep.StatsSnapshot().Retransmissions != st.Retransmissions {
					t.Errorf("TU served %d (want 3), replays %d → %d", r.served,
						st.Retransmissions, r.ep.StatsSnapshot().Retransmissions)
				}
			},
			cBefore: edgeCounters{2, 2, 0, 0},
			cAfter:  edgeCounters{1, 1, 0, 1},
		},
		{
			name: "retransmitted INVITE is replayed", at: reap, setup: answered,
			probe: wireRequest(INVITE, "call-1", "inv1"),
			before: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.served != 2 || r.oks["call-1"] != 2 {
					t.Errorf("TU served %d (want 2), call-1 saw %d 200s (want 2)", r.served, r.oks["call-1"])
				}
			},
			after: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.served != 3 || r.oks["call-1"] != 2 {
					t.Errorf("TU served %d (want 3), call-1 saw %d 200s (want 2)", r.served, r.oks["call-1"])
				}
			},
			cBefore: edgeCounters{2, 2, 0, 0},
			cAfter:  edgeCounters{1, 0, 1, 1},
		},
		{
			name: "same-branch ACK is absorbed", at: reap, setup: answered,
			probe: wireRequest(ACK, "call-1", "inv1"),
			before: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.tuAcks != 1 {
					t.Errorf("TU saw %d ACKs, want 1", r.tuAcks)
				}
			},
			after: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.tuAcks != 2 {
					t.Errorf("TU saw %d ACKs, want 2", r.tuAcks)
				}
			},
			cBefore: edgeCounters{2, 2, 0, 0},
			cAfter:  edgeCounters{0, 0, 0, 1},
		},
		{
			name: "duplicate 2xx ACK reaches the TU", at: reap, setup: answered,
			probe: wireRequest(ACK, "call-1", "ack1"),
			before: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.tuAcks != 2 || len(r.raw) != sent {
					t.Errorf("TU saw %d ACKs (want 2), %d datagrams sent (want none)", r.tuAcks, len(r.raw)-sent)
				}
			},
			after: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.tuAcks != 2 || len(r.raw) != sent {
					t.Errorf("TU saw %d ACKs (want 2), %d datagrams sent (want none)", r.tuAcks, len(r.raw)-sent)
				}
			},
			cBefore: edgeCounters{2, 2, 0, 0},
			cAfter:  edgeCounters{0, 0, 0, 1},
		},
		{
			name: "CANCEL of a lingering INVITE gets 200", at: reap, setup: answered,
			probe: wireRequest(CANCEL, "call-1", "inv1"),
			before: func(t *testing.T, r *uasRig, st Stats, sent int) {
				now := r.ep.StatsSnapshot()
				if now.Sent["200"] != st.Sent["200"]+1 || now.Sent["481"] != 0 || r.served != 2 {
					t.Errorf("sent 200 ×%d, 481 ×%d, TU served %d; want one 200 more, no 481, 2",
						now.Sent["200"]-st.Sent["200"], now.Sent["481"], r.served)
				}
			},
			after: func(t *testing.T, r *uasRig, st Stats, sent int) {
				now := r.ep.StatsSnapshot()
				if now.Sent["200"] != st.Sent["200"] || now.Sent["481"] != 1 || r.served != 2 {
					t.Errorf("sent 200 ×%d, 481 ×%d, TU served %d; want no 200 more, one 481, 2",
						now.Sent["200"]-st.Sent["200"], now.Sent["481"], r.served)
				}
			},
			cBefore: edgeCounters{2, 2, 0, 0},
			cAfter:  edgeCounters{0, 0, 0, 1},
		},
		{
			// o2 lingers 50 ms after o1: the run at o1's due finds it
			// not due and comes back a sweep later, not at its due.
			name: "a later lingerer lasts until the next sweep", at: reap + lingerSweep,
			setup: func(r *uasRig) {
				r.ep.handleData("a:5060", wireRequest(OPTIONS, "o1", "o1"))
				r.sched.Run(lingerStart + 50*time.Millisecond)
				r.ep.handleData("a:5060", wireRequest(OPTIONS, "o2", "o2"))
			},
			probe: wireRequest(OPTIONS, "o2", "o2"),
			before: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.served != 2 || !bytes.Equal(r.raw[sent], r.raw[1]) {
					t.Errorf("TU served %d (want 2), reply %q", r.served, r.raw[sent:])
				}
			},
			after: func(t *testing.T, r *uasRig, st Stats, sent int) {
				if r.served != 3 {
					t.Errorf("TU served %d, want 3", r.served)
				}
			},
			cBefore: edgeCounters{1, 1, 0, 1},
			cAfter:  edgeCounters{1, 1, 0, 2},
		},
	} {
		for _, edge := range []struct {
			name  string
			at    time.Duration
			check func(t *testing.T, r *uasRig, st Stats, sent int)
			want  edgeCounters
		}{
			{"before", c.at - time.Nanosecond, c.before, c.cBefore},
			{"after", c.at, c.after, c.cAfter},
		} {
			t.Run(c.name+"/"+edge.name, func(t *testing.T) {
				r := newUASRig()
				r.sched.Run(lingerStart)
				c.setup(r)
				r.sched.Run(edge.at)
				st, sent := r.ep.StatsSnapshot(), len(r.raw)
				r.ep.handleData("a:5060", c.probe)
				r.sched.Run(edge.at) // deliver what the probe sent
				edge.check(t, r, st, sent)
				if got := countersOf(r.ep); got != edge.want {
					t.Errorf("counters %+v, want %+v", got, edge.want)
				}
			})
		}
	}
}

// TestLingeringClientInviteReAcksAtTheExpiryEdge: a client INVITE that
// got a non-2xx final ACKs every retransmission of that final until the
// reaper run that removes it; after that run the final is a stray.
func TestLingeringClientInviteReAcksAtTheExpiryEdge(t *testing.T) {
	for _, edge := range []struct {
		name                 string
		at                   time.Duration
		acks, strays, onResp int
		want                 edgeCounters
	}{
		{"before", lingerStart + CompletedLinger - time.Nanosecond, 2, 0, 1, edgeCounters{1, 1, 0, 0}},
		{"after", lingerStart + CompletedLinger, 1, 1, 1, edgeCounters{0, 0, 0, 1}},
	} {
		t.Run(edge.name, func(t *testing.T) {
			sched := netsim.NewScheduler()
			net := netsim.NewNetwork(sched, stats.NewRNG(1))
			net.SetDuplexLink("a", "b", netsim.LinkProfile{})
			var atB [][]byte
			transport.NewSim(net, "b:5060").SetReceiver(func(_ string, data []byte) {
				atB = append(atB, append([]byte(nil), data...))
			})
			ep := NewEndpoint(transport.NewSim(net, "a:5060"), transport.SimClock{Sched: sched})
			sched.Run(lingerStart)
			inv := options("a", "b")
			inv.Method, inv.CSeq.Method = INVITE, INVITE
			onResp := 0
			tx := ep.SendRequest("b:5060", inv, func(*Message) { onResp++ })
			busy := tx.Request().Response(StatusBusyHere)
			busy.To.Tag = "bt"
			wire := busy.Marshal()
			ep.handleData("b:5060", wire)
			sched.Run(edge.at)
			ep.handleData("b:5060", wire)
			sched.Run(edge.at) // deliver what the probe sent

			st := ep.StatsSnapshot()
			if st.Sent["ACK"] != uint64(edge.acks) || st.StrayResponses != uint64(edge.strays) || onResp != edge.onResp {
				t.Errorf("ACKs sent %d, strays %d, TU saw %d; want %d, %d, %d",
					st.Sent["ACK"], st.StrayResponses, onResp, edge.acks, edge.strays, edge.onResp)
			}
			// INVITE, then an ACK per ACK sent, each the same bytes.
			if len(atB) != 1+edge.acks {
				t.Fatalf("b got %d datagrams, want %d", len(atB), 1+edge.acks)
			}
			for _, d := range atB[2:] {
				if !bytes.Equal(d, atB[1]) {
					t.Errorf("re-ACK %q differs from the ACK %q", d, atB[1])
				}
			}
			if got := countersOf(ep); got != edge.want {
				t.Errorf("counters %+v, want %+v", got, edge.want)
			}
		})
	}
}

// lingerPin is the most the log may keep for a lingering transaction
// whose stored message is reply bytes long.
func lingerPin(reply int, k txKey) int { return reply + len(k.branch) + len(k.method) + 64 }

// TestLingerLogCost pins what lingering costs: the log keeps each
// transaction within lingerPin of its reply, and a warm endpoint —
// one whose chunks have been reset and reused — allocates nothing to
// linger or to reap.
func TestLingerLogCost(t *testing.T) {
	r := newUASRig()
	const n = 1000
	pin := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("opt%d", i)
		r.ep.handleData("a:5060", wireRequest(OPTIONS, id, id))
		r.sched.Run(r.sched.Now())
		pin += lingerPin(len(r.raw[i]), txKey{BranchPrefix + "-" + id, OPTIONS})
	}
	if got := r.ep.LingeringBytes(); got > pin || got == 0 {
		t.Errorf("%d lingering transactions keep %d B of log, pinned at %d", n, got, pin)
	}
	t.Logf("%d B of log a transaction, pin %d", r.ep.LingeringBytes()/n, pin/n)

	// A steady stream, one linger every millisecond: keys come round
	// again only after their entries are gone. Two lingers' worth warm
	// the chunk pool, the ring and the index; the third must not
	// allocate.
	const step, keys = time.Millisecond, 8192
	ks := make([]txKey, keys)
	for i := range ks {
		ks[i] = txKey{fmt.Sprintf("%s-steady%d", BranchPrefix, i), OPTIONS}
	}
	reply := r.raw[0]
	i := 0
	linger := func() {
		i++
		r.sched.Run(r.sched.Now() + step)
		r.ep.mu.Lock()
		r.ep.lingerLocked(lingerServer, ks[i%keys], "a:5060", reply)
		r.ep.mu.Unlock()
	}
	perLinger := int(CompletedLinger / step)
	for j := 0; j < 2*perLinger; j++ {
		linger()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for j := 0; j < perLinger; j++ {
			linger()
		}
	})
	if allocs != 0 {
		t.Errorf("%d lingers on a warm endpoint allocated %v times", perLinger, allocs)
	}
	if got, want := r.ep.LingeringTransactions(), perLinger+int(lingerSweep/step); got < perLinger || got > want {
		t.Errorf("%d lingering, want %d to %d", got, perLinger, want)
	}
}

// TestLingerHashCollisionReplaysNothing forces every key into one
// index slot: each retransmission still gets its own reply, a request
// with a new key opens a transaction, and a server entry answers no
// response on the client side.
func TestLingerHashCollisionReplaysNothing(t *testing.T) {
	defer func(h func(maphash.Seed, bool, txKey) uint64) { lingerHash = h }(lingerHash)
	lingerHash = func(maphash.Seed, bool, txKey) uint64 { return 7 }

	r := newUASRig()
	r.ep.Handle(func(tx *ServerTx, req *Message, _ string) {
		r.served++
		resp := req.Response(StatusOK)
		resp.To.Tag = "tag-" + req.CallID
		tx.Respond(resp)
	})
	for _, id := range []string{"x1", "x2", "x3"} {
		r.ep.handleData("a:5060", wireRequest(OPTIONS, id, id))
	}
	r.sched.Run(time.Second)
	for i, id := range []string{"x1", "x2", "x3", "x2"} {
		sent := len(r.raw)
		r.ep.handleData("a:5060", wireRequest(OPTIONS, id, id))
		r.sched.Run(time.Second)
		want := map[string]int{"x1": 0, "x2": 1, "x3": 2}[id]
		if r.served != 3 || len(r.raw) != sent+1 || !bytes.Equal(r.raw[sent], r.raw[want]) {
			t.Errorf("retransmission %d of %s: TU served %d, reply %q; want 3 and %q", i, id, r.served, r.raw[sent:], r.raw[want])
		}
	}
	// A new key in the same slot is a new transaction.
	r.ep.handleData("a:5060", wireRequest(OPTIONS, "x4", "x4"))
	if r.served != 4 {
		t.Errorf("a fourth key colliding with three was served %d times", r.served-3)
	}
	// So is the same key on the client side: a response to it is stray.
	resp := options("a", "b").Response(StatusOK)
	resp.Via = []Via{{SentBy: "a:5060", Branch: BranchPrefix + "-x1"}}
	resp.CSeq.Method = OPTIONS
	r.ep.handleData("a:5060", resp.Marshal())
	if st := r.ep.StatsSnapshot(); st.StrayResponses != 1 {
		t.Errorf("a response on the server entry's key: %d strays, want 1", st.StrayResponses)
	}
	if got := r.ep.LingeringTransactions(); got != 4 {
		t.Errorf("%d lingering, want 4", got)
	}
}

// TestLingerEntryLongerThanAChunk: a reply too long for a chunk gets a
// chunk of its own, and it and the entries around it replay whole.
func TestLingerEntryLongerThanAChunk(t *testing.T) {
	r := newUASRig()
	r.ep.Handle(func(tx *ServerTx, req *Message, _ string) {
		r.served++
		resp := req.Response(StatusOK)
		if req.CallID == "big" {
			resp.Other = []Header{{Name: "X-Pad", Value: strings.Repeat("p", 2*lingerChunk)}}
		}
		tx.Respond(resp)
	})
	ids := []string{"small1", "big", "small2"}
	for _, id := range ids {
		r.ep.handleData("a:5060", wireRequest(OPTIONS, id, id))
	}
	r.sched.Run(time.Second)
	if len(r.raw[1]) <= lingerChunk {
		t.Fatalf("the big reply is %d B, no longer than a chunk", len(r.raw[1]))
	}
	for i, id := range ids {
		sent := len(r.raw)
		r.ep.handleData("a:5060", wireRequest(OPTIONS, id, id))
		r.sched.Run(time.Second)
		if r.served != 3 || len(r.raw) != sent+1 || !bytes.Equal(r.raw[sent], r.raw[i]) {
			t.Errorf("retransmitted %s: TU served %d, %d replies; want 3 and its own reply again", id, r.served, len(r.raw)-sent)
		}
	}
	r.sched.Run(time.Minute)
	if n, b := r.ep.ActiveTransactions(), r.ep.LingeringBytes(); n != 0 || b != 0 {
		t.Errorf("after the linger: %d transactions in %d B of log", n, b)
	}
}
