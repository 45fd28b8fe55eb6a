package sip

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestLingerersExpireInArrivalOrderBehindOneTimer feeds 16 384
// transactions, one every 400 µs — so the first expire while the last
// still arrive — and watches the table through the scheduler, which is
// the counting clock: whatever lingers, one event is scheduled.
func TestLingerersExpireInArrivalOrderBehindOneTimer(t *testing.T) {
	const (
		n    = 16384
		step = 400 * time.Microsecond
	)
	r := newUASRig()
	keys := make([]txKey, n)
	arrived := 0
	// check looks at every transaction fed so far: gone if its linger
	// ran out a sweep ago or more, there if it has not run out, and in
	// between gone only if everything older is.
	check := func() {
		t.Helper()
		now := r.sched.Now()
		if got := r.sched.Pending(); got != 1 {
			t.Fatalf("at %v: %d events scheduled, want the reaper alone", now, got)
		}
		present := 0
		for i := 0; i < arrived; i++ {
			due := time.Duration(i)*step + CompletedLinger
			_, ok := r.ep.lingering(false, keys[i])
			switch {
			case ok && due+lingerSweep <= now:
				t.Fatalf("at %v: transaction %d still there, due %v", now, i, due)
			case !ok && due > now:
				t.Fatalf("at %v: transaction %d gone before its time %v", now, i, due)
			case !ok && present > 0:
				t.Fatalf("at %v: transaction %d gone before an older one", now, i)
			case ok:
				present++
			}
		}
		if got := r.ep.LingeringTransactions(); got != present {
			t.Fatalf("at %v: %d counted, %d in the log", now, got, present)
		}
	}
	for i := 0; i < n; i++ {
		r.sched.Run(time.Duration(i) * step)
		if i > 0 && i%256 == 0 {
			check()
		}
		id := fmt.Sprintf("tx%d", i)
		m := OPTIONS
		if i%16 == 0 {
			m = INVITE // answered and ACKed at once: lingers like the rest
		}
		keys[i] = txKey{BranchPrefix + "-" + id, m}
		r.ep.handleData("a:5060", wireRequest(m, id, id))
		if m == INVITE {
			r.ep.handleData("a:5060", wireRequest(ACK, id, "ack-"+id))
		}
		arrived++
	}
	last := time.Duration(n-1) * step
	for now := last + step; now < last+CompletedLinger; now += 50 * time.Millisecond {
		r.sched.Run(now)
		check()
	}

	// One sweep after the last linger ran out nothing is left, the
	// reaper is disarmed, and an idle endpoint schedules nothing.
	r.sched.Run(last + CompletedLinger + lingerSweep)
	if tx, idx, q := r.ep.ActiveTransactions(), r.ep.UnackedInvites(), r.ep.LingeringTransactions(); tx != 0 || idx != 0 || q != 0 {
		t.Errorf("after the last linger: %d transactions, %d indexed, %d queued", tx, idx, q)
	}
	if got := r.sched.Pending(); got != 0 {
		t.Errorf("idle endpoint has %d events scheduled", got)
	}
	fired := r.sched.Fired()
	r.sched.Run(r.sched.Now() + time.Minute)
	if r.sched.Fired() != fired {
		t.Errorf("idle endpoint fired %d events", r.sched.Fired()-fired)
	}
	if r.served != n {
		t.Errorf("TU served %d requests, want %d", r.served, n)
	}
}

func TestRetransmissionInLingerGetsTheStoredResponse(t *testing.T) {
	r := newUASRig()
	req := wireRequest(OPTIONS, "call-1", "opt1")
	r.ep.handleData("a:5060", req)
	r.sched.Run(CompletedLinger - time.Millisecond)
	r.ep.handleData("a:5060", req)
	r.sched.Run(CompletedLinger - time.Millisecond)
	if len(r.raw) != 2 || !bytes.Equal(r.raw[0], r.raw[1]) || r.served != 1 {
		t.Fatalf("retransmission in the linger: %d responses, TU served %d; want the same bytes twice from one serving\n%q",
			len(r.raw), r.served, r.raw)
	}
	// Once reaped, the same bytes open a new transaction.
	r.sched.Run(CompletedLinger + lingerSweep)
	r.ep.handleData("a:5060", req)
	if r.served != 2 {
		t.Errorf("after the linger the TU served %d requests, want 2", r.served)
	}
}

// A second final response on a transaction already lingering used to
// arm a second timer over the first.
func TestSecondFinalLingersOnce(t *testing.T) {
	r := newUASRig()
	var tx *ServerTx
	var req *Message
	r.ep.Handle(func(stx *ServerTx, m *Message, _ string) {
		tx, req = stx, m
		stx.Respond(m.Response(StatusOK))
	})
	wire := wireRequest(OPTIONS, "call-1", "opt1")
	r.ep.handleData("a:5060", wire)
	r.sched.Run(3 * time.Second)
	tx.Respond(req.Response(StatusBusyHere))
	r.sched.Run(3 * time.Second)
	if q, ev := r.ep.LingeringTransactions(), r.sched.Pending(); q != 1 || ev != 1 {
		t.Errorf("after a second final: %d queued, %d events scheduled; want 1 and 1", q, ev)
	}
	// The stored response is the latest one.
	r.ep.handleData("a:5060", wire)
	r.sched.Run(4 * time.Second)
	if len(r.raw) != 3 || !bytes.Equal(r.raw[2], r.raw[1]) || !bytes.HasPrefix(r.raw[2], []byte("SIP/2.0 486 ")) {
		t.Errorf("replay after a second final:\n%q", r.raw)
	}
	// And the deadline is the first one's.
	r.sched.Run(CompletedLinger + lingerSweep)
	if n := r.ep.ActiveTransactions(); n != 0 {
		t.Errorf("%d transactions left a sweep after the first final's linger", n)
	}
}

// A lingering transaction owns its key: nothing of the request that
// opened it stays reachable, however large it was. The log holds its
// entry within lingerPin, and the heap at most 64 B more: its share of
// the index (≤ 4 slots of 12 B) and of its chunk's unused tail.
func TestTombstoneOfLargeRequestIsSmall(t *testing.T) {
	const n = 512
	pad := strings.Repeat("x", 16<<10)
	// Answers go nowhere, so the heap read below is the endpoint's alone.
	ep := NewEndpoint(discard{}, transport.NewRealClock())
	defer ep.Close()
	ep.Handle(func(tx *ServerTx, req *Message, _ string) { tx.Respond(req.Response(StatusOK)) })
	wires := make([][]byte, n)
	pin := 0
	for i := range wires {
		req := NewRequest(OPTIONS, NewURI("", "b", 5060),
			NameAddr{URI: NewURI("", "a", 5060), Tag: "ft"},
			NameAddr{URI: NewURI("", "b", 5060)}, fmt.Sprintf("big%d", i), 1)
		req.Via = []Via{{Transport: "UDP", SentBy: "a:5060", Branch: fmt.Sprintf("%s-big%d", BranchPrefix, i)}}
		req.Other = []Header{{Name: "X-Pad", Value: pad}}
		wires[i] = req.Marshal()
		parsed, err := Parse(wires[i])
		if err != nil {
			t.Fatal(err)
		}
		pin += lingerPin(len(parsed.Response(StatusOK).Marshal()), parsed.key())
	}
	before := liveHeap()
	for _, w := range wires {
		ep.handleData("a:5060", w)
	}
	grown := int64(liveHeap()) - int64(before)
	if q := ep.LingeringTransactions(); q != n {
		t.Fatalf("%d transactions linger, want %d", q, n)
	}
	t.Logf("%d lingering transactions opened by 16 KB requests hold %d B each, %d B of log; pin %d B",
		n, grown/n, ep.LingeringBytes()/n, pin/n)
	if got := ep.LingeringBytes(); got > pin {
		t.Errorf("the log holds %d B a transaction, pinned at %d", got/n, pin/n)
	}
	if grown > int64(pin+64*n) {
		t.Errorf("a tombstone holds %d B of heap, want ≤ %d", grown/n, pin/n+64)
	}
	runtime.KeepAlive(wires)
}

// discard is a transport that sends nothing and receives nothing.
type discard struct{}

func (discard) Send(string, []byte)            {}
func (discard) LocalAddr() string              { return "b:5060" }
func (discard) SetReceiver(transport.Receiver) {}
func (discard) Close() error                   { return nil }

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // finalizers and sweep of the first cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWallClockShardedEndpointReaps is the reaper on the wall clock,
// under the two read loops of a -shards 2 listener rendering into the
// endpoint's one scratch buffer: every client gets its own answers
// whole, and the transactions are gone a sweep after their linger.
func TestWallClockShardedEndpointReaps(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const clients, each = 4, 200
	tr, err := transport.ListenUDPSharded("127.0.0.1:0", 2, transport.UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(tr, transport.NewRealClock())
	defer ep.Close()
	ep.Handle(func(tx *ServerTx, req *Message, _ string) {
		resp := req.Response(StatusOK)
		resp.Other = []Header{{Name: "X-Echo", Value: req.CallID}}
		tx.Respond(resp)
	})

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sock, err := transport.ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Error(err)
				return
			}
			defer sock.Close()
			got := make(chan *Message, each)
			sock.SetReceiver(func(_ string, data []byte) {
				if m, err := Parse(data); err != nil {
					t.Errorf("client %d: unparsable answer %q", c, data)
				} else {
					got <- m
				}
			})
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("c%d-%d", c, i)
				sock.Send(tr.LocalAddr(), wireRequest(OPTIONS, id, id))
				select {
				case m := <-got:
					if m.CallID != id || len(m.Other) != 1 || m.Other[0].Value != id {
						t.Errorf("client %d: answer to %s is %v %v", c, id, m, m.Other)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("client %d: no answer to %s", c, id)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if time.Since(start) < CompletedLinger {
		if n := ep.LingeringTransactions(); n != clients*each {
			t.Errorf("%d transactions linger, want %d", n, clients*each)
		}
	}
	for ep.ActiveTransactions() != 0 && time.Since(start) < 2*CompletedLinger {
		time.Sleep(20 * time.Millisecond)
	}
	took := time.Since(start)
	if n, q := ep.ActiveTransactions(), ep.LingeringTransactions(); n != 0 || q != 0 {
		t.Fatalf("%v on: %d transactions, %d queued", took, n, q)
	}
	if took < CompletedLinger {
		t.Errorf("transactions reaped after %v, before their linger ran out", took)
	}
	if runs := ep.ReaperRuns(); runs == 0 || runs > uint64(took/lingerSweep)+1 {
		t.Errorf("reaper ran %d times in %v", runs, took)
	}
}
