package sip

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// uasRig is one server endpoint ("b:5060") fed wire messages directly,
// with a bare socket at "a:5060" counting the 200s that come back per
// Call-ID. The TU answers every request with 200 and counts the ACKs it
// is handed.
type uasRig struct {
	sched *netsim.Scheduler
	ep    *Endpoint
	oks   map[string]int // 200 responses seen at a:5060, by Call-ID
	raw   [][]byte       // every datagram seen at a:5060
	// served counts the requests the TU answered, tuAcks the ACKs it got.
	served, tuAcks int
}

func newUASRig() *uasRig {
	r := &uasRig{sched: netsim.NewScheduler(), oks: map[string]int{}}
	net := netsim.NewNetwork(r.sched, stats.NewRNG(1))
	net.SetDuplexLink("a", "b", netsim.LinkProfile{})
	transport.NewSim(net, "a:5060").SetReceiver(func(_ string, data []byte) {
		r.raw = append(r.raw, append([]byte(nil), data...))
		if m, err := Parse(data); err == nil && m.StatusCode == StatusOK {
			r.oks[m.CallID]++
		}
	})
	r.ep = NewEndpoint(transport.NewSim(net, "b:5060"), transport.SimClock{Sched: r.sched})
	r.ep.Handle(func(tx *ServerTx, req *Message, src string) {
		if req.Method == ACK {
			r.tuAcks++
			return
		}
		r.served++
		resp := req.Response(StatusOK)
		resp.To.Tag = "bt"
		tx.Respond(resp)
	})
	return r
}

// wireRequest marshals a request as "a" would send it.
func wireRequest(m Method, callID, branch string) []byte {
	req := NewRequest(m, NewURI("", "b", 5060),
		NameAddr{URI: NewURI("", "a", 5060), Tag: "ft"},
		NameAddr{URI: NewURI("", "b", 5060)}, callID, 1)
	req.CSeq.Method = m
	req.Via = []Via{{Transport: "UDP", SentBy: "a:5060", Branch: BranchPrefix + "-" + branch}}
	return req.Marshal()
}

// linger leaves n answered non-INVITE server transactions in the table.
func (r *uasRig) linger(n int) {
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("opt%d", i)
		r.ep.handleData("a:5060", wireRequest(OPTIONS, id, id))
	}
}

func TestAck2xxMatchesOneAmongLingering(t *testing.T) {
	const lingering = 16384
	r := newUASRig()
	r.linger(lingering)
	inv1 := wireRequest(INVITE, "call-1", "inv1")
	r.ep.handleData("a:5060", inv1)
	r.ep.handleData("a:5060", wireRequest(INVITE, "call-2", "inv2"))
	if got := r.ep.UnackedInvites(); got != 2 {
		t.Fatalf("un-ACKed INVITEs indexed = %d, want 2", got)
	}

	// The 2xx ACK is its own transaction: fresh branch, same Call-ID
	// and CSeq number. A duplicate and an ACK for a dialog nobody knows
	// change nothing, and all three still reach the TU.
	ack1 := wireRequest(ACK, "call-1", "ack1")
	r.ep.handleData("a:5060", ack1)
	r.ep.handleData("a:5060", ack1)
	r.ep.handleData("a:5060", wireRequest(ACK, "ghost", "ack-ghost"))
	if r.tuAcks != 3 {
		t.Errorf("TU saw %d ACKs, want 3", r.tuAcks)
	}
	if got := r.ep.UnackedInvites(); got != 1 {
		t.Errorf("un-ACKed INVITEs indexed after the ACK = %d, want 1", got)
	}
	if got := r.ep.ActiveTransactions(); got != lingering+2 {
		t.Errorf("transactions = %d, want %d", got, lingering+2)
	}

	// Inside the linger: call-2's 200 is retransmitted (T1, 2·T1, 4·T1
	// fall before 4 s), call-1's is not.
	r.sched.Run(4 * time.Second)
	if r.oks["call-1"] != 1 {
		t.Errorf("call-1 saw %d 200s, want 1 (ACKed)", r.oks["call-1"])
	}
	if r.oks["call-2"] != 4 {
		t.Errorf("call-2 saw %d 200s, want 4 (never ACKed)", r.oks["call-2"])
	}

	// The ACKed transaction is a tombstone now, and still absorbs a
	// retransmitted INVITE by replaying the 200.
	before := r.ep.StatsSnapshot().Retransmissions
	r.ep.handleData("a:5060", inv1)
	r.sched.Run(r.sched.Now() + time.Millisecond)
	if r.oks["call-1"] != 2 || r.served != lingering+2 {
		t.Errorf("retransmitted INVITE: %d 200s (want 2), TU served %d (want %d)",
			r.oks["call-1"], r.served, lingering+2)
	}
	if got := r.ep.StatsSnapshot().Retransmissions - before; got != 1 {
		t.Errorf("replay counted %d retransmissions, want 1", got)
	}

	// Past the linger and Timer H everything is gone, the index too.
	r.sched.Run(r.sched.Now() + time.Minute)
	if tx, idx := r.ep.ActiveTransactions(), r.ep.UnackedInvites(); tx != 0 || idx != 0 {
		t.Errorf("after the drain: %d transactions, %d indexed", tx, idx)
	}
}

func TestTombstoneDropsRequestAndCallbacks(t *testing.T) {
	r := newUASRig()
	var invTx *ServerTx
	r.ep.Handle(func(tx *ServerTx, req *Message, src string) {
		if req.Method != INVITE {
			return
		}
		invTx = tx
		tx.OnCancel(func(*Message) {})
		tx.Respond(req.Response(StatusOK))
	})
	r.ep.handleData("a:5060", wireRequest(INVITE, "call-1", "inv1"))
	if invTx.Request() == nil {
		t.Fatal("request dropped before the ACK")
	}
	r.ep.handleData("a:5060", wireRequest(ACK, "call-1", "ack1"))
	if invTx.req != nil || invTx.lastWire != nil || invTx.onCancel != nil || invTx.retrans != nil || invTx.destroyTm != nil {
		t.Errorf("lingering transaction still holds req=%v wire=%v onCancel=%v timers=%v",
			invTx.req != nil, invTx.lastWire != nil, invTx.onCancel != nil, invTx.retrans != nil || invTx.destroyTm != nil)
	}
	if _, ok := r.ep.serverTxs[invTx.key]; ok {
		t.Error("the endpoint still holds the lingering transaction")
	}
	// What lingers is the log entry: key, source and last response.
	e, ok := r.ep.lingering(false, txKey{BranchPrefix + "-inv1", INVITE})
	if !ok || string(e.addr) != "a:5060" || !bytes.HasPrefix(e.wire, []byte("SIP/2.0 200 ")) {
		t.Errorf("log entry found=%v source %q wire %q; want a:5060 and the 200", ok, e.addr, e.wire)
	}
}

// TestSecondFinalKeepsOneTimerChain: a TU that answers an INVITE twice
// (486, then 503) before any ACK replaces the bytes being retransmitted,
// not the timers. One Timer G chain resends the 503 at T1 and 3·T1, and
// Timer H plus that chain are all that stays scheduled.
func TestSecondFinalKeepsOneTimerChain(t *testing.T) {
	r := newUASRig()
	r.ep.Handle(func(tx *ServerTx, req *Message, src string) {
		busy := req.Response(StatusBusyHere)
		busy.To.Tag = "bt"
		tx.Respond(busy)
		unavailable := req.Response(StatusServiceUnavailable)
		unavailable.To.Tag = "bt"
		tx.Respond(unavailable)
	})
	r.ep.handleData("a:5060", wireRequest(INVITE, "call-1", "inv1"))
	r.sched.Run(3 * time.Second)
	codes := map[int]int{}
	for _, data := range r.raw {
		if m, err := Parse(data); err == nil {
			codes[m.StatusCode]++
		}
	}
	if codes[StatusBusyHere] != 1 || codes[StatusServiceUnavailable] != 3 {
		t.Errorf("sent 486 ×%d and 503 ×%d, want 1 and 3 (one Timer G chain)",
			codes[StatusBusyHere], codes[StatusServiceUnavailable])
	}
	if n := r.sched.Pending(); n != 2 {
		t.Errorf("%d events pending, want 2 (Timer G and Timer H)", n)
	}
	// Timer H still ends the transaction.
	r.sched.Run(time.Minute)
	if tx, idx := r.ep.ActiveTransactions(), r.ep.UnackedInvites(); tx != 0 || idx != 0 {
		t.Errorf("after Timer H: %d transactions, %d indexed", tx, idx)
	}
}

func TestCrashEmptiesAckIndex(t *testing.T) {
	r := newUASRig()
	r.linger(100)
	r.ep.handleData("a:5060", wireRequest(INVITE, "call-1", "inv1"))
	r.sched.Run(time.Second)
	if r.ep.UnackedInvites() != 1 || r.ep.LingeringTransactions() != 100 {
		t.Fatalf("%d INVITEs indexed, %d transactions lingering; want 1 and 100",
			r.ep.UnackedInvites(), r.ep.LingeringTransactions())
	}
	if r.ep.LingeringBytes() == 0 {
		t.Fatal("100 transactions linger in an empty log")
	}
	r.ep.Crash()
	if tx, idx, q, b := r.ep.ActiveTransactions(), r.ep.UnackedInvites(), r.ep.LingeringTransactions(), r.ep.LingeringBytes(); tx != 0 || idx != 0 || q != 0 || b != 0 {
		t.Errorf("after Crash: %d transactions, %d indexed, %d lingering in %d B of log", tx, idx, q, b)
	}
	// Mid-linger and mid-retransmission, nothing is left armed: not the
	// reaper, not Timer G or H.
	if n := r.sched.Pending(); n != 0 {
		t.Errorf("after Crash: %d events still scheduled", n)
	}
	fired := r.sched.Fired()
	r.sched.Run(time.Minute)
	if r.sched.Fired() != fired {
		t.Errorf("after Crash: %d events fired", r.sched.Fired()-fired)
	}
}
