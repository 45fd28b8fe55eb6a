package sip

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/transport"
)

// RequestHandler is the transaction-user callback for new requests.
// tx is nil for ACK requests, which do not open server transactions.
type RequestHandler func(tx *ServerTx, req *Message, src string)

// Stats counts endpoint-level protocol activity. The authoritative
// Table I message counts come from the wire monitor; these counters
// exist for debugging and the endpoint's own tests.
type Stats struct {
	Sent            map[string]uint64 // by method or status class, e.g. "INVITE", "200"
	Received        map[string]uint64
	ParseErrors     uint64
	StrayResponses  uint64
	Retransmissions uint64
	Timeouts        uint64
}

// msgTally counts messages on the hot path without allocating:
// requests by method, responses by status code. StatsSnapshot turns it
// into the string-keyed form of Stats.
type msgTally struct {
	req  map[Method]uint64
	resp map[int]uint64
}

func newMsgTally() msgTally {
	return msgTally{req: make(map[Method]uint64), resp: make(map[int]uint64)}
}

func (t msgTally) add(m *Message) {
	if m.IsRequest() {
		t.req[m.Method]++
	} else {
		t.resp[m.StatusCode]++
	}
}

func (t msgTally) snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(t.req)+len(t.resp))
	for k, v := range t.req {
		out[string(k)] = v
	}
	for k, v := range t.resp {
		out[strconv.Itoa(k)] = v
	}
	return out
}

// ackKey names the INVITE a 2xx ACK acknowledges. That ACK is its own
// transaction with a fresh branch (RFC 3261 13.2.2.4), so Call-ID and
// CSeq number are all it shares with the INVITE.
type ackKey struct {
	callID string
	seq    uint32
}

// Endpoint is the SIP transaction layer bound to one transport: it
// owns client and server transactions, retransmission timers, and
// message identifiers. User agents (softphones, the PBX) build on it.
type Endpoint struct {
	mu    sync.Mutex
	tr    transport.Transport
	clock transport.Clock

	handler   RequestHandler
	clientTxs map[string]*ClientTx
	serverTxs map[string]*ServerTx
	// unacked indexes the INVITE server transactions no ACK has reached
	// yet, so matching a 2xx ACK is one lookup however many
	// transactions linger in serverTxs.
	unacked map[ackKey]*ServerTx

	idCounter  uint64
	sent, recv msgTally
	stats      Stats      // Sent and Received stay nil; see StatsSnapshot
	tm         *epMetrics // nil until UseTelemetry
}

// NewEndpoint creates an endpoint on the given transport and clock and
// starts receiving.
func NewEndpoint(tr transport.Transport, clock transport.Clock) *Endpoint {
	ep := &Endpoint{
		tr:        tr,
		clock:     clock,
		clientTxs: make(map[string]*ClientTx),
		serverTxs: make(map[string]*ServerTx),
		unacked:   make(map[ackKey]*ServerTx),
		sent:      newMsgTally(),
		recv:      newMsgTally(),
	}
	tr.SetReceiver(ep.handleData)
	return ep
}

// Handle installs the request handler. Install it before the first
// request arrives; requests received with no handler are dropped at
// the transaction layer.
func (ep *Endpoint) Handle(h RequestHandler) {
	ep.mu.Lock()
	ep.handler = h
	ep.mu.Unlock()
}

// Addr returns the endpoint's transport address ("host:port").
func (ep *Endpoint) Addr() string { return ep.tr.LocalAddr() }

// Clock returns the endpoint's clock, for user-agent timers.
func (ep *Endpoint) Clock() transport.Clock { return ep.clock }

// Close releases the transport.
func (ep *Endpoint) Close() error { return ep.tr.Close() }

// Crash simulates abrupt process death: every client and server
// transaction is dropped on the floor — no farewell responses, no
// timeout callbacks, no timer firings — and the transport is closed so
// the port goes dark. Peers observe exactly what a real crashed UDP
// server produces: silence, then their own Timer B/F expiry.
func (ep *Endpoint) Crash() {
	ep.mu.Lock()
	for _, tx := range ep.clientTxs {
		tx.terminated = true
		if tx.retransmit != nil {
			tx.retransmit.Stop()
		}
		if tx.timeout != nil {
			tx.timeout.Stop()
		}
		if tx.linger != nil {
			tx.linger.Stop()
		}
	}
	for _, tx := range ep.serverTxs {
		tx.stopTimersLocked()
	}
	ep.clientTxs = make(map[string]*ClientTx)
	ep.serverTxs = make(map[string]*ServerTx)
	ep.unacked = make(map[ackKey]*ServerTx)
	ep.mu.Unlock()
	ep.tr.Close()
}

// NewBranch returns a fresh RFC 3261 branch token.
func (ep *Endpoint) NewBranch() string {
	ep.mu.Lock()
	ep.idCounter++
	n := ep.idCounter
	ep.mu.Unlock()
	return fmt.Sprintf("%s-%s-%d", BranchPrefix, ep.tr.LocalAddr(), n)
}

// NewTag returns a fresh dialog tag.
func (ep *Endpoint) NewTag() string {
	ep.mu.Lock()
	ep.idCounter++
	n := ep.idCounter
	ep.mu.Unlock()
	return fmt.Sprintf("t%d-%s", n, ep.tr.LocalAddr())
}

// NewCallID returns a fresh Call-ID.
func (ep *Endpoint) NewCallID() string {
	ep.mu.Lock()
	ep.idCounter++
	n := ep.idCounter
	ep.mu.Unlock()
	return fmt.Sprintf("c%d@%s", n, ep.tr.LocalAddr())
}

// SendRequest opens a client transaction for req toward dst, placing a
// fresh Via on top. onResponse receives every provisional and final
// response; a transaction timeout is delivered as a synthesized 408.
func (ep *Endpoint) SendRequest(dst string, req *Message, onResponse func(*Message)) *ClientTx {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(req.Via) == 0 {
		ep.idCounter++
		branch := fmt.Sprintf("%s-%s-%d", BranchPrefix, ep.tr.LocalAddr(), ep.idCounter)
		req.Via = []Via{{Transport: "UDP", SentBy: ep.tr.LocalAddr(), Branch: branch}}
	}
	return ep.startClientTxLocked(dst, req, onResponse)
}

// SendACK transmits a 2xx ACK, which per RFC 3261 is its own
// transaction that expects no response; it is fire-and-forget.
func (ep *Endpoint) SendACK(dst string, ack *Message) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ack.Via) == 0 {
		ep.idCounter++
		branch := fmt.Sprintf("%s-%s-%d", BranchPrefix, ep.tr.LocalAddr(), ep.idCounter)
		ack.Via = []Via{{Transport: "UDP", SentBy: ep.tr.LocalAddr(), Branch: branch}}
	}
	ep.sendWireLocked(dst, ack.Marshal(), ack)
}

// sendWireLocked transmits and counts an outbound message.
func (ep *Endpoint) sendWireLocked(dst string, wire []byte, m *Message) {
	ep.sent.add(m)
	if ep.tm != nil {
		ep.tm.sent[kindOf(m)].Inc()
	}
	ep.tr.Send(dst, wire)
}

// handleData is the transport receiver: parse, demux to transactions,
// surface new work to the TU.
func (ep *Endpoint) handleData(src string, data []byte) {
	msg, err := Parse(data)
	if err != nil {
		ep.mu.Lock()
		ep.stats.ParseErrors++
		if ep.tm != nil {
			ep.tm.parseErr.Inc()
		}
		ep.mu.Unlock()
		return
	}

	ep.mu.Lock()
	ep.recv.add(msg)
	if ep.tm != nil {
		ep.tm.recv[kindOf(msg)].Inc()
	}
	var after func()
	switch {
	case msg.IsResponse():
		if tx, ok := ep.clientTxs[msg.TransactionKey()]; ok {
			after = tx.handleResponseLocked(msg)
		} else {
			ep.stats.StrayResponses++
			if ep.tm != nil {
				ep.tm.stray.Inc()
			}
		}
	case msg.Method == ACK:
		if tx, ok := ep.serverTxs[msg.MatchingInviteKey()]; ok && tx.isInvite {
			// ACK for a non-2xx final: same branch as the INVITE.
			after = tx.handleAckLocked(msg)
		} else {
			// ACK for a 2xx carries a new branch (it is its own
			// transaction, RFC 3261 13.2.2.4): quiet the matching
			// INVITE server transaction's 2xx retransmissions, then
			// hand the ACK to the TU for dialog confirmation.
			if tx, ok := ep.unacked[ackKey{msg.CallID, msg.CSeq.Seq}]; ok {
				tx.ackedLocked()
			}
			if ep.handler != nil {
				h := ep.handler
				after = func() { h(nil, msg, src) }
			}
		}
	case msg.Method == CANCEL:
		// CANCEL matches the INVITE transaction by branch (RFC 3261
		// 9.2). The transaction layer answers the CANCEL with 200 (or
		// 481 when nothing matches); the TU then rejects the INVITE.
		resp := msg.Response(StatusOK)
		if tx, ok := ep.serverTxs[msg.MatchingInviteKey()]; ok && tx.isInvite {
			ep.sendWireLocked(src, resp.Marshal(), resp)
			if tx.lastCode < 200 && tx.onCancel != nil {
				fn := tx.onCancel
				after = func() { fn(msg) }
			}
		} else {
			resp.StatusCode = 481
			resp.ReasonStr = "Call/Transaction Does Not Exist"
			ep.sendWireLocked(src, resp.Marshal(), resp)
		}
	default:
		key := msg.TransactionKey()
		if tx, ok := ep.serverTxs[key]; ok {
			// Request retransmission: replay the last response.
			if tx.lastWire != nil {
				ep.stats.Retransmissions++
				if ep.tm != nil {
					ep.tm.retrans.Inc()
				}
				ep.tr.Send(tx.src, tx.lastWire)
			}
		} else {
			tx := &ServerTx{
				ep:       ep,
				key:      key,
				req:      msg,
				src:      src,
				isInvite: msg.Method == INVITE,
			}
			ep.serverTxs[key] = tx
			if tx.isInvite {
				ep.unacked[ackKey{msg.CallID, msg.CSeq.Seq}] = tx
			}
			if ep.handler != nil {
				h := ep.handler
				after = func() { h(tx, msg, src) }
			}
		}
	}
	ep.mu.Unlock()
	if after != nil {
		after()
	}
}

// StatsSnapshot returns a copy of the endpoint counters.
func (ep *Endpoint) StatsSnapshot() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	out := ep.stats
	out.Sent = ep.sent.snapshot()
	out.Received = ep.recv.snapshot()
	return out
}

// ActiveTransactions reports the live client+server transaction count,
// used by tests to verify transactions are reaped.
func (ep *Endpoint) ActiveTransactions() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.clientTxs) + len(ep.serverTxs)
}

// UnackedInvites reports the size of the 2xx-ACK index. Every entry is
// also a server transaction, so it must read zero whenever
// ActiveTransactions does.
func (ep *Endpoint) UnackedInvites() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.unacked)
}
