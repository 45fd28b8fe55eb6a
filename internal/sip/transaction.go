package sip

import (
	"time"

	"repro/internal/transport"
)

// RFC 3261 timer values. T1 is the RTT estimate; the retransmission
// machinery derives everything else from it.
const (
	T1 = 500 * time.Millisecond
	T2 = 4 * time.Second
	// TimerB/F: transaction timeout, 64·T1.
	TransactionTimeout = 64 * T1
	// CompletedLinger stands in for Timers D, I and J: how long a
	// transaction whose final response has been sent (non-INVITE
	// server), ACKed (INVITE server) or received and ACKed (non-2xx,
	// client INVITE) stays to absorb retransmissions.
	CompletedLinger = 5 * time.Second
)

// ClientTx is a client transaction: one request, its retransmissions,
// and the responses that match its branch.
type ClientTx struct {
	ep         *Endpoint
	key        txKey
	req        *Message
	wire       []byte
	dst        string
	isInvite   bool
	onResponse func(*Message)

	interval   time.Duration
	retransmit transport.Timer
	timeout    transport.Timer
	// terminated is set once the endpoint has dropped the transaction:
	// at its final response, its timeout or Terminate.
	terminated bool
}

// Request returns the transaction's request.
func (tx *ClientTx) Request() *Message { return tx.req }

// ServerTx is a server transaction: one received request and the
// response retransmission state. Once it lingers (lingerLocked) the
// endpoint keeps only a log entry for it and drops it.
type ServerTx struct {
	ep       *Endpoint
	key      txKey // owns its strings, see txKey.owned
	req      *Message
	src      string
	isInvite bool
	// due is when the transaction's linger runs out, 0 before it starts.
	due       time.Duration
	lastWire  []byte
	lastCode  int
	onCancel  func(*Message)
	retrans   transport.Timer
	interval  time.Duration
	destroyTm transport.Timer // Timer H
}

// Request returns the request that opened the transaction, or nil once
// the transaction lingers.
func (tx *ServerTx) Request() *Message { return tx.req }

// OnCancel installs a callback invoked when a CANCEL matching this
// INVITE transaction arrives before a final response. The transaction
// layer answers the CANCEL itself with 200; the callback is where the
// TU responds 487 on the INVITE (RFC 3261 9.2).
func (tx *ServerTx) OnCancel(fn func(*Message)) { tx.onCancel = fn }

// Respond sends a response on the transaction. Provisional responses
// may be followed by more responses; the first final response arms the
// retransmission machinery for INVITE transactions until the ACK
// arrives. Respond is safe to call from endpoint callbacks.
func (tx *ServerTx) Respond(resp *Message) {
	tx.ep.mu.Lock()
	defer tx.ep.mu.Unlock()
	tx.respondLocked(resp)
}

func (tx *ServerTx) respondLocked(resp *Message) {
	wire := tx.ep.sendLocked(tx.src, resp)
	if tx.due != 0 {
		// Lingering: a later response replaces the bytes replayed, not
		// the deadline.
		tx.ep.relogLocked(tx, wire)
		return
	}
	tx.lastCode = resp.StatusCode
	if resp.StatusCode >= 200 && !tx.isInvite {
		// Non-INVITE: linger in Completed to absorb request
		// retransmissions, then vanish (Timer J).
		tx.lingerLocked(wire)
		return
	}
	// The copy kept for replays reuses the last one's capacity: a final
	// usually follows a provisional of about its size.
	tx.lastWire = append(tx.lastWire[:0], wire...)
	if resp.StatusCode < 200 || tx.destroyTm != nil {
		// A later final replaces the bytes Timer G resends, not the
		// timers: one chain and one Timer H.
		return
	}
	// Retransmit the final response until ACK (Timer G/H). This
	// deliberately covers 2xx as well: the B2BUA owns reliability for
	// both, a documented simplification over RFC 3261 13.3.
	tx.interval = T1
	tx.armRetransmitLocked()
	tx.destroyTm = tx.ep.clock.AfterFunc(TransactionTimeout, func() {
		tx.ep.mu.Lock()
		defer tx.ep.mu.Unlock()
		if tx.due != 0 {
			return // an ACK came first
		}
		tx.stopTimersLocked()
		tx.forgetUnackedLocked()
		delete(tx.ep.serverTxs, tx.key)
	})
}

// lingerLocked enters the Completed linger (final response sent for a
// non-INVITE, ACK seen for an INVITE): the endpoint logs the key, the
// source and wire, the bytes a retransmitted request gets, and drops
// the transaction, so nothing that lingers can pin a parsed message or
// what a callback captured — for the PBX a bridge, its relay and their
// sockets. The log entry stays findable by key until the reaper passes
// it.
func (tx *ServerTx) lingerLocked(wire []byte) {
	tx.forgetUnackedLocked()
	kind := lingerServer
	if tx.isInvite {
		kind = lingerServerInvite
	}
	tx.due = tx.ep.lingerLocked(kind, tx.key, tx.src, wire)
	delete(tx.ep.serverTxs, tx.key)
	tx.req, tx.lastWire, tx.onCancel, tx.retrans, tx.destroyTm = nil, nil, nil, nil, nil
}

// forgetUnackedLocked takes an INVITE transaction out of the 2xx-ACK
// index, unless a later INVITE of the same dialog and CSeq replaced it
// there.
func (tx *ServerTx) forgetUnackedLocked() {
	if !tx.isInvite || tx.req == nil {
		return
	}
	k := ackKey{tx.req.CallID, tx.req.CSeq.Seq}
	if tx.ep.unacked[k] == tx {
		delete(tx.ep.unacked, k)
	}
}

func (tx *ServerTx) armRetransmitLocked() {
	tx.retrans = tx.ep.clock.AfterFunc(tx.interval, func() {
		tx.ep.mu.Lock()
		defer tx.ep.mu.Unlock()
		if tx.lastWire == nil {
			return // ACKed: lingering
		}
		tx.ep.replayLocked(tx.src, tx.lastWire)
		tx.interval *= 2
		if tx.interval > T2 {
			tx.interval = T2
		}
		tx.armRetransmitLocked()
	})
}

func (tx *ServerTx) stopTimersLocked() {
	if tx.retrans != nil {
		tx.retrans.Stop()
	}
	if tx.destroyTm != nil {
		tx.destroyTm.Stop()
	}
}

// ackedLocked quiets an INVITE transaction that an ACK of either kind
// has reached: no more response retransmissions, and a brief linger to
// absorb duplicate ACKs and requests.
func (tx *ServerTx) ackedLocked() {
	tx.stopTimersLocked()
	tx.lingerLocked(tx.lastWire)
}

// startClientTxLocked sends req as a new client transaction.
func (ep *Endpoint) startClientTxLocked(dst string, req *Message, onResponse func(*Message)) *ClientTx {
	tx := &ClientTx{
		ep:         ep,
		key:        req.key(),
		req:        req,
		dst:        dst,
		isInvite:   req.Method == INVITE,
		onResponse: onResponse,
		interval:   T1,
	}
	ep.clientTxs[tx.key] = tx
	tx.wire = append([]byte(nil), ep.sendLocked(dst, req)...)
	tx.armRetransmitLocked()
	tx.timeout = ep.clock.AfterFunc(TransactionTimeout, func() {
		ep.mu.Lock()
		if tx.terminated {
			ep.mu.Unlock()
			return
		}
		tx.terminateLocked()
		ep.stats.Timeouts++
		cb := tx.onResponse
		ep.mu.Unlock()
		if cb != nil {
			// Deliver the timeout as a synthesized 408 so user agents
			// have a single response-handling path.
			resp := req.Response(StatusRequestTimeout)
			cb(resp)
		}
	})
	return tx
}

func (tx *ClientTx) armRetransmitLocked() {
	// Non-INVITE requests retransmit with Timer E capped at T2;
	// INVITEs with Timer A doubling unbounded until Timer B.
	tx.retransmit = tx.ep.clock.AfterFunc(tx.interval, func() {
		tx.ep.mu.Lock()
		defer tx.ep.mu.Unlock()
		if tx.terminated {
			return
		}
		tx.ep.resendLocked(tx.dst, tx.wire, tx.req.Method)
		tx.interval *= 2
		if !tx.isInvite && tx.interval > T2 {
			tx.interval = T2
		}
		tx.armRetransmitLocked()
	})
}

// Terminate abandons the transaction: timers stop, the transaction is
// removed from the endpoint, and no further callbacks fire. It exists
// for user agents that enforce deadlines shorter than Timer B — e.g. a
// balancer's health probe giving up on an OPTIONS long before the 32 s
// transaction timeout.
func (tx *ClientTx) Terminate() {
	tx.ep.mu.Lock()
	if !tx.terminated {
		tx.terminateLocked()
	}
	tx.ep.mu.Unlock()
}

func (tx *ClientTx) terminateLocked() {
	tx.terminated = true
	tx.stopTimersLocked()
	delete(tx.ep.clientTxs, tx.key)
}

func (tx *ClientTx) stopTimersLocked() {
	if tx.retransmit != nil {
		tx.retransmit.Stop()
	}
	if tx.timeout != nil {
		tx.timeout.Stop()
	}
}

// handleResponseLocked processes a response matched to this
// transaction, returning the TU callback to hand it to after unlock
// (nil for none).
func (tx *ClientTx) handleResponseLocked(resp *Message) func(*Message) {
	if tx.terminated {
		return nil
	}
	if resp.StatusCode < 200 {
		// Provisional: stop retransmitting (Timer A only; keep B).
		if tx.retransmit != nil {
			tx.retransmit.Stop()
		}
		return tx.onResponse
	}
	tx.stopTimersLocked()
	if tx.isInvite && resp.StatusCode >= 300 {
		// The transaction layer ACKs non-2xx finals (RFC 3261 17.1.1.3)
		// and lingers to ACK their retransmissions.
		ack := NewRequest(ACK, tx.req.RequestURI, tx.req.From, resp.To, tx.req.CallID, tx.req.CSeq.Seq)
		ack.Via = []Via{tx.req.Via[0]}
		tx.ep.lingerLocked(lingerClientInvite, tx.key, tx.dst, tx.ep.sendLocked(tx.dst, ack))
	}
	tx.terminateLocked()
	return tx.onResponse
}
