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
	// TimerD: wait for response retransmissions after a non-2xx final.
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
	finalSeen  bool
	terminated bool
}

// Request returns the transaction's request.
func (tx *ClientTx) Request() *Message { return tx.req }

// ServerTx is a server transaction: one received request and the
// response retransmission state. Once it lingers (lingerLocked) it is a
// tombstone: key, source and the last response's wire bytes.
type ServerTx struct {
	ep        *Endpoint
	key       txKey // owns its strings, see txKey.owned
	req       *Message
	src       string
	isInvite  bool
	lingering bool
	lastWire  []byte
	lastCode  int
	acked     bool
	onAck     func(*Message)
	onCancel  func(*Message)
	retrans   transport.Timer
	interval  time.Duration
	destroyTm transport.Timer // Timer H
}

// Request returns the request that opened the transaction, or nil once
// the transaction lingers.
func (tx *ServerTx) Request() *Message { return tx.req }

// OnAck installs a callback invoked when the ACK for a final INVITE
// response arrives on this transaction (non-2xx case; the 2xx ACK is a
// separate transaction delivered to the endpoint handler).
func (tx *ServerTx) OnAck(fn func(*Message)) { tx.onAck = fn }

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
	// The copy kept for replays reuses the last one's capacity: a final
	// usually follows a provisional of about its size.
	tx.lastWire = append(tx.lastWire[:0], tx.ep.sendLocked(tx.src, resp)...)
	tx.lastCode = resp.StatusCode
	if resp.StatusCode < 200 {
		return
	}
	if tx.isInvite && !tx.acked {
		if tx.destroyTm != nil {
			// A later final replaces the bytes Timer G resends, not the
			// timers: one chain and one Timer H, as lingerLocked keeps one.
			return
		}
		// Retransmit the final response until ACK (Timer G/H). This
		// deliberately covers 2xx as well: the B2BUA owns reliability
		// for both, a documented simplification over RFC 3261 13.3.
		tx.interval = T1
		tx.armRetransmitLocked()
		tx.destroyTm = tx.ep.clock.AfterFunc(TransactionTimeout, func() {
			tx.ep.mu.Lock()
			tx.stopTimersLocked()
			tx.forgetUnackedLocked()
			delete(tx.ep.serverTxs, tx.key)
			tx.ep.mu.Unlock()
		})
	} else {
		// Non-INVITE: linger in Completed to absorb request
		// retransmissions, then vanish (Timer J).
		tx.lingerLocked()
	}
}

// lingerLocked enters the Completed linger (final response sent for a
// non-INVITE, ACK seen for an INVITE): the transaction stays findable
// by key to absorb retransmissions until the endpoint's reaper removes
// it. From here on it is a tombstone. The request, the TU's callbacks
// and the (stopped) timers are dropped, so nothing that lingers can pin
// a parsed message or what a callback captured — for the PBX a bridge,
// its relay and their sockets. A transaction lingers once: a later
// final response replaces the stored bytes, not the deadline.
func (tx *ServerTx) lingerLocked() {
	if tx.lingering {
		return
	}
	tx.lingering = true
	tx.forgetUnackedLocked()
	tx.req, tx.onAck, tx.onCancel, tx.retrans, tx.destroyTm = nil, nil, nil, nil, nil
	tx.ep.lingerLocked(lingerEntry{server: tx})
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
		if tx.acked || tx.lastWire == nil {
			return
		}
		tx.ep.resendLocked(tx.src, tx.lastWire)
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
	tx.acked = true
	tx.stopTimersLocked()
	tx.lingerLocked()
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
		if tx.terminated || tx.finalSeen {
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
		if tx.terminated || tx.finalSeen {
			return
		}
		tx.ep.resendLocked(tx.dst, tx.wire)
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
	if tx.finalSeen {
		// Retransmitted final response: re-ACK non-2xx, swallow.
		if tx.isInvite && resp.StatusCode >= 300 {
			tx.ep.sendAckForLocked(tx, resp)
		}
		return nil
	}
	tx.finalSeen = true
	tx.stopTimersLocked()
	if tx.isInvite && resp.StatusCode >= 300 {
		// The transaction layer ACKs non-2xx finals (RFC 3261 17.1.1.3)
		// and lingers to absorb retransmissions.
		tx.ep.sendAckForLocked(tx, resp)
		tx.ep.lingerLocked(lingerEntry{client: tx})
	} else {
		tx.terminateLocked()
	}
	return tx.onResponse
}

// sendAckForLocked emits the transaction-layer ACK for a non-2xx final
// response: same branch, same CSeq number, method ACK.
func (ep *Endpoint) sendAckForLocked(tx *ClientTx, resp *Message) {
	ack := NewRequest(ACK, tx.req.RequestURI, tx.req.From, resp.To, tx.req.CallID, tx.req.CSeq.Seq)
	ack.CSeq.Method = ACK
	ack.Via = []Via{tx.req.Via[0]}
	ep.sendLocked(tx.dst, ack)
}
