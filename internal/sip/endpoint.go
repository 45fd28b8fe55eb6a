package sip

import (
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
)

// RequestHandler is the transaction-user callback for new requests.
// tx is nil for ACK requests, which do not open server transactions.
type RequestHandler func(tx *ServerTx, req *Message, src string)

// Stats counts endpoint-level protocol activity: the endpoint's own
// books, which its sip_* families read (UseTelemetry) and Table I is
// summed from (monitor.Table). Every datagram the endpoint hands its
// transport is in Sent or Resent, under its kind.
type Stats struct {
	Sent     map[string]uint64 // by method or status code, e.g. "INVITE", "200"
	Received map[string]uint64
	// Resent counts the stored bytes sent again: requests a client
	// transaction retransmitted, finals a server transaction
	// retransmitted or replayed. Retransmissions is its total.
	Resent          map[string]uint64
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

// total sums the tally.
func (t msgTally) total() uint64 {
	var n uint64
	for _, v := range t.req {
		n += v
	}
	for _, v := range t.resp {
		n += v
	}
	return n
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

// txKey identifies a transaction by the RFC 3261 (17.1.3/17.2.3) branch
// rule — top Via branch plus CSeq method — as a comparable value, so
// finding a transaction builds no string.
type txKey struct {
	branch string
	method Method
}

// key returns the message's own transaction key: for an ACK or CANCEL
// that is its own transaction, not the INVITE's (see inviteKey).
func (m *Message) key() txKey { return txKey{m.branch(), m.CSeq.Method} }

// inviteKey returns the key of the INVITE transaction an ACK or CANCEL
// request targets: same branch, method INVITE.
func (m *Message) inviteKey() txKey { return txKey{m.branch(), INVITE} }

// owned returns k with storage of its own. A parsed message's strings
// are views into its text, and a key kept in a transaction table must
// not pin that text for as long as the transaction lingers.
func (k txKey) owned() txKey {
	k.branch = strings.Clone(k.branch)
	for _, m := range [...]Method{INVITE, ACK, BYE, CANCEL, REGISTER, OPTIONS, MESSAGE} {
		if k.method == m {
			k.method = m // the constant, not the view equal to it
			return k
		}
	}
	k.method = Method(strings.Clone(string(k.method)))
	return k
}

// Endpoint is the SIP transaction layer bound to one transport: it
// owns client and server transactions — their wire bytes and their
// deadlines — and message identifiers. User agents (softphones, the
// PBX) build on it.
type Endpoint struct {
	mu    sync.Mutex
	tr    transport.Transport
	clock transport.Clock

	handler   RequestHandler
	clientTxs map[txKey]*ClientTx
	serverTxs map[txKey]*ServerTx
	// unacked indexes the INVITE server transactions no ACK has reached
	// yet, so matching a 2xx ACK is one lookup however many
	// transactions linger.
	unacked map[ackKey]*ServerTx

	// scratch is where every outbound message is rendered, once, and
	// sent from; transactions keep an exact-size copy only of what RFC
	// 3261 has them send again.
	scratch []byte

	// The linger log (linger.go): chunks is a ring (its length a power
	// of two) of the chunkN live chunks, the oldest at chunkHead with
	// serial chunkSerial and its first entry not yet passed at headOff;
	// freeChunks are the ones reset. idx maps keys to entries, idxUsed
	// of its slots are taken (stale ones included), and idxSpare is a
	// cleared table of its size for the next rebuild. lingerN
	// transactions linger (rewrite entries not counted) in logBytes
	// bytes, and the reaper — armed only while lingerN > 0 — last ran
	// at reapedAt: an entry due by then is gone.
	chunks            [][]byte
	chunkHead, chunkN int
	chunkSerial       uint32
	headOff           int
	freeChunks        [][]byte
	idx, idxSpare     []lingerSlot
	idxUsed           int
	seed              maphash.Seed
	lingerN, logBytes int
	reapedAt          time.Duration
	reaper            transport.RearmTimer
	reaperRuns        uint64

	idCounter          uint64
	sent, recv, resent msgTally
	stats              Stats // the tallies' fields stay zero; see StatsSnapshot
}

// NewEndpoint creates an endpoint on the given transport and clock and
// starts receiving.
func NewEndpoint(tr transport.Transport, clock transport.Clock) *Endpoint {
	ep := &Endpoint{
		tr:        tr,
		clock:     clock,
		clientTxs: make(map[txKey]*ClientTx),
		serverTxs: make(map[txKey]*ServerTx),
		unacked:   make(map[ackKey]*ServerTx),
		seed:      maphash.MakeSeed(),
		sent:      newMsgTally(),
		recv:      newMsgTally(),
		resent:    newMsgTally(),
	}
	ep.reaper = transport.NewRearmTimer(clock, ep.reap)
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

// Close disarms the reaper and releases the transport.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	ep.reaper.Stop()
	ep.mu.Unlock()
	return ep.tr.Close()
}

// Crash simulates abrupt process death: every client and server
// transaction is dropped on the floor — no farewell responses, no
// timeout callbacks, no timer firings — and the transport is closed so
// the port goes dark. Peers observe exactly what a real crashed UDP
// server produces: silence, then their own Timer B/F expiry.
func (ep *Endpoint) Crash() {
	ep.mu.Lock()
	for _, tx := range ep.clientTxs {
		tx.terminated = true
		tx.stopTimersLocked()
	}
	for _, tx := range ep.serverTxs {
		tx.stopTimersLocked()
	}
	ep.clientTxs = make(map[txKey]*ClientTx)
	ep.serverTxs = make(map[txKey]*ServerTx)
	ep.unacked = make(map[ackKey]*ServerTx)
	ep.dropLogLocked()
	ep.reaper.Stop()
	ep.mu.Unlock()
	ep.tr.Close()
}

// nextID returns the next value of the counter every identifier the
// endpoint mints is numbered from.
func (ep *Endpoint) nextID() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.idCounter++
	return ep.idCounter
}

// branchToken renders "z9hG4bK-<addr>-<n>".
func branchToken(addr string, n uint64) string {
	var a [64]byte // on the stack: the string is the one allocation
	b := append(a[:0], BranchPrefix...)
	b = append(b, '-')
	b = append(b, addr...)
	b = append(b, '-')
	return string(strconv.AppendUint(b, n, 10))
}

// NewTag returns a fresh dialog tag, "t<n>-<addr>".
func (ep *Endpoint) NewTag() string { return ep.newID('t', '-') }

// NewCallID returns a fresh Call-ID, "c<n>@<addr>".
func (ep *Endpoint) NewCallID() string { return ep.newID('c', '@') }

func (ep *Endpoint) newID(prefix, sep byte) string {
	var a [64]byte
	b := append(a[:0], prefix)
	b = strconv.AppendUint(b, ep.nextID(), 10)
	b = append(b, sep)
	return string(append(b, ep.tr.LocalAddr()...))
}

// topViaLocked puts a fresh Via on a request that has none.
func (ep *Endpoint) topViaLocked(req *Message) {
	if len(req.Via) != 0 {
		return
	}
	ep.idCounter++
	addr := ep.tr.LocalAddr()
	req.Via = []Via{{Transport: "UDP", SentBy: addr, Branch: branchToken(addr, ep.idCounter)}}
}

// SendRequest opens a client transaction for req toward dst, placing a
// fresh Via on top. onResponse receives every provisional and final
// response; a transaction timeout is delivered as a synthesized 408.
func (ep *Endpoint) SendRequest(dst string, req *Message, onResponse func(*Message)) *ClientTx {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.topViaLocked(req)
	return ep.startClientTxLocked(dst, req, onResponse)
}

// SendACK transmits a 2xx ACK, which per RFC 3261 is its own
// transaction that expects no response; it is fire-and-forget.
func (ep *Endpoint) SendACK(dst string, ack *Message) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.topViaLocked(ack)
	ep.sendLocked(dst, ack)
}

// sendLocked renders m into the endpoint's scratch buffer, transmits it
// from there and counts it. The returned bytes are the scratch buffer:
// valid until the next send, so a transaction that must send them again
// copies them.
func (ep *Endpoint) sendLocked(dst string, m *Message) []byte {
	ep.scratch = m.Append(ep.scratch[:0])
	ep.sent.add(m)
	ep.tr.Send(dst, ep.scratch)
	return ep.scratch
}

// resendLocked retransmits a client transaction's stored request,
// counting it under its method.
func (ep *Endpoint) resendLocked(dst string, wire []byte, m Method) {
	ep.resent.req[m]++
	ep.tr.Send(dst, wire)
}

// replayLocked retransmits or replays a server transaction's stored
// response, counting it under the status code its start line carries
// ("SIP/2.0 200 …": the endpoint rendered it).
func (ep *Endpoint) replayLocked(dst string, wire []byte) {
	ep.resent.resp[int(wire[8]-'0')*100+int(wire[9]-'0')*10+int(wire[10]-'0')]++
	ep.tr.Send(dst, wire)
}

// handleData is the transport receiver: parse, demux to transactions,
// surface new work to the TU.
func (ep *Endpoint) handleData(src string, data []byte) {
	msg, err := Parse(data)
	if err != nil {
		ep.mu.Lock()
		ep.stats.ParseErrors++
		ep.mu.Unlock()
		return
	}

	// What to call once ep.mu is released: the TU's handler with a new
	// request (tx stays nil for a 2xx ACK), or a transaction's callback
	// with the response, ACK or CANCEL that matched it.
	var (
		h  RequestHandler
		tx *ServerTx
		cb func(*Message)
	)
	ep.mu.Lock()
	ep.recv.add(msg)
	switch {
	case msg.IsResponse():
		if ctx, ok := ep.clientTxs[msg.key()]; ok {
			cb = ctx.handleResponseLocked(msg)
		} else if e, ok := ep.lingering(true, msg.key()); ok {
			// A client INVITE that ACKed a non-2xx final ACKs every
			// retransmission of it (RFC 3261 17.1.1.2) and absorbs
			// anything else.
			if msg.StatusCode >= 300 {
				ep.sent.req[ACK]++
				ep.tr.Send(string(e.addr), e.wire)
			}
		} else {
			ep.stats.StrayResponses++
		}
	case msg.Method == ACK:
		if inv, ok := ep.serverTxs[msg.inviteKey()]; ok && inv.isInvite {
			// ACK for a non-2xx final: same branch as the INVITE.
			inv.ackedLocked()
		} else if _, lingers := ep.lingering(false, msg.inviteKey()); !lingers {
			// ACK for a 2xx carries a new branch (it is its own
			// transaction, RFC 3261 13.2.2.4): quiet the matching
			// INVITE server transaction's 2xx retransmissions, then
			// hand the ACK to the TU for dialog confirmation.
			if inv, ok := ep.unacked[ackKey{msg.CallID, msg.CSeq.Seq}]; ok {
				inv.ackedLocked()
			}
			h = ep.handler
		}
		// Else a duplicate of a non-2xx ACK: the lingering INVITE absorbs it.
	case msg.Method == CANCEL:
		// CANCEL matches the INVITE transaction by branch (RFC 3261
		// 9.2). The transaction layer answers the CANCEL with 200 (or
		// 481 when nothing matches); the TU then rejects the INVITE.
		resp := msg.Response(StatusOK)
		if inv, ok := ep.serverTxs[msg.inviteKey()]; ok && inv.isInvite {
			if inv.lastCode < 200 {
				cb = inv.onCancel
			}
		} else if _, ok := ep.lingering(false, msg.inviteKey()); !ok {
			resp.StatusCode = 481
			resp.ReasonStr = "Call/Transaction Does Not Exist"
		}
		ep.sendLocked(src, resp)
	default:
		key := msg.key()
		if old, ok := ep.serverTxs[key]; ok {
			// Request retransmission: replay the last response.
			if old.lastWire != nil {
				ep.replayLocked(old.src, old.lastWire)
			}
		} else if e, ok := ep.lingering(false, key); ok {
			if len(e.wire) != 0 {
				ep.replayLocked(string(e.addr), e.wire)
			}
		} else {
			tx = &ServerTx{
				ep:       ep,
				key:      key.owned(),
				req:      msg,
				src:      src,
				isInvite: msg.Method == INVITE,
			}
			ep.serverTxs[tx.key] = tx
			if tx.isInvite {
				ep.unacked[ackKey{msg.CallID, msg.CSeq.Seq}] = tx
			}
			h = ep.handler
		}
	}
	ep.mu.Unlock()
	switch {
	case h != nil:
		h(tx, msg, src)
	case cb != nil:
		cb(msg)
	}
}

// StatsSnapshot returns a copy of the endpoint counters.
func (ep *Endpoint) StatsSnapshot() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	out := ep.stats
	out.Sent = ep.sent.snapshot()
	out.Received = ep.recv.snapshot()
	out.Resent = ep.resent.snapshot()
	out.Retransmissions = ep.resent.total()
	return out
}

// ActiveTransactions reports the client and server transaction count,
// lingering ones included, used by tests to verify transactions are
// reaped.
func (ep *Endpoint) ActiveTransactions() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.clientTxs) + len(ep.serverTxs) + ep.lingerN
}

// LingeringTransactions reports how many of the active transactions
// are in their Completed linger, waiting for the reaper.
func (ep *Endpoint) LingeringTransactions() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.lingerN
}

// LingeringBytes reports the size of the linger log: the bytes written
// to its live chunks, entries the reaper has passed included until
// their chunk is reset.
func (ep *Endpoint) LingeringBytes() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.logBytes
}

// ReaperRuns counts the reaper's sweeps.
func (ep *Endpoint) ReaperRuns() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.reaperRuns
}

// UnackedInvites reports the size of the 2xx-ACK index. Every entry is
// also a server transaction, so it must read zero whenever
// ActiveTransactions does.
func (ep *Endpoint) UnackedInvites() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.unacked)
}
