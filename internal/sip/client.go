package sip

import (
	"strconv"
	"strings"
)

// The user-agent client rules of RFC 3261 that more than one user agent
// needs, kept here once: the split of a transport address into a URI,
// the digest REGISTER exchange (10.2, with RFC 2617's challenge and
// answer) and the CANCEL of a pending INVITE (9.1). The softphone, the
// registration generator and the B2BUA's callee leg all use these.

// AddrURI returns the SIP URI of user at the transport address addr,
// "host:port". It splits at the last colon outside brackets, so an
// IPv6 literal keeps its brackets; a missing or non-numeric port is
// DefaultPort.
func AddrURI(user, addr string) URI {
	host, port := addr, DefaultPort
	if i := strings.LastIndexByte(addr, ':'); i > strings.LastIndexByte(addr, ']') {
		host = addr[:i]
		if n, err := strconv.Atoi(addr[i+1:]); err == nil {
			port = n
		}
	}
	return NewURI(user, host, port)
}

// Account is a digest identity and the last challenge a registrar
// issued to it, which lets the next REGISTER authorize preemptively:
// one round trip instead of a 401 detour while the nonce stays inside
// the registrar's replay window.
type Account struct {
	User, Password string
	challenge      DigestChallenge // zero until the first 401
}

// Register runs one digest REGISTER exchange for acct: req, a REGISTER,
// goes to dst with an Authorization answering acct's cached challenge
// when there is one. A 401 replaces the cached challenge and is
// answered once, by a retry at CSeq+1 — for a first contact, or for a
// stale=true re-challenge when the cached nonce aged out of the replay
// window or the registrar lost its nonce cache. A second 401 ends the
// exchange, as does any other final response; done receives it, and
// stale says whether the retry answered a stale=true challenge.
//
// Each final response is handled inside enter when it is not nil — the
// caller's entry point, say its lock. enter may decline a response by
// not running the function it is given; the exchange then ends without
// done. acct's challenge is read and written under the endpoint's lock,
// so one account may register from any goroutine.
func (ep *Endpoint) Register(dst string, req *Message, acct *Account, enter func(func()), done func(resp *Message, stale bool)) {
	ep.mu.Lock()
	ch := acct.challenge
	ep.mu.Unlock()
	if ch.Nonce != "" {
		req.Authorization = ch.Answer(acct.User, acct.Password, REGISTER, req.RequestURI.String()).Header()
	}
	if enter == nil {
		enter = func(handle func()) { handle() }
	}
	// answered is the challenge req answers on a retry, nil on the first
	// send.
	var send func(req *Message, answered *DigestChallenge)
	send = func(req *Message, answered *DigestChallenge) {
		ep.SendRequest(dst, req, func(resp *Message) {
			if resp.StatusCode < 200 {
				return
			}
			enter(func() {
				if resp.StatusCode == StatusUnauthorized && answered == nil {
					if ch, ok := ParseDigestChallenge(resp.WWWAuthenticate); ok {
						ep.mu.Lock()
						acct.challenge = ch
						ep.mu.Unlock()
						retry := NewRequest(REGISTER, req.RequestURI, req.From, req.To, req.CallID, req.CSeq.Seq+1)
						retry.Contact = req.Contact
						retry.Expires = req.Expires
						retry.Authorization = ch.Answer(acct.User, acct.Password, REGISTER, req.RequestURI.String()).Header()
						send(retry, &ch)
						return
					}
				}
				done(resp, answered != nil && answered.Stale)
			})
		})
	}
	send(req, nil)
}

// Cancel abandons the pending INVITE of this transaction (RFC 3261
// 9.1): a CANCEL with the INVITE's Request-URI, From, To, Call-ID,
// CSeq number and top Via — the branch that matches the server
// transaction — sent where the INVITE went. The CANCEL's own 200 is
// absorbed; the INVITE's 487 reaches the INVITE's callback.
func (tx *ClientTx) Cancel() {
	inv := tx.req
	cancel := NewRequest(CANCEL, inv.RequestURI, inv.From, inv.To, inv.CallID, inv.CSeq.Seq)
	cancel.Via = []Via{inv.Via[0]}
	tx.ep.SendRequest(tx.dst, cancel, nil)
}
