package sip

import (
	"sync"
	"time"

	"repro/internal/sdp"
	"repro/internal/transport"
)

// CallState tracks the lifecycle of a call leg.
type CallState int

// Call states, in normal progression order.
const (
	CallIdle CallState = iota
	CallCalling
	CallRinging
	CallEstablished
	CallTerminated
)

func (s CallState) String() string {
	switch s {
	case CallIdle:
		return "idle"
	case CallCalling:
		return "calling"
	case CallRinging:
		return "ringing"
	case CallEstablished:
		return "established"
	case CallTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// EndCause explains why a call ended.
type EndCause int

// End causes.
const (
	EndCompleted EndCause = iota // normal BYE after establishment
	EndRejected                  // final non-2xx to our INVITE
	EndTimeout                   // transaction timeout / no ACK
	EndRemoteBye                 // peer hung up
	EndCanceled                  // caller abandoned before answer (CANCEL)
)

func (c EndCause) String() string {
	switch c {
	case EndCompleted:
		return "completed"
	case EndRejected:
		return "rejected"
	case EndTimeout:
		return "timeout"
	case EndRemoteBye:
		return "remote-bye"
	case EndCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// MediaInfo is the negotiated RTP rendezvous for one call leg.
type MediaInfo struct {
	LocalHost   string
	LocalPort   int
	RemoteHost  string
	RemotePort  int
	PayloadType int
}

// Call is one dialog from this phone's perspective.
type Call struct {
	phone *Phone

	CallID    string
	localTag  string
	remoteTag string
	localSeq  uint32
	remote    string // transport address for in-dialog requests
	incoming  bool

	state          CallState
	cause          EndCause
	status         int // final SIP status for rejected calls
	retryAfter     int // Retry-After seconds from the rejecting response
	overloadWindow int // X-Overload-Window seconds from the final response

	localSDP  *sdp.Session
	remoteSDP *sdp.Session

	invitedAt     time.Duration
	establishedAt time.Duration
	endedAt       time.Duration

	// OnEstablished fires when the dialog is confirmed (UAC: 200
	// received and ACK sent; UAS: ACK received). Media may start.
	OnEstablished func(c *Call)
	// OnEnded fires exactly once when the call leaves Established or
	// fails to get there.
	OnEnded func(c *Call)
	// OnRinging fires on 180 (UAC only).
	OnRinging func(c *Call)

	answerTimer transport.Timer
	ackTimer    transport.Timer

	inviteTx   *ClientTx // UAC: the INVITE transaction, for CANCEL
	cancelled  bool      // UAC requested cancellation
	redirected bool      // a 3xx has already been followed
}

// State returns the call state.
func (c *Call) State() CallState { return c.state }

// Cause returns why the call ended (valid once terminated).
func (c *Call) Cause() EndCause { return c.cause }

// RejectStatus returns the SIP status code that rejected the call
// (valid when Cause() == EndRejected).
func (c *Call) RejectStatus() int { return c.status }

// RetryAfter returns the Retry-After value (seconds) from the response
// that rejected the call, or zero if the server gave no hint. Overload
// controllers use it to tell clients how long to back off.
func (c *Call) RetryAfter() int { return c.retryAfter }

// OverloadWindow returns the X-Overload-Window value (seconds) from the
// final INVITE response — accepting or rejecting — or zero when the
// server sent none. Unlike Retry-After it is a rate signal for the
// whole upstream, not backoff for this one call: generators and
// balancers withhold new work for the window (RFC 7339-style).
func (c *Call) OverloadWindow() int { return c.overloadWindow }

// SetupTime returns INVITE-to-establishment latency; zero until
// established.
func (c *Call) SetupTime() time.Duration {
	if c.establishedAt == 0 {
		return 0
	}
	return c.establishedAt - c.invitedAt
}

// Duration returns establishment-to-end talk time.
func (c *Call) Duration() time.Duration {
	if c.establishedAt == 0 || c.endedAt == 0 {
		return 0
	}
	return c.endedAt - c.establishedAt
}

// Media returns the negotiated RTP addresses. Valid once established.
// The payload type is read from the answer side of the offer/answer
// exchange — the remote SDP for outgoing calls, the local SDP for
// incoming ones (reading the incoming offer's first codec would report
// the caller's preference, not the negotiated selection).
func (c *Call) Media() MediaInfo {
	mi := MediaInfo{PayloadType: 0}
	if c.localSDP != nil {
		mi.LocalHost, mi.LocalPort = c.localSDP.Host, c.localSDP.Port
	}
	if c.remoteSDP != nil {
		mi.RemoteHost, mi.RemotePort = c.remoteSDP.Host, c.remoteSDP.Port
	}
	answer := c.remoteSDP
	if c.incoming {
		answer = c.localSDP
	}
	if answer != nil && len(answer.PayloadTypes) > 0 {
		mi.PayloadType = answer.PayloadTypes[0]
	}
	return mi
}

// PhoneConfig configures a softphone.
type PhoneConfig struct {
	// User is the SIP username (also the dialled extension).
	User string
	// Password authenticates REGISTER (and INVITE when challenged).
	Password string
	// Proxy is the PBX transport address all requests are sent to.
	Proxy string
	// MediaPort is the RTP port this phone advertises in SDP. Each
	// concurrent call gets MediaPort + 2·k for k = 0,1,2…
	MediaPort int
	// AnswerDelay is how long an incoming call rings before the
	// automatic 200 OK. Zero answers immediately after the 180.
	AnswerDelay time.Duration
	// AutoAnswer, when false, leaves answering to the application via
	// OnIncoming (the default true matches the SIPp UAS scenario).
	AutoAnswerDisabled bool
	// Codecs is the RTP payload-type preference list this phone offers
	// in outgoing calls and accepts on incoming ones. Empty means the
	// paper's G.711 pair {0, 8}.
	Codecs []int
}

// Phone is a softphone user agent: it registers with the PBX, places
// and receives calls, and exposes the negotiated media endpoints. It
// is the building block of the SIPp-style scenarios.
type Phone struct {
	ep  *Endpoint
	cfg PhoneConfig

	// cbMu orders callback installation against the receive path. In
	// the single-threaded simulator it is uncontended; over real UDP,
	// use Sync to install callbacks from other goroutines.
	cbMu sync.Mutex

	mu         sync.Mutex
	calls      map[string]*Call // by Call-ID
	portNext   int
	portFree   []int
	registered bool
	acct       Account

	// OnIncoming fires for each new incoming call before ringing.
	OnIncoming func(c *Call)
	// OnMessage fires for each received instant message (RFC 3428);
	// from is the sender's username.
	OnMessage func(from, body string)
}

// NewPhone creates a softphone on the endpoint. The endpoint's request
// handler is taken over by the phone.
func NewPhone(ep *Endpoint, cfg PhoneConfig) *Phone {
	if cfg.MediaPort == 0 {
		cfg.MediaPort = 40000
	}
	p := &Phone{ep: ep, cfg: cfg, calls: make(map[string]*Call), portNext: cfg.MediaPort,
		acct: Account{User: cfg.User, Password: cfg.Password}}
	ep.Handle(p.handleRequest)
	return p
}

// Endpoint returns the underlying SIP endpoint.
func (p *Phone) Endpoint() *Endpoint { return p.ep }

// Sync runs fn holding the phone's callback lock, establishing a
// happens-before edge with the receive path. Over real UDP, install
// phone- and call-level callbacks inside Sync when other traffic may
// already be flowing; in the simulator plain assignment is fine (the
// event loop is single-threaded). Callbacks themselves run outside the
// lock and must not call Sync.
func (p *Phone) Sync(fn func()) {
	p.cbMu.Lock()
	defer p.cbMu.Unlock()
	fn()
}

// loadCB snapshots a callback slot under the callback lock.
func loadCB[T any](p *Phone, slot *T) T {
	p.cbMu.Lock()
	defer p.cbMu.Unlock()
	return *slot
}

// User returns the configured username.
func (p *Phone) User() string { return p.cfg.User }

// host returns this phone's transport host (for SDP c= lines).
func (p *Phone) host() string { return p.localURI().Host }

func (p *Phone) allocMediaPort() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.portFree); n > 0 {
		port := p.portFree[n-1]
		p.portFree = p.portFree[:n-1]
		return port
	}
	port := p.portNext
	p.portNext += 2 // leave room for the odd RTCP port convention
	return port
}

func (p *Phone) freeMediaPort(port int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.portFree = append(p.portFree, port)
}

func (p *Phone) localURI() URI { return AddrURI(p.cfg.User, p.ep.Addr()) }

// Register runs one digest REGISTER exchange (Endpoint.Register) for
// the phone's account, binding it at the phone's own address for the
// given lifetime. done (optional) receives the outcome.
func (p *Phone) Register(expires time.Duration, done func(ok bool)) {
	req := NewRequest(REGISTER, AddrURI("", p.cfg.Proxy),
		NameAddr{URI: p.localURI(), Tag: p.ep.NewTag()},
		NameAddr{URI: p.localURI()},
		p.ep.NewCallID(), 1)
	contact := NameAddr{URI: p.localURI()}
	req.Contact = &contact
	req.Expires = int(expires / time.Second)
	p.ep.Register(p.cfg.Proxy, req, &p.acct, nil, func(resp *Message, _ bool) {
		ok := resp.StatusCode == StatusOK
		if ok {
			p.mu.Lock()
			p.registered = true
			p.mu.Unlock()
		}
		if done != nil {
			done(ok)
		}
	})
}

// Registered reports whether a REGISTER succeeded.
func (p *Phone) Registered() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.registered
}

// Invite places a call to target (an extension/username at the PBX).
// The returned Call reports progress through its callbacks, which the
// caller should set before the first event loop turn after Invite —
// in simulation, before returning control to the scheduler. Over real
// UDP, where a response can race the assignments, use
// InviteWithHandlers instead.
func (p *Phone) Invite(target string) *Call {
	return p.invite(target, p.codecs(), nil, nil, nil)
}

// InviteCodecs places a call offering the given payload-type
// preference list instead of the phone's configured one — how a
// mixed-codec workload varies the offer per call. An empty list falls
// back to the configured default.
func (p *Phone) InviteCodecs(target string, payloadTypes []int) *Call {
	if len(payloadTypes) == 0 {
		payloadTypes = p.codecs()
	}
	return p.invite(target, payloadTypes, nil, nil, nil)
}

// InviteWithHandlers places a call with its callbacks installed before
// the INVITE is transmitted, so no response can be processed before
// the application sees it — the race-free form for real-socket use.
// Any handler may be nil.
func (p *Phone) InviteWithHandlers(target string, onRinging, onEstablished, onEnded func(*Call)) *Call {
	return p.invite(target, p.codecs(), onRinging, onEstablished, onEnded)
}

// codecs returns the phone's payload-type preference list.
func (p *Phone) codecs() []int {
	if len(p.cfg.Codecs) > 0 {
		return p.cfg.Codecs
	}
	return []int{0, 8}
}

func (p *Phone) invite(target string, payloadTypes []int, onRinging, onEstablished, onEnded func(*Call)) *Call {
	callID := p.ep.NewCallID()
	c := &Call{
		phone:     p,
		CallID:    callID,
		localTag:  p.ep.NewTag(),
		localSeq:  1,
		remote:    p.cfg.Proxy,
		state:     CallCalling,
		invitedAt: p.ep.Clock().Now(),
	}
	c.localSDP = sdp.NewSessionWith(p.cfg.User, p.host(), p.allocMediaPort(), payloadTypes)
	c.OnRinging = onRinging
	c.OnEstablished = onEstablished
	c.OnEnded = onEnded

	p.mu.Lock()
	p.calls[callID] = c
	p.mu.Unlock()

	req := NewRequest(INVITE, AddrURI(target, p.cfg.Proxy),
		NameAddr{URI: p.localURI(), Tag: c.localTag},
		NameAddr{URI: AddrURI(target, p.cfg.Proxy)},
		callID, c.localSeq)
	contact := NameAddr{URI: p.localURI()}
	req.Contact = &contact
	req.ContentType = sdp.ContentType
	req.Body = c.localSDP.Marshal()

	c.inviteTx = p.ep.SendRequest(p.cfg.Proxy, req, func(resp *Message) {
		p.handleInviteResponse(c, req, resp)
	})
	return c
}

// Cancel abandons an outgoing call that has not been answered yet
// (RFC 3261 9.1): it sends a CANCEL matching the INVITE transaction.
// The call ends when the 487 Request Terminated arrives. Cancelling an
// established or already-terminated call is a no-op; use Hangup.
func (p *Phone) Cancel(c *Call) {
	if c.incoming || c.inviteTx == nil || c.cancelled ||
		c.state == CallEstablished || c.state == CallTerminated {
		return
	}
	c.cancelled = true
	c.inviteTx.Cancel() // the INVITE's 487 ends the call
}

func (p *Phone) handleInviteResponse(c *Call, invite *Message, resp *Message) {
	if c.state == CallTerminated {
		return
	}
	switch {
	case resp.StatusCode == StatusTrying:
		// progress only
	case resp.StatusCode < 200:
		c.state = CallRinging
		if resp.To.Tag != "" {
			c.remoteTag = resp.To.Tag
		}
		if fn := loadCB(p, &c.OnRinging); fn != nil && resp.StatusCode == StatusRinging {
			fn(c)
		}
	case resp.StatusCode == StatusOK:
		c.remoteTag = resp.To.Tag
		c.overloadWindow = resp.OverloadWindow()
		if len(resp.Body) > 0 {
			if s, err := sdp.Parse(resp.Body); err == nil {
				c.remoteSDP = s
			}
		}
		if resp.Contact != nil {
			c.remote = resp.Contact.URI.HostPort()
		}
		// ACK the 2xx (its own transaction per RFC 3261 13.2.2.4).
		ack := NewRequest(ACK, invite.RequestURI, invite.From,
			NameAddr{URI: invite.To.URI, Tag: c.remoteTag}, c.CallID, invite.CSeq.Seq)
		p.ep.SendACK(c.remote, ack)
		if c.state != CallEstablished {
			c.state = CallEstablished
			c.establishedAt = p.ep.Clock().Now()
			if fn := loadCB(p, &c.OnEstablished); fn != nil {
				fn(c)
			}
		}
	case resp.StatusCode >= 300 && resp.StatusCode < 400:
		// Redirect (e.g. 302 from a load-balancing front): follow the
		// Contact once with a fresh INVITE in the same call.
		if resp.Contact == nil || c.redirected || c.cancelled {
			p.endCall(c, EndRejected, resp.StatusCode)
			return
		}
		c.redirected = true
		c.localSeq++
		target := resp.Contact.URI
		c.remote = target.HostPort()
		redo := NewRequest(INVITE, target, invite.From,
			NameAddr{URI: invite.To.URI}, c.CallID, c.localSeq)
		contact := NameAddr{URI: p.localURI()}
		redo.Contact = &contact
		redo.ContentType = invite.ContentType
		redo.Body = invite.Body
		c.inviteTx = p.ep.SendRequest(c.remote, redo, func(r2 *Message) {
			p.handleInviteResponse(c, redo, r2)
		})
	default: // final non-2xx: call rejected (blocked, busy, timeout…)
		cause := EndRejected
		switch {
		case c.cancelled:
			cause = EndCanceled
		case resp.StatusCode == StatusRequestTimeout:
			cause = EndTimeout
		}
		c.retryAfter = resp.RetryAfter
		c.overloadWindow = resp.OverloadWindow()
		p.endCall(c, cause, resp.StatusCode)
	}
}

// Hangup sends BYE on an established call. On a not-yet-established
// outgoing call it is a no-op; use Cancel.
func (p *Phone) Hangup(c *Call) {
	if c.state != CallEstablished {
		return
	}
	c.localSeq++
	bye := NewRequest(BYE, AddrURI("", c.remote),
		NameAddr{URI: p.localURI(), Tag: c.localTag},
		NameAddr{URI: p.localURI(), Tag: c.remoteTag}, // URI unused by peer matching
		c.CallID, c.localSeq)
	if c.incoming {
		// Preserve From/To orientation of the dialog.
		bye.From = NameAddr{URI: p.localURI(), Tag: c.localTag}
		bye.To = NameAddr{URI: p.localURI(), Tag: c.remoteTag}
	}
	p.ep.SendRequest(c.remote, bye, func(resp *Message) {
		p.endCall(c, EndCompleted, resp.StatusCode)
	})
}

func (p *Phone) endCall(c *Call, cause EndCause, status int) {
	if c.state == CallTerminated {
		return
	}
	c.state = CallTerminated
	c.cause = cause
	c.status = status
	c.endedAt = p.ep.Clock().Now()
	if c.answerTimer != nil {
		c.answerTimer.Stop()
	}
	if c.ackTimer != nil {
		c.ackTimer.Stop()
	}
	if c.localSDP != nil {
		p.freeMediaPort(c.localSDP.Port)
	}
	p.mu.Lock()
	delete(p.calls, c.CallID)
	p.mu.Unlock()
	if fn := loadCB(p, &c.OnEnded); fn != nil {
		fn(c)
	}
}

// handleRequest is the endpoint TU: incoming INVITE/ACK/BYE.
func (p *Phone) handleRequest(tx *ServerTx, req *Message, src string) {
	switch req.Method {
	case INVITE:
		p.handleInvite(tx, req, src)
	case ACK:
		p.mu.Lock()
		c := p.calls[req.CallID]
		p.mu.Unlock()
		if c != nil && c.incoming && c.state != CallEstablished && c.state != CallTerminated {
			c.state = CallEstablished
			c.establishedAt = p.ep.Clock().Now()
			if c.ackTimer != nil {
				c.ackTimer.Stop()
			}
			if fn := loadCB(p, &c.OnEstablished); fn != nil {
				fn(c)
			}
		}
	case BYE:
		p.mu.Lock()
		c := p.calls[req.CallID]
		p.mu.Unlock()
		resp := req.Response(StatusOK)
		tx.Respond(resp)
		if c != nil {
			p.endCall(c, EndRemoteBye, StatusOK)
		}
	case MESSAGE:
		tx.Respond(req.Response(StatusOK))
		if fn := loadCB(p, &p.OnMessage); fn != nil {
			fn(req.From.URI.User, string(req.Body))
		}
	case OPTIONS:
		tx.Respond(req.Response(StatusOK))
	default:
		tx.Respond(req.Response(StatusInternalError))
	}
}

// SendMessage sends an instant message to target through the PBX
// (RFC 3428 pager mode: one transaction, no dialog). done, if not nil,
// receives the final status code.
func (p *Phone) SendMessage(target, body string, done func(status int)) {
	to := AddrURI(target, p.cfg.Proxy)
	req := NewRequest(MESSAGE, to,
		NameAddr{URI: p.localURI(), Tag: p.ep.NewTag()},
		NameAddr{URI: to},
		p.ep.NewCallID(), 1)
	req.ContentType = "text/plain"
	req.Body = []byte(body)
	p.ep.SendRequest(p.cfg.Proxy, req, func(resp *Message) {
		if resp.StatusCode >= 200 && done != nil {
			done(resp.StatusCode)
		}
	})
}

func (p *Phone) handleInvite(tx *ServerTx, req *Message, src string) {
	offer, err := sdp.Parse(req.Body)
	if err != nil {
		tx.Respond(req.Response(StatusInternalError))
		return
	}
	c := &Call{
		phone:     p,
		CallID:    req.CallID,
		localTag:  p.ep.NewTag(),
		remoteTag: req.From.Tag,
		remote:    src,
		incoming:  true,
		state:     CallRinging,
		invitedAt: p.ep.Clock().Now(),
	}
	if req.Contact != nil {
		c.remote = req.Contact.URI.HostPort()
	}
	c.remoteSDP = offer
	mediaPort := p.allocMediaPort()
	answer, err := offer.Answer(p.cfg.User, p.host(), mediaPort, p.codecs())
	if err != nil {
		// RFC 3261 21.4.26: no codec in common.
		p.freeMediaPort(mediaPort)
		tx.Respond(req.Response(StatusNotAcceptableHere))
		return
	}
	c.localSDP = answer

	p.mu.Lock()
	p.calls[req.CallID] = c
	p.mu.Unlock()

	// Caller abandonment: answer the CANCEL's INVITE with 487 and end
	// the pending call.
	tx.OnCancel(func(*Message) {
		if c.state == CallEstablished || c.state == CallTerminated {
			return
		}
		terminated := req.Response(StatusRequestTerminated)
		terminated.To.Tag = c.localTag
		tx.Respond(terminated)
		p.endCall(c, EndCanceled, StatusRequestTerminated)
	})

	if fn := loadCB(p, &p.OnIncoming); fn != nil {
		fn(c)
	}
	if p.cfg.AutoAnswerDisabled {
		return
	}

	// Fig. 2 flow: the callee sends 180 Ringing then 200 OK (no 100).
	ringing := req.Response(StatusRinging)
	ringing.To.Tag = c.localTag
	tx.Respond(ringing)

	answerNow := func() {
		if c.state == CallTerminated {
			return
		}
		ok := req.Response(StatusOK)
		ok.To.Tag = c.localTag
		contact := NameAddr{URI: p.localURI()}
		ok.Contact = &contact
		ok.ContentType = sdp.ContentType
		ok.Body = c.localSDP.Marshal()
		tx.Respond(ok)
		// If no ACK ever arrives, tear the call down (Timer H path).
		c.ackTimer = p.ep.Clock().AfterFunc(TransactionTimeout, func() {
			if c.state != CallEstablished {
				p.endCall(c, EndTimeout, StatusRequestTimeout)
			}
		})
	}
	if p.cfg.AnswerDelay > 0 {
		c.answerTimer = p.ep.Clock().AfterFunc(p.cfg.AnswerDelay, answerNow)
	} else {
		answerNow()
	}
}

// ActiveCalls returns the number of live calls.
func (p *Phone) ActiveCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}
