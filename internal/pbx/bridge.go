package pbx

import (
	"time"

	"repro/internal/codec"
	"repro/internal/mos"
	"repro/internal/sdp"
	"repro/internal/sip"
)

// bridge is one call: the caller-facing leg (A, where the PBX is UAS)
// and its far end — the callee-facing leg (B, where the PBX is UAC),
// glued by an RTP relay, or for a voicemail deposit the mailbox.
type bridge struct {
	s *Server

	// cdr is the call's record, filled as the call happens (see CDR);
	// its CallID is the A leg's. okAt (the 200 OK forwarded to the
	// caller) and byeAt (the first BYE) complete the stamps the latency
	// histograms read when the call ends (endLocked).
	cdr         CDR
	okAt, byeAt time.Duration

	// A leg (caller side).
	aTx       *sip.ServerTx
	aInvite   *sip.Message
	aLocalTag string // the PBX's To tag on the A leg
	aRemote   string // caller's signalling address
	aSDP      *sdp.Session

	// B leg (callee side).
	bCallID    string
	bLocalTag  string // the PBX's From tag on the B leg
	bRemoteTag string
	bRemote    string // callee's signalling address
	bSeq       uint32
	bTx        *sip.ClientTx // the outbound INVITE, for CANCEL

	relay   *relay
	mailbox *mailbox // a voicemail deposit's far end (no relay, no B leg)

	// Codec negotiation outcome (valid once the B leg answered).
	aOfferPTs     []int // caller's offered payload types
	codecBr       codec.Bridge
	transcodeCost float64   // CPU percent charged while this bridge transcodes
	scoreProfile  mos.Codec // E-model profile for this call's CDR

	state    bridgeState
	canceled bool

	// degradeStage is the ladder rung active when the call was
	// admitted. Frozen here on purpose: codec actuators read this
	// snapshot, never the live stage, so an established call can never
	// be renegotiated by a later ladder move (chaos invariant).
	degradeStage DegradationStage
	// negotiated flags that negotiateBridgeCodecs already ran for this
	// bridge; a second run means a mid-call renegotiation, which the
	// ladder must never cause (Counters.Renegotiations sentinel).
	negotiated bool
}

type bridgeState int

const (
	bridgeProceeding bridgeState = iota
	bridgeEstablished
	bridgeTerminated
)

// handleInvite runs the paper's Fig. 2 flow from the PBX's seat.
func (s *Server) handleInvite(tx *sip.ServerTx, req *sip.Message, src string) {
	now := s.ep.Clock().Now()
	s.mu.Lock()
	if _, live := s.bridges[req.CallID]; live {
		// An INVITE on a live Call-ID is no new call. Until in-dialog
		// requests are relayed, refuse it and leave the session as it
		// was (RFC 3261 §14.2): no attempt, no channel, no record.
		s.mu.Unlock()
		resp := req.Response(sip.StatusNotAcceptableHere)
		if resp.To.Tag == "" {
			resp.To.Tag = s.ep.NewTag()
		}
		tx.Respond(resp)
		return
	}
	s.counters.Attempts++
	s.attemptsWindow++
	draining := s.draining
	s.mu.Unlock()
	s.flight.record(now, req.CallID, stageInvite)

	// Administrative drain: shed new work, keep established calls.
	if draining {
		s.mu.Lock()
		s.shedLocked(tx, req, shedDrain, drainRetryAfter, 0)
		return
	}

	// Authentication (optional; see Config.AuthInvites).
	if s.cfg.AuthInvites {
		if !s.authorizeInvite(tx, req) {
			return
		}
	}

	// SDP offer from the caller.
	offer, err := sdp.Parse(req.Body)
	if err != nil {
		s.rejectInvite(tx, req, req.Response(sip.StatusInternalError), false)
		return
	}

	// RFC 3264: reject offers sharing no codec with the PBX up front
	// (488 Not Acceptable Here), before any channel or callee work.
	if _, ok := codec.Negotiate(offer.PayloadTypes, s.codecs); !ok {
		s.mu.Lock()
		s.counters.CodecRejected++
		s.mu.Unlock()
		s.rejectInvite(tx, req, req.Response(sip.StatusNotAcceptableHere), false)
		return
	}

	// Resolve the callee: dialplan rules first (trunk routes to the
	// telephone exchange, explicit rejections), then registered users.
	callee := req.RequestURI.User
	if route, matched := s.cfg.Dialplan.Resolve(callee); matched {
		switch route.Kind {
		case RouteTrunk:
			ok, predicted, stage := s.admitCall(tx, req, offer)
			if !ok {
				return
			}
			s.mu.Lock()
			s.counters.TrunkCalls++
			s.mu.Unlock()
			s.bridgeTo(tx, req, src, route.Target, route.Trunk, offer, now, predicted, stage)
			return
		case RouteReject:
			s.rejectInvite(tx, req, req.Response(route.Status), false)
			return
		default:
			callee = route.Target
		}
	}
	calleeContact, registered := s.dir.Contact(callee, now)
	if !registered {
		// Unreachable user: voicemail answers when enabled and the
		// user is provisioned; otherwise 404.
		if _, err := s.dir.Lookup(callee); err == nil && s.cfg.Voicemail {
			if ok, predicted, stage := s.admitCall(tx, req, offer); ok {
				s.answerVoicemail(tx, req, src, callee, offer, now, predicted, stage)
			}
			return
		}
		s.rejectInvite(tx, req, req.Response(sip.StatusNotFound), false)
		return
	}

	ok, predicted, stage := s.admitCall(tx, req, offer)
	if !ok {
		return
	}
	s.bridgeTo(tx, req, src, callee, calleeContact, offer, now, predicted, stage)
}

// bridgeTo runs the B2BUA flow toward a resolved destination (a
// registered contact or a trunk gateway) for an INVITE that arrived at
// start. Admission must already have been charged.
func (s *Server) bridgeTo(tx *sip.ServerTx, req *sip.Message, src, callee, calleeContact string, offer *sdp.Session, start time.Duration, predicted float64, stage DegradationStage) {
	br := s.newBridge(tx, req, src, callee, offer, start, predicted, stage)

	// 100 Trying toward the caller — the "100 TRY" row of Table I.
	trying := req.Response(sip.StatusTrying)
	tx.Respond(trying)

	// Caller abandonment (RFC 3261 9.2): answer the INVITE with 487
	// and propagate the CANCEL to the callee leg.
	tx.OnCancel(func(*sip.Message) {
		if br.state != bridgeProceeding {
			return
		}
		terminated := req.Response(sip.StatusRequestTerminated)
		terminated.To.Tag = br.aLocalTag
		tx.Respond(terminated)
		if br.bTx != nil {
			br.bTx.Cancel() // the callee leg is still pending
		}
		br.canceled = true
		s.removeBridge(br, false)
	})

	// Media relay between the two legs.
	if s.cfg.RelayRTP {
		r, err := s.newRelay(br, offer)
		if err != nil {
			s.releaseChannel()
			s.rejectInvite(tx, req, req.Response(sip.StatusInternalError), true)
			return
		}
		br.relay = r
	} else {
		// Signalling-only mode: legs exchange media directly.
		br.relay = nil
	}

	// Build the B-leg INVITE: fresh Call-ID and From tag (the B2BUA is
	// a new UA), caller identity preserved in the From URI.
	br.bCallID = s.ep.NewCallID()
	br.bLocalTag = s.ep.NewTag()
	br.bSeq = 1
	br.bRemote = calleeContact

	var bOffer *sdp.Session
	if br.relay != nil {
		// Re-offer toward the callee: the caller's mutually supported
		// preferences first so a shared codec wins (passthrough), then
		// the PBX's remaining codecs as transcode fallbacks. The
		// degradation ladder rewrites this list for *new* calls only
		// (the stage was frozen at admission): rung 2 drops the
		// transcode fallbacks so only passthrough can be answered, and
		// rung 1 re-orders the offer cheapest-bitrate-first
		// (G.711→G.729).
		var pts []int
		switch {
		case br.degradeStage >= StagePassthroughOnly:
			pts = codec.DegradedOrder(codec.MutualOffer(offer.PayloadTypes, s.codecs))
		case br.degradeStage >= StageCodecDowngrade:
			pts = codec.DegradedOrder(codec.BridgeOffer(offer.PayloadTypes, s.codecs))
		default:
			pts = codec.BridgeOffer(offer.PayloadTypes, s.codecs)
		}
		bOffer = sdp.NewSessionWith("asterisk", s.host, br.relay.bPort, pts)
	} else {
		bOffer = offer
	}
	calleeURI := sip.AddrURI(callee, calleeContact)
	bInvite := sip.NewRequest(sip.INVITE, calleeURI,
		sip.NameAddr{Display: req.From.Display, URI: req.From.URI, Tag: br.bLocalTag},
		sip.NameAddr{URI: calleeURI},
		br.bCallID, br.bSeq)
	contact := sip.NameAddr{URI: sip.AddrURI("asterisk", s.ep.Addr())}
	bInvite.Contact = &contact
	bInvite.ContentType = sdp.ContentType
	bInvite.Body = bOffer.Marshal()

	s.openCall(br)
	br.bTx = s.ep.SendRequest(calleeContact, bInvite, func(resp *sip.Message) {
		s.handleBLegResponse(br, resp)
	})
}

// newBridge opens the record of a call to callee whose INVITE arrived
// at start and was admitted with the predicted MOS at ladder rung
// stage: the A leg and the record, with no far end yet.
func (s *Server) newBridge(tx *sip.ServerTx, req *sip.Message, src, callee string, offer *sdp.Session, start time.Duration, predicted float64, stage DegradationStage) *bridge {
	// The record outlives the call, so its names must not keep the parsed
	// INVITE's text alive: one copy holds all three.
	ids := req.CallID + req.From.URI.User + callee
	nCallID, nCaller := len(req.CallID), len(req.CallID)+len(req.From.URI.User)
	br := &bridge{
		s: s,
		cdr: CDR{
			CallID:       ids[:nCallID],
			Caller:       ids[nCallID:nCaller],
			Callee:       ids[nCaller:],
			StartedAt:    start,
			PredictedMOS: predicted,
			Admission:    s.admissionName,
			Backend:      s.cfg.Instance,
		},
		aTx:       tx,
		aInvite:   req,
		aLocalTag: s.ep.NewTag(),
		aRemote:   src,
		aOfferPTs: offer.PayloadTypes,

		scoreProfile: mos.G711PLC,
		degradeStage: stage,
	}
	if s.degrade != nil {
		br.cdr.Degradation = stage.String()
	}
	if req.Contact != nil {
		br.aRemote = req.Contact.URI.HostPort()
	}
	return br
}

// openCall files br in the live-call table under each leg's Call-ID
// and journals its admission.
func (s *Server) openCall(br *bridge) {
	s.mu.Lock()
	s.bridges[br.cdr.CallID] = br
	if br.bCallID != "" {
		s.bridges[br.bCallID] = br
	}
	s.mu.Unlock()
	if j := s.cfg.Journal; j != nil {
		j.Begin(br.cdr.CallID, br.cdr.Caller, br.cdr.Callee, br.cdr.StartedAt)
	}
}

// admitCall runs admission control — where blocked calls (Table I)
// happen — charging one channel on success. The ladder's Block rung
// refuses first, then the admission row decides; a refusal is answered
// by shedLocked and reported as false. The caller's SDP offer feeds the
// quality floor; nil is allowed for offer-less admission points. The
// second return is the admission-time E-model prediction — always
// computed (pure per-INVITE math, no randomness) because the wide-event
// call record compares it against the measured score at teardown.
func (s *Server) admitCall(tx *sip.ServerTx, req *sip.Message, offer *sdp.Session) (bool, float64, DegradationStage) {
	s.mu.Lock()
	st := admissionState{
		Channels:      s.channels,
		OccupancyEWMA: s.channelsEWMA,
		AttemptsRate:  s.attemptsEWMA,
		ErrorsRate:    s.errorsEWMA,
		ProjectedCPU: s.cfg.CPU.UtilizationWith(s.channels+1,
			float64(s.attemptsWindow), float64(s.errorsWindow), s.transcodeLoad),
	}
	st.PredictedMOS = s.predictMOSLocked(offer, st.ProjectedCPU)
	stage := s.degradeStageLocked()
	window := s.overloadWindowLocked()
	// The ladder's last rung: the classic 503 block, with the backoff
	// window as the Retry-After hint.
	reason, retryAfter := shedBlock, window
	if stage < StageBlock {
		reason, retryAfter = s.cfg.Admission.decide(s.cfg.MaxChannels, st)
	}
	if reason != admitted {
		s.shedLocked(tx, req, reason, retryAfter, window)
		return false, st.PredictedMOS, stage
	}
	s.channels++
	if s.channels > s.counters.PeakChannels {
		s.counters.PeakChannels = s.channels
	}
	s.mu.Unlock()
	if s.tm != nil {
		s.tm.admitOK.Inc()
		if s.tm.callsByStage[0] != nil {
			s.tm.callsByStage[stage].Inc()
		}
	}
	s.flight.record(s.ep.Clock().Now(), req.CallID, stageAdmitted)
	return true, st.PredictedMOS, stage
}

// shedLocked refuses an INVITE for reason: it ends the attempt as
// blocked and counts the reason's subset counter, then answers 503
// with the Retry-After hint and, while the ladder throttles (window >
// 0), the X-Overload-Window stamp. Callers hold s.mu; shedLocked releases it before answering.
func (s *Server) shedLocked(tx *sip.ServerTx, req *sip.Message, reason shedReason, retryAfter, window int) {
	s.endLocked(req.CallID, outcomeBlocked, 0, 0, 0, 0)
	switch reason {
	case shedDrain:
		s.counters.DrainRejected++
	case shedBlock:
		s.counters.DegradeBlocked++
	case shedFloor:
		s.counters.QualityRejected++
	}
	if window > 0 {
		s.counters.ThrottleSignals++
	}
	s.errorsWindow++
	s.mu.Unlock()
	if s.tm != nil && reason != shedDrain {
		s.tm.admitNo.Inc()
	}
	resp := req.Response(sip.StatusServiceUnavailable)
	resp.To.Tag = s.ep.NewTag()
	resp.RetryAfter = retryAfter
	if window > 0 {
		// Rung 3: explicit upstream feedback on the rejection —
		// Retry-After paces the one caller, X-Overload-Window tells
		// generators and balancers to withhold new work.
		if resp.RetryAfter == 0 {
			resp.RetryAfter = window
		}
		resp.SetOverloadWindow(window)
	}
	tx.Respond(resp)
}

// predictMOSNominalDelay is the mouth-to-ear delay assumed when
// predicting a new call's MOS at admission time: one packetization
// interval, the 40 ms playout buffer, and ~20 ms of network transit.
const predictMOSNominalDelay = 80 * time.Millisecond

// predictMOSLocked estimates the E-model MOS the offered call would
// get if admitted now: the offered codec's quality profile under the
// RTP loss the CPU model would impose at the projected utilization.
// Transcoding (if the callee forces it) can only lower the real score,
// so the prediction is optimistic — the quality floor built on it sheds
// late rather than early. Callers hold s.mu.
func (s *Server) predictMOSLocked(offer *sdp.Session, projectedCPU float64) float64 {
	profile := mos.G711PLC
	if offer != nil {
		if pt, ok := codec.Negotiate(offer.PayloadTypes, s.codecs); ok {
			if c, known := codec.ByPayloadType(pt); known {
				profile = c.MOS()
			}
		}
	}
	return mos.Score(profile, mos.Metrics{
		OneWayDelay: predictMOSNominalDelay,
		LossRatio:   s.cfg.CPU.DropProbability(projectedCPU),
		BurstRatio:  1,
	})
}

// authorizeInvite challenges and verifies INVITE credentials; the 401
// challenge and the 403 both end the attempt as Rejected. It reports
// whether processing may continue.
func (s *Server) authorizeInvite(tx *sip.ServerTx, req *sip.Message) bool {
	creds, have := sip.ParseDigestCredentials(req.Authorization)
	if !have {
		// The caller retries with credentials and the same Call-ID:
		// a second attempt, with an outcome of its own.
		resp := req.Response(sip.StatusUnauthorized)
		resp.WWWAuthenticate = sip.DigestChallenge{Realm: s.cfg.Realm, Nonce: s.newNonce()}.Header()
		s.rejectInvite(tx, req, resp, false)
		return false
	}
	acct, err := s.dir.Lookup(creds.Username)
	ch := sip.DigestChallenge{Realm: creds.Realm, Nonce: creds.Nonce}
	if err != nil || creds.Realm != s.cfg.Realm || !ch.Verify(creds, acct.Password, sip.INVITE) {
		s.rejectInvite(tx, req, req.Response(sip.StatusTemporarilyDenied), false)
		return false
	}
	return true
}

// rejectInvite ends a refused INVITE's attempt as blocked, or as
// rejected and counted in Rejected, and sends resp with a fresh To tag.
func (s *Server) rejectInvite(tx *sip.ServerTx, req *sip.Message, resp *sip.Message, blocked bool) {
	s.mu.Lock()
	if blocked {
		s.endLocked(req.CallID, outcomeBlocked, 0, 0, 0, 0)
	} else {
		s.counters.Rejected++
		s.endLocked(req.CallID, outcomeRejected, 0, 0, 0, 0)
	}
	s.errorsWindow++
	s.mu.Unlock()
	resp.To.Tag = s.ep.NewTag()
	tx.Respond(resp)
}

func (s *Server) releaseChannel() {
	s.mu.Lock()
	if s.channels > 0 {
		s.channels--
	}
	s.mu.Unlock()
	s.maybeFinishDrain()
}

// handleBLegResponse relays callee responses to the caller.
func (s *Server) handleBLegResponse(br *bridge, resp *sip.Message) {
	if br.state == bridgeTerminated {
		return
	}
	switch {
	case resp.StatusCode == sip.StatusTrying:
		// Hop-by-hop; the caller already got its own 100.
	case resp.StatusCode < 200:
		if resp.To.Tag != "" {
			br.bRemoteTag = resp.To.Tag
		}
		// Forward 180 Ringing to the A leg with the PBX's tag.
		fwd := br.aInvite.Response(resp.StatusCode)
		fwd.ReasonStr = resp.ReasonStr
		fwd.To.Tag = br.aLocalTag
		br.aTx.Respond(fwd)
		if br.cdr.RingingAt == 0 {
			br.cdr.RingingAt = s.ep.Clock().Now()
			s.flight.record(br.cdr.RingingAt, br.cdr.CallID, stageRinging)
		}
	case resp.StatusCode == sip.StatusOK:
		br.bRemoteTag = resp.To.Tag
		if resp.Contact != nil {
			br.bRemote = resp.Contact.URI.HostPort()
		}
		answer, err := sdp.Parse(resp.Body)
		if err != nil {
			s.removeBridge(br, false)
			return
		}
		// Rung 2 backstop: the degraded B-leg offer already excluded the
		// transcode fallbacks, so a transcoding answer should be
		// impossible — but a callee answering off-offer must not light
		// up a transcoder under overload. Refuse with 488 before any
		// transcode cost is charged.
		if br.degradeStage >= StagePassthroughOnly && wouldTranscode(br.aOfferPTs, s.codecs, answer) {
			s.mu.Lock()
			s.counters.TranscodeRefused++
			s.errorsWindow++
			s.mu.Unlock()
			fwd := br.aInvite.Response(sip.StatusNotAcceptableHere)
			fwd.To.Tag = br.aLocalTag
			br.aTx.Respond(fwd)
			s.removeBridge(br, false)
			return
		}
		if !s.negotiateBridgeCodecs(br, answer) {
			s.removeBridge(br, false)
			return
		}
		if br.relay != nil {
			br.relay.setCalleeMedia(answer.Host, answer.Port)
		}
		// ACK the B leg.
		ack := sip.NewRequest(sip.ACK, sip.AddrURI(br.cdr.Callee, br.bRemote),
			sip.NameAddr{URI: br.aInvite.From.URI, Tag: br.bLocalTag},
			sip.NameAddr{URI: sip.AddrURI(br.cdr.Callee, br.bRemote), Tag: br.bRemoteTag},
			br.bCallID, br.bSeq)
		s.ep.SendACK(br.bRemote, ack)

		// Answer the A leg with the relay (or pass-through) SDP.
		fwd := br.aInvite.Response(sip.StatusOK)
		fwd.To.Tag = br.aLocalTag
		contact := sip.NameAddr{URI: sip.AddrURI("asterisk", s.ep.Addr())}
		fwd.Contact = &contact
		fwd.ContentType = sdp.ContentType
		if br.relay != nil {
			// The A-leg answer leads with the negotiated caller codec;
			// the remaining mutually supported types follow (the form the
			// seed emitted for the default G.711 pair).
			fwd.Body = sdp.NewSessionWith("asterisk", s.host, br.relay.aPort,
				answerPayloadTypes(br.codecBr.APayloadType, br.aOfferPTs, s.codecs)).Marshal()
		} else {
			fwd.Body = resp.Body
		}
		// Rung 3 closed loop, success path: while the throttle window is
		// open every answer carries it too, so generators that only see
		// 200s still learn to withhold new work (RFC 7339-style
		// rate-based feedback, not just rejection-coupled).
		s.mu.Lock()
		window := s.overloadWindowLocked()
		if window > 0 {
			s.counters.ThrottleSignals++
		}
		first := br.okAt == 0
		if first {
			br.okAt = s.ep.Clock().Now()
		}
		s.mu.Unlock()
		if window > 0 {
			fwd.SetOverloadWindow(window)
		}
		if first {
			s.flight.record(br.okAt, br.cdr.CallID, stageAnswered)
		}
		br.aTx.Respond(fwd)
		// Established is confirmed by the caller's ACK (handleAck).
	default:
		// Relay the rejection and release resources.
		fwd := br.aInvite.Response(resp.StatusCode)
		fwd.ReasonStr = resp.ReasonStr
		fwd.To.Tag = br.aLocalTag
		br.aTx.Respond(fwd)
		s.mu.Lock()
		s.counters.Rejected++
		s.errorsWindow++
		s.mu.Unlock()
		s.removeBridge(br, false)
	}
}

// negotiateBridgeCodecs resolves both legs' codecs once the callee's
// answer arrived: it decides passthrough vs transcode, configures the
// relay's payload rewrite, charges the transcode CPU surcharge, picks
// the CDR scoring profile, and feeds the per-codec telemetry. It
// reports false when the answer is unusable (no payload type, or one
// outside the registry).
func (s *Server) negotiateBridgeCodecs(br *bridge, answer *sdp.Session) bool {
	if br.negotiated {
		s.mu.Lock()
		s.counters.Renegotiations++
		s.mu.Unlock()
	}
	br.negotiated = true
	if len(answer.PayloadTypes) == 0 {
		return false
	}
	cbr, ok := codec.NegotiateBridge(br.aOfferPTs, s.codecs, answer.PayloadTypes[0])
	if !ok {
		return false
	}
	a, aKnown := codec.ByPayloadType(cbr.APayloadType)
	b, bKnown := codec.ByPayloadType(cbr.BPayloadType)
	if !aKnown || !bKnown {
		return false
	}
	br.codecBr = cbr
	br.cdr.CodecA, br.cdr.CodecB, br.cdr.Transcoded = a.Name, b.Name, cbr.Transcode
	if cbr.Transcode {
		br.transcodeCost = codec.TranscodeCostPercent(a, b)
		br.scoreProfile = mos.Tandem(a.MOS(), b.MOS())
	} else if cbr.APayloadType != codec.G711U.PayloadType &&
		cbr.APayloadType != codec.G711A.PayloadType {
		br.scoreProfile = a.MOS()
	} // G.711 passthrough keeps the concealment-aware G.711 default.
	if br.relay != nil {
		br.relay.setBridgeCodecs(cbr)
	}
	s.mu.Lock()
	if br.transcodeCost > 0 {
		s.transcodeLoad += br.transcodeCost
		s.counters.TranscodedCalls++
	}
	s.mu.Unlock()
	if s.tm != nil {
		s.tm.callsByCodec(a.PayloadType).Inc()
		if cbr.Transcode && cbr.BPayloadType != cbr.APayloadType {
			s.tm.callsByCodec(b.PayloadType).Inc()
		}
	}
	return true
}

// wouldTranscode reports whether accepting the callee's answer would
// require a transcoding media path — the rung-2 refusal predicate,
// evaluated before negotiateBridgeCodecs charges any transcode cost.
func wouldTranscode(offer, pbx []int, answer *sdp.Session) bool {
	if len(answer.PayloadTypes) == 0 {
		return false
	}
	cbr, ok := codec.NegotiateBridge(offer, pbx, answer.PayloadTypes[0])
	return ok && cbr.Transcode
}

// answerPayloadTypes builds the A-leg answer list: the negotiated
// codec first, then the caller's other mutually supported offers.
func answerPayloadTypes(aPT int, offer, pbx []int) []int {
	out := make([]int, 0, len(offer))
	out = append(out, aPT)
	for _, pt := range offer {
		if pt == aPT {
			continue
		}
		for _, sp := range pbx {
			if pt == sp {
				out = append(out, pt)
				break
			}
		}
	}
	return out
}

// handleAck confirms the A leg once the caller's 2xx ACK arrives.
func (s *Server) handleAck(req *sip.Message) {
	s.mu.Lock()
	br := s.bridges[req.CallID]
	s.mu.Unlock()
	if br == nil || br.state != bridgeProceeding || req.CallID != br.cdr.CallID {
		return
	}
	br.state = bridgeEstablished
	br.cdr.AnsweredAt = s.ep.Clock().Now()
	s.mu.Lock()
	s.counters.Established++
	s.mu.Unlock()
	if j := s.cfg.Journal; j != nil {
		j.Answer(br.cdr.CallID, br.cdr.AnsweredAt)
	}
	s.flight.record(br.cdr.AnsweredAt, br.cdr.CallID, stageAcked)
}

// handleBye tears down the bridge from whichever leg hung up first.
func (s *Server) handleBye(tx *sip.ServerTx, req *sip.Message) {
	s.mu.Lock()
	br := s.bridges[req.CallID]
	first := br != nil && br.byeAt == 0 // both legs may hang up at once
	if first {
		br.byeAt = s.ep.Clock().Now()
	}
	s.mu.Unlock()
	tx.Respond(req.Response(sip.StatusOK))
	if br == nil {
		s.countError()
		return
	}
	if first {
		s.flight.record(br.byeAt, br.cdr.CallID, stageBye)
	}
	s.forwardBye(br, req.CallID == br.cdr.CallID)
	s.removeBridge(br, true)
}

// forwardBye sends BYE on the leg opposite the one that hung up; a
// deposit's far end is the mailbox, which needs none.
func (s *Server) forwardBye(br *bridge, hungUpA bool) {
	if br.state == bridgeTerminated || br.mailbox != nil {
		return
	}
	if hungUpA {
		// BYE toward the callee on the B leg.
		br.bSeq++
		bye := sip.NewRequest(sip.BYE,
			sip.AddrURI(br.cdr.Callee, br.bRemote),
			sip.NameAddr{URI: br.aInvite.From.URI, Tag: br.bLocalTag},
			sip.NameAddr{URI: sip.AddrURI(br.cdr.Callee, br.bRemote), Tag: br.bRemoteTag},
			br.bCallID, br.bSeq)
		s.ep.SendRequest(br.bRemote, bye, nil)
	} else {
		// BYE toward the caller on the A leg (PBX is UAS there, so the
		// dialog's From is the caller; our in-dialog request flips it).
		bye := sip.NewRequest(sip.BYE,
			sip.AddrURI(br.cdr.Caller, br.aRemote),
			sip.NameAddr{URI: br.aInvite.To.URI, Tag: br.aLocalTag},
			sip.NameAddr{URI: br.aInvite.From.URI, Tag: br.aInvite.From.Tag},
			br.cdr.CallID, 1)
		s.ep.SendRequest(br.aRemote, bye, nil)
	}
}

// closeMedia stops the call's media: the relay, or the mailbox port.
// Callers do not hold s.mu (the relay→server lock order).
func (br *bridge) closeMedia() {
	if br.relay != nil {
		br.relay.close()
	}
	if m := br.mailbox; m != nil && m.tr != nil {
		m.tr.Close()
	}
}

// removeBridge releases the channel and the call's media, closes its
// record, ends its attempt and hands that one record to every sink: the
// metrics, the ladder's MOS sensor, the recent-calls ring and call log,
// the journal and, for an answered deposit, the mailbox.
func (s *Server) removeBridge(br *bridge, completed bool) {
	if br.state == bridgeTerminated {
		return
	}
	br.state = bridgeTerminated

	br.closeMedia()
	s.mu.Lock()
	delete(s.bridges, br.cdr.CallID)
	delete(s.bridges, br.bCallID)
	if s.channels > 0 {
		s.channels--
	}
	if br.relay != nil {
		s.freeRelayPortLocked(br.relay.aPort)
		s.freeRelayPortLocked(br.relay.bPort)
		br.relay.foldLocked(&s.counters)
	}
	if m := br.mailbox; m != nil && m.tr != nil {
		s.freeRelayPortLocked(m.port)
	}
	// Return the transcoding surcharge to the CPU budget.
	if br.transcodeCost > 0 {
		s.transcodeLoad -= br.transcodeCost
		if s.transcodeLoad < 0 {
			s.transcodeLoad = 0
		}
		br.transcodeCost = 0
	}
	cdr := s.closeCDRLocked(br, completed)
	if br.mailbox != nil && cdr.AnsweredAt > 0 {
		s.depositLocked(cdr)
	}
	o := cdr.Disposition.outcome()
	if br.canceled {
		o = outcomeCanceled
	}
	s.endLocked(cdr.CallID, o, cdr.StartedAt, cdr.RingingAt, br.okAt, br.byeAt)
	s.recordCDRMetricsLocked(cdr)
	// Feed the ladder's quality sensor: measured (sensor) MOS when the
	// relay scored the call, the E-model estimate otherwise. Averaged
	// per sampler tick in evaluateDegradationLocked.
	if s.degrade != nil && cdr.AnsweredAt > 0 {
		if m := cdr.MeasuredMOS; m > 0 {
			s.mosTickSum += m
			s.mosTickCalls++
		} else if cdr.MOS > 0 {
			s.mosTickSum += cdr.MOS
			s.mosTickCalls++
		}
	}
	s.mu.Unlock()
	s.calls.append(cdr)
	if j := s.cfg.Journal; j != nil {
		j.End(cdr)
	}
	s.maybeFinishDrain()
}
