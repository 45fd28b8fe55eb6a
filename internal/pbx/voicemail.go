package pbx

import (
	"time"

	"repro/internal/rtp"
	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/transport"
)

// Voicemail (the paper's "voice messages" capability): when the dialed
// user has no registered contact and Config.Voicemail is on, the PBX
// itself answers the call, receives the caller's RTP as the deposit,
// and stores a record. The depositor occupies a channel like any other
// call — voicemail does not dodge the capacity model. The waiting
// deposit triggers a message-waiting notification when the recipient
// next registers (see messaging.go).

// Voicemail is one stored deposit.
type Voicemail struct {
	From        string
	To          string
	DepositedAt time.Duration
	Duration    time.Duration
	// Packets and Bytes describe the received audio (the simulated
	// "recording"); zero in signalling-only mode.
	Packets uint64
	Bytes   uint64
}

// vmSession is a live deposit in progress.
type vmSession struct {
	s      *Server
	caller string
	callee string
	// The INVITE's arrival (start), the 180 and the 200 sent, the
	// caller's ACK (answered) and BYE; zero means the call never got
	// there.
	start, ringingAt, okAt, answered, byeAt time.Duration

	tr   transport.Transport
	recv *rtp.Receiver
	port int
}

// answerVoicemail runs the PBX-as-callee flow for an unreachable user
// whose INVITE arrived at start. Admission was already charged by the
// caller in handleInvite.
func (s *Server) answerVoicemail(tx *sip.ServerTx, req *sip.Message, src, callee string, offer *sdp.Session, start time.Duration) {
	vm := &vmSession{
		s:      s,
		caller: req.From.URI.User,
		callee: callee,
		start:  start,
		recv:   rtp.NewReceiver(),
	}

	// Media: a dedicated deposit port when a factory is available.
	port := 0
	if s.factory != nil {
		s.mu.Lock()
		port = s.allocRelayPortLocked()
		s.mu.Unlock()
		tr, err := s.factory(port)
		if err == nil {
			vm.tr = tr
			vm.port = port
			tr.SetReceiver(func(_ string, data []byte) {
				if pkt, perr := rtp.Parse(data); perr == nil {
					vm.recv.Observe(s.ep.Clock().Now(), pkt)
				}
			})
		} else {
			s.mu.Lock()
			s.freeRelayPortLocked(port)
			s.mu.Unlock()
			port = 0
		}
	}
	if port == 0 {
		// Signalling-only: advertise a port; audio is not collected.
		port = 4900
	}

	// The answer is settled before anything rings: an offer the deposit
	// cannot take is refused outright.
	answer, err := offer.Answer("voicemail", s.host, port, []int{0, 8})
	if err != nil {
		vm.close()
		if vm.tr != nil {
			s.mu.Lock()
			s.freeRelayPortLocked(vm.port)
			s.mu.Unlock()
		}
		s.releaseChannel()
		s.rejectInvite(tx, req, req.Response(sip.StatusInternalError), false)
		return
	}

	localTag := s.ep.NewTag()
	ringing := req.Response(sip.StatusRinging)
	ringing.To.Tag = localTag
	ok := req.Response(sip.StatusOK)
	ok.To.Tag = localTag
	contact := sip.NameAddr{URI: sip.NewURI("voicemail", s.host, portOf(s.ep.Addr()))}
	ok.Contact = &contact
	ok.ContentType = sdp.ContentType
	ok.Body = answer.Marshal()

	// The PBX rings and answers at once: both stamps are the moment the
	// deposit goes live.
	s.mu.Lock()
	vm.ringingAt = s.ep.Clock().Now()
	vm.okAt = vm.ringingAt
	s.vmSessions[req.CallID] = vm
	s.mu.Unlock()
	s.flight.record(vm.ringingAt, req.CallID, stageRinging)
	s.flight.record(vm.okAt, req.CallID, stageAnswered)
	tx.Respond(ringing)
	tx.Respond(ok)

	// Abandoned deposits (no ACK / no BYE) are reaped at the cap.
	cap := s.cfg.VoicemailMaxDuration
	if cap == 0 {
		cap = 3 * time.Minute
	}
	s.ep.Clock().AfterFunc(cap+TransactionGrace, func() {
		s.finishVoicemail(req.CallID, false)
	})
}

// TransactionGrace pads voicemail reaping beyond the deposit cap.
const TransactionGrace = 40 * time.Second

// ackVoicemail marks a deposit answered (caller's ACK arrived).
func (s *Server) ackVoicemail(callID string) bool {
	s.mu.Lock()
	vm, ok := s.vmSessions[callID]
	if ok && vm.answered == 0 {
		vm.answered = s.ep.Clock().Now()
		s.counters.Established++
		s.flight.record(vm.answered, callID, stageAcked)
	}
	s.mu.Unlock()
	return ok
}

// byeVoicemail ends a deposit via the caller's BYE. It reports whether
// callID was a voicemail session.
func (s *Server) byeVoicemail(callID string) bool {
	s.mu.Lock()
	vm, ok := s.vmSessions[callID]
	if ok && vm.byeAt == 0 {
		vm.byeAt = s.ep.Clock().Now()
		s.flight.record(vm.byeAt, callID, stageBye)
	}
	s.mu.Unlock()
	if ok {
		s.finishVoicemail(callID, true)
	}
	return ok
}

// finishVoicemail stores the deposit and releases resources.
func (s *Server) finishVoicemail(callID string, completed bool) {
	s.mu.Lock()
	vm, ok := s.vmSessions[callID]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.vmSessions, callID)
	now := s.ep.Clock().Now()
	rec := Voicemail{
		From:        vm.caller,
		To:          vm.callee,
		DepositedAt: now,
	}
	if vm.answered > 0 {
		rec.Duration = now - vm.answered
	}
	st := vm.recv.Snapshot()
	rec.Packets = st.Received
	rec.Bytes = st.Bytes
	if vm.answered > 0 {
		s.voicemails[vm.callee] = append(s.voicemails[vm.callee], rec)
		s.vmNotified[vm.callee] = false
		s.counters.VoicemailDeposits++
	}
	o := outcomeFailed
	if completed && vm.answered > 0 {
		o = outcomeCompleted
	}
	s.endLocked(callID, o, vm.start, vm.ringingAt, vm.okAt, vm.byeAt)
	if s.channels > 0 {
		s.channels--
	}
	if vm.port != 0 && vm.tr != nil {
		s.freeRelayPortLocked(vm.port)
	}
	s.updateChannelGaugesLocked()
	s.mu.Unlock()
	vm.close()
	s.maybeFinishDrain()
}

func (vm *vmSession) close() {
	if vm.tr != nil {
		vm.tr.Close()
	}
}

// Voicemails returns the deposits stored for user.
func (s *Server) Voicemails(user string) []Voicemail {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Voicemail(nil), s.voicemails[user]...)
}
