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
// and stores a record. A deposit is a bridge whose far end is the
// mailbox: it holds a channel, is filed, journaled, ACKed, hung up,
// crashed and closed like any other call — voicemail does not dodge the
// capacity model. The waiting deposit triggers a message-waiting
// notification when the recipient next registers (see messaging.go).

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

// mailbox is a deposit's far end: the port the caller's RTP lands on
// and the receiver that records it. tr is nil in signalling-only mode.
type mailbox struct {
	tr   transport.Transport
	port int
	recv *rtp.Receiver
}

// answerVoicemail runs the PBX-as-callee flow for an unreachable user
// whose INVITE arrived at start. Admission was already charged by the
// caller in handleInvite.
func (s *Server) answerVoicemail(tx *sip.ServerTx, req *sip.Message, src, callee string, offer *sdp.Session, start time.Duration, predicted float64, stage DegradationStage) {
	// The answer is settled before anything rings: an offer the deposit
	// cannot take is refused outright. Its port stands in until the
	// mailbox's own opens; signalling-only, it is advertised and audio
	// is not collected.
	answer, err := offer.Answer("voicemail", s.host, 4900, []int{0, 8})
	if err != nil {
		s.releaseChannel()
		s.rejectInvite(tx, req, req.Response(sip.StatusInternalError), false)
		return
	}
	br := s.newBridge(tx, req, src, callee, offer, start, predicted, stage)
	mb := &mailbox{recv: rtp.NewReceiver()}
	br.mailbox = mb
	if s.factory != nil {
		s.mu.Lock()
		port := s.allocRelayPortLocked()
		s.mu.Unlock()
		if tr, err := s.factory(port); err == nil {
			mb.tr, mb.port, answer.Port = tr, port, port
			tr.SetReceiver(func(_ string, data []byte) {
				if pkt, perr := rtp.Parse(data); perr == nil {
					mb.recv.Observe(s.ep.Clock().Now(), pkt)
				}
			})
		} else {
			s.mu.Lock()
			s.freeRelayPortLocked(port)
			s.mu.Unlock()
		}
	}

	ringing := req.Response(sip.StatusRinging)
	ringing.To.Tag = br.aLocalTag
	ok := req.Response(sip.StatusOK)
	ok.To.Tag = br.aLocalTag
	contact := sip.NameAddr{URI: sip.AddrURI("voicemail", s.ep.Addr())}
	ok.Contact = &contact
	ok.ContentType = sdp.ContentType
	ok.Body = answer.Marshal()

	// The PBX rings and answers at once: both stamps are the moment the
	// deposit goes live.
	br.cdr.RingingAt = s.ep.Clock().Now()
	br.okAt = br.cdr.RingingAt
	s.openCall(br)
	s.flight.record(br.cdr.RingingAt, br.cdr.CallID, stageRinging)
	s.flight.record(br.okAt, br.cdr.CallID, stageAnswered)
	tx.Respond(ringing)
	tx.Respond(ok)

	// Abandoned deposits (no ACK / no BYE) are reaped at the cap; one
	// that already ended is left as it was.
	cap := s.cfg.VoicemailMaxDuration
	if cap == 0 {
		cap = 3 * time.Minute
	}
	s.ep.Clock().AfterFunc(cap+TransactionGrace, func() { s.removeBridge(br, false) })
}

// TransactionGrace pads voicemail reaping beyond the deposit cap.
const TransactionGrace = 40 * time.Second

// depositLocked stores an answered deposit from its closed record.
// Callers hold s.mu.
func (s *Server) depositLocked(cdr CDR) {
	s.voicemails[cdr.Callee] = append(s.voicemails[cdr.Callee], Voicemail{
		From:        cdr.Caller,
		To:          cdr.Callee,
		DepositedAt: cdr.EndedAt,
		Duration:    cdr.Duration,
		Packets:     cdr.FromCaller.Received,
		Bytes:       cdr.FromCaller.Bytes,
	})
	s.vmNotified[cdr.Callee] = false
	s.counters.VoicemailDeposits++
}

// Voicemails returns the deposits stored for user.
func (s *Server) Voicemails(user string) []Voicemail {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Voicemail(nil), s.voicemails[user]...)
}
