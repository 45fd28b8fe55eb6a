package pbx

import (
	"fmt"
	"time"

	"repro/internal/sip"
)

// Instant messaging (the paper lists "SMS messaging" among the PBX
// capabilities, Sec. I): the server routes RFC 3428 MESSAGEs between
// registered users, and — when StoreOfflineMessages is on — holds
// messages for offline users and delivers them at their next REGISTER,
// which is also how voicemail notifications (messaging.go's cousin in
// voicemail.go) reach their recipients.

// StoredMessage is one held offline message.
type StoredMessage struct {
	From     string
	To       string
	Body     string
	StoredAt time.Duration
}

// handleMessage routes one MESSAGE request.
func (s *Server) handleMessage(tx *sip.ServerTx, req *sip.Message) {
	target := req.RequestURI.User
	if _, err := s.dir.Lookup(target); err != nil {
		s.countError()
		tx.Respond(req.Response(sip.StatusNotFound))
		return
	}
	contact, registered := s.dir.Contact(target, s.ep.Clock().Now())
	if registered {
		s.forwardMessage(req.From, target, contact, string(req.Body), func(status int) {
			resp := req.Response(status)
			tx.Respond(resp)
		})
		return
	}
	if !s.cfg.StoreOfflineMessages {
		s.countError()
		tx.Respond(req.Response(sip.StatusNotFound))
		return
	}
	s.mu.Lock()
	s.offline[target] = append(s.offline[target], StoredMessage{
		From:     req.From.URI.User,
		To:       target,
		Body:     string(req.Body),
		StoredAt: s.ep.Clock().Now(),
	})
	s.counters.MessagesStored++
	s.mu.Unlock()
	tx.Respond(req.Response(sip.StatusAccepted))
}

// forwardMessage sends a MESSAGE to a registered contact on the
// server's behalf. done receives the final status.
func (s *Server) forwardMessage(from sip.NameAddr, target, contact, body string, done func(status int)) {
	to := sip.AddrURI(target, contact)
	fwd := sip.NewRequest(sip.MESSAGE, to,
		sip.NameAddr{Display: from.Display, URI: from.URI, Tag: s.ep.NewTag()},
		sip.NameAddr{URI: to},
		s.ep.NewCallID(), 1)
	fwd.ContentType = "text/plain"
	fwd.Body = []byte(body)
	s.mu.Lock()
	s.counters.MessagesRouted++
	s.mu.Unlock()
	s.ep.SendRequest(contact, fwd, func(resp *sip.Message) {
		if resp.StatusCode >= 200 && done != nil {
			done(resp.StatusCode)
		}
	})
}

// deliverPending flushes stored messages (and a voicemail notification
// if any deposits are waiting) to a user who just registered.
func (s *Server) deliverPending(user, contact string) {
	s.mu.Lock()
	pending := s.offline[user]
	delete(s.offline, user)
	vmCount := len(s.voicemails[user])
	notified := s.vmNotified[user]
	if vmCount > 0 {
		s.vmNotified[user] = true
	}
	s.mu.Unlock()

	for _, m := range pending {
		from := sip.NameAddr{URI: sip.AddrURI(m.From, s.ep.Addr())}
		s.forwardMessage(from, user, contact, m.Body, nil)
	}
	if vmCount > 0 && !notified {
		// Message-waiting notification, the "callback" hook of the
		// paper's feature list: the user learns they have deposits.
		from := sip.NameAddr{Display: "Voicemail", URI: sip.AddrURI("voicemail", s.ep.Addr())}
		body := fmt.Sprintf("You have %d new voice message(s)", vmCount)
		s.forwardMessage(from, user, contact, body, nil)
	}
}

// OfflineMessages returns the messages currently held for user.
func (s *Server) OfflineMessages(user string) []StoredMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]StoredMessage(nil), s.offline[user]...)
}
