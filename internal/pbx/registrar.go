package pbx

import (
	"time"

	"repro/internal/directory"
	"repro/internal/sip"
)

// RegistrarConfig tunes the REGISTER plane. The zero value (Enabled
// false) keeps the pre-registrar behavior — no shedding, lazy binding
// expiry, no registrar telemetry — while the strict nonce-validated
// auth flow is always on.
type RegistrarConfig struct {
	// Enabled switches on the registrar plane: the admission lane, the
	// event-driven binding-expiry wheel, and the registrar telemetry
	// families.
	Enabled bool
	// MaxRegistersPerSec caps REGISTER arrivals per sampler second;
	// the excess is 503'd with a spread Retry-After. 0 means no cap.
	// This is the registrar's own admission lane: unlike INVITE,
	// REGISTER is never refused for channel or CPU capacity, so under
	// the degradation ladder registrations keep flowing until the
	// Block rung — losing a refresh costs reachability, not just one
	// call attempt.
	MaxRegistersPerSec int
}

const (
	// registerRetryAfterMin/Max bound the uniform Retry-After (seconds)
	// on shed REGISTERs. Spreading the hint de-synchronizes the retry
	// wave that a fixed value would re-aggregate — the avalanche
	// repeating itself Retry-After seconds later.
	registerRetryAfterMin = 2
	registerRetryAfterMax = 12

	// defaultExpires is the binding lifetime granted when the REGISTER
	// names none.
	defaultExpires = time.Hour
	// minExpires/maxExpires clamp the client-requested lifetime. The
	// max clamp also guards the duration arithmetic against absurd
	// Expires header values.
	minExpires = time.Second
	maxExpires = 24 * time.Hour
)

// NonceStats exposes the digest nonce cache counters (hit rate, stale
// re-challenges, evictions) for run results and capacity tables.
func (s *Server) NonceStats() directory.NonceStats { return s.nonces.Stats() }

// handleRegister implements the registrar with digest auth against the
// directory, the paper's LDAP-backed "user authentication and call
// registration". Auth is strict: credentials must answer a nonce this
// server issued and still holds in its replay window; anything else is
// re-challenged with stale=true (RFC 2617 3.2.1) rather than refused,
// so a registrar restart costs each client one extra round trip, not
// its registration.
func (s *Server) handleRegister(tx *sip.ServerTx, req *sip.Message, src string) {
	user := req.To.URI.User
	if user == "" {
		user = req.From.URI.User
	}
	acct, err := s.dir.Lookup(user)
	if err != nil {
		s.countError()
		tx.Respond(req.Response(sip.StatusNotFound))
		return
	}

	// Registrar admission lane. REGISTER deliberately sheds later than
	// INVITE: no channel/CPU/occupancy policy applies, only the ladder's
	// terminal Block rung and the registrar's own rate cap — a shed
	// refresh un-registers a user, which is worse than one blocked call.
	if s.cfg.Registrar.Enabled {
		s.mu.Lock()
		shed := s.degradeStageLocked() >= StageBlock
		if cap := uint64(s.cfg.Registrar.MaxRegistersPerSec); !shed && cap > 0 && s.registersWindow >= cap {
			shed = true
		}
		var retryAfter int
		if shed {
			s.counters.RegisterShed++
			retryAfter = registerRetryAfterMin + int(s.rng.Uint64()%(registerRetryAfterMax-registerRetryAfterMin+1))
		} else {
			s.registersWindow++
		}
		s.mu.Unlock()
		if shed {
			resp := req.Response(sip.StatusServiceUnavailable)
			resp.RetryAfter = retryAfter
			tx.Respond(resp)
			return
		}
	}

	creds, haveCreds := sip.ParseDigestCredentials(req.Authorization)
	if !haveCreds {
		s.challengeRegister(tx, req, acct, false)
		return
	}
	if creds.Realm != s.cfg.Realm {
		s.registerAuthFail(tx, req)
		return
	}
	switch s.nonces.Verify(creds.Nonce, user, sip.REGISTER, creds.URI, creds.Response, s.ep.Clock().Now()) {
	case directory.NonceStale:
		// Unknown or aged-out nonce — possibly cached from a previous
		// incarnation across a restart. Re-challenge, don't refuse.
		s.challengeRegister(tx, req, acct, true)
		return
	case directory.NonceBadAuth:
		s.registerAuthFail(tx, req)
		return
	}
	now := s.ep.Clock().Now()
	if req.ContactStar {
		// RFC 3261 10.2.2: the wildcard is only valid with Expires: 0.
		if req.Expires != 0 || req.Contact != nil {
			s.countError()
			tx.Respond(req.Response(sip.StatusBadRequest))
			return
		}
		if err := s.dir.UnregisterAll(user); err != nil {
			s.countError()
			tx.Respond(req.Response(sip.StatusInternalError))
			return
		}
		s.mu.Lock()
		s.counters.Registers++
		s.counters.RegisterRemovals++
		s.mu.Unlock()
		resp := req.Response(sip.StatusOK)
		resp.Expires = 0
		tx.Respond(resp)
		return
	}

	contact := src
	if req.Contact != nil {
		contact = req.Contact.URI.HostPort()
	}
	// Lifetime precedence (RFC 3261 10.2.1.1): per-Contact expires
	// parameter, then the Expires header, then the registrar default —
	// clamped so an absurd header can neither pin a binding forever nor
	// overflow the duration arithmetic.
	expSec := -1
	if req.ContactExpires >= 0 {
		expSec = req.ContactExpires
	} else if req.Expires >= 0 {
		expSec = req.Expires
	}
	if expSec < 0 {
		expSec = int(defaultExpires / time.Second)
	}
	if expSec > 0 {
		expSec = min(max(expSec, int(minExpires/time.Second)), int(maxExpires/time.Second))
	}
	ttl := time.Duration(expSec) * time.Second
	if err := s.dir.Register(user, contact, now, ttl); err != nil {
		s.countError()
		tx.Respond(req.Response(sip.StatusInternalError))
		return
	}
	s.mu.Lock()
	s.counters.Registers++
	if ttl <= 0 {
		s.counters.RegisterRemovals++
	}
	s.mu.Unlock()
	resp := req.Response(sip.StatusOK)
	resp.Contact = req.Contact
	resp.Expires = expSec
	tx.Respond(resp)
	if ttl > 0 {
		s.deliverPending(user, contact)
	}
}

// challengeRegister answers 401 with a fresh nonce, remembering it
// (with the account's HA1) so the follow-up REGISTER verifies against
// the cache without re-deriving the challenge.
func (s *Server) challengeRegister(tx *sip.ServerTx, req *sip.Message, acct directory.User, stale bool) {
	nonce := s.newNonce()
	s.nonces.Issue(nonce, acct.Username,
		sip.DigestHA1(acct.Username, s.cfg.Realm, acct.Password), s.ep.Clock().Now())
	s.mu.Lock()
	if stale {
		s.counters.RegisterStale++
	} else {
		s.counters.RegisterChallenges++
	}
	s.mu.Unlock()
	resp := req.Response(sip.StatusUnauthorized)
	resp.WWWAuthenticate = sip.DigestChallenge{Realm: s.cfg.Realm, Nonce: nonce, Stale: stale}.Header()
	tx.Respond(resp)
}

// registerAuthFail refuses a REGISTER whose credentials failed against
// a live nonce.
func (s *Server) registerAuthFail(tx *sip.ServerTx, req *sip.Message) {
	s.countError()
	s.mu.Lock()
	s.counters.RegisterAuthFail++
	s.mu.Unlock()
	tx.Respond(req.Response(sip.StatusTemporarilyDenied))
}
