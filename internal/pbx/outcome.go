package pbx

import (
	"sync"
	"time"
)

// outcome is how one call attempt ended, decided once, where its record
// closes (endLocked). Every INVITE counted in Counters.Attempts ends in
// exactly one: its pbx_calls_total label and its last flight-recorder
// stage.
type outcome uint8

const (
	outcomeCompleted outcome = iota // answered and ended by a BYE
	outcomeBlocked                  // shed by admission control (503)
	outcomeRejected                 // refused, or unanswered, for any other reason
	outcomeCanceled                 // abandoned by the caller
	outcomeFailed                   // answered, then ended abnormally
	outcomeLost                     // in flight when the server crashed
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"completed", "blocked", "rejected", "canceled", "failed", "lost",
}

// byOutcome is the Counters field that counts o.
func (c *Counters) byOutcome(o outcome) *uint64 {
	switch o {
	case outcomeCompleted:
		return &c.Completed
	case outcomeBlocked:
		return &c.Blocked
	case outcomeRejected:
		return &c.Unanswered
	case outcomeCanceled:
		return &c.Canceled
	case outcomeFailed:
		return &c.Aborted
	}
	return &c.Lost
}

// Ended sums the six outcomes. Each attempt ends exactly once, so once
// the server is idle Ended equals Attempts — the conservation law
// rig.Invariants checks on every scenario.
func (c Counters) Ended() uint64 {
	return c.Completed + c.Blocked + c.Unanswered + c.Canceled + c.Aborted + c.Lost
}

// endLocked closes one call attempt. It counts the outcome — the one
// place an outcome is counted — observes the latency histograms from
// the stamps the call's record kept (zero: the call never got that
// far) and appends the outcome to the flight recorder. Callers hold
// s.mu.
func (s *Server) endLocked(callID string, o outcome, start, ringing, answered, bye time.Duration) {
	*s.counters.byOutcome(o)++
	if s.tm == nil {
		return
	}
	now := s.ep.Clock().Now()
	if ringing != 0 {
		s.tm.postDial.Observe((ringing - start).Seconds())
	}
	if answered != 0 {
		s.tm.setup.Observe((answered - start).Seconds())
	}
	if bye != 0 {
		s.tm.teardown.Observe((now - bye).Seconds())
	}
	s.flight.record(now, callID, outcomeNames[o])
}

// Flight-recorder stages, in the order of the paper's Fig. 2 ladder. A
// call's last event is its outcome.
const (
	stageInvite   = "invite"    // INVITE counted as an attempt
	stageAdmitted = "admitted"  // admission said yes
	stageRinging  = "ringing"   // first 1xx forwarded to the caller
	stageAnswered = "answered"  // 200 OK forwarded to the caller
	stageAcked    = "acked"     // the caller's ACK confirmed the dialog
	stageFirstRTP = "first-rtp" // first media packet relayed
	stageBye      = "bye"       // BYE received, on either leg
)

// FlightEvent is one flight-recorder entry: a call reaching a stage,
// or ending with an outcome.
type FlightEvent struct {
	At     time.Duration `json:"at"`
	CallID string        `json:"call_id"`
	Stage  string        `json:"stage"`
}

// flightCap bounds the flight recorder.
const flightCap = 512

// flightRing is the flight recorder: the last flightCap call events,
// kept while telemetry is on (ring is nil otherwise). Its lock is a
// leaf, taken under the server's or a relay's, so an event is appended
// where it happens and none trails its call's outcome.
type flightRing struct {
	mu   sync.Mutex
	ring []FlightEvent // event n lands at n % flightCap
	n    int           // events ever appended
}

func (f *flightRing) record(at time.Duration, callID, stage string) {
	if f.ring == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.n%len(f.ring)] = FlightEvent{At: at, CallID: callID, Stage: stage}
	f.n++
	f.mu.Unlock()
}

// TraceEvents returns the flight recorder's events, oldest first; nil
// when telemetry is disabled.
func (s *Server) TraceEvents() []FlightEvent {
	f := &s.flight
	if f.ring == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, min(f.n, len(f.ring)))
	for i := f.n - cap(out); i < f.n; i++ {
		out = append(out, f.ring[i%len(f.ring)])
	}
	return out
}
