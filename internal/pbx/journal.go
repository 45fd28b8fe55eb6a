package pbx

import (
	"sync"
	"time"
)

// CDRJournal is the crash-consistent call ledger. Asterisk's
// Master.csv is written once, at hangup — so a server that dies
// mid-call silently truncates its billing record. The journal opens a
// record at admission, marks it answered at the caller's ACK and
// commits the record teardown closed. After a crash, Recover closes
// every record still open as LOST at the crash tick: every interrupted
// call is accounted for exactly once, never double-counted and never
// dropped.
//
// The journal lives outside the Server (Config.Journal): it models the
// durable disk that survives the process, so the same handle is
// threaded through a crash/restart cycle while Server instances come
// and go.
type CDRJournal struct {
	mu        sync.Mutex
	open      map[string]*CDR
	order     []string // begin order, so recovery is deterministic
	committed []CDR

	begins, answers, ends uint64
	lost                  uint64
	doubleEnds            uint64
}

// JournalStats snapshots the journal's record totals.
type JournalStats struct {
	Begins, Answers, Ends uint64
	Lost                  uint64 // entries closed by Recover
	DoubleEnds            uint64 // end records with no open begin (must stay 0)
	Open                  int    // begins not yet ended
}

// NewCDRJournal returns an empty journal.
func NewCDRJournal() *CDRJournal {
	return &CDRJournal{open: make(map[string]*CDR)}
}

// Begin journals a call's admission.
func (j *CDRJournal) Begin(callID, caller, callee string, at time.Duration) {
	j.mu.Lock()
	if _, dup := j.open[callID]; !dup {
		j.open[callID] = &CDR{CallID: callID, Caller: caller, Callee: callee, StartedAt: at}
		j.order = append(j.order, callID)
	}
	j.begins++
	j.mu.Unlock()
}

// Answer journals a call's establishment (the caller's ACK).
func (j *CDRJournal) Answer(callID string, at time.Duration) {
	j.mu.Lock()
	if e, ok := j.open[callID]; ok && e.AnsweredAt == 0 {
		e.AnsweredAt = at
		j.answers++
	}
	j.mu.Unlock()
}

// End commits a finished call's record, closing the open entry of its
// CallID at its EndedAt. An End with no matching Begin (possible only
// through misuse) is counted in DoubleEnds and otherwise ignored, so a
// record can never be billed twice.
func (j *CDRJournal) End(cdr CDR) {
	j.mu.Lock()
	j.closeLocked(cdr)
	j.mu.Unlock()
}

// Recover closes every open entry as a LOST record stamped with the
// crash tick: answered calls get their partial duration, unanswered
// ones a zero duration. It returns the recovered records in begin
// order; they are also appended to Committed. Running Recover on a
// clean journal is a no-op.
func (j *CDRJournal) Recover(crashAt time.Duration) []CDR {
	j.mu.Lock()
	defer j.mu.Unlock()
	var recovered []CDR
	for _, callID := range j.order {
		e, ok := j.open[callID]
		if !ok {
			continue
		}
		rec := *e
		rec.Disposition, rec.EndedAt = Lost, crashAt
		if rec.AnsweredAt > 0 {
			rec.Duration = crashAt - rec.AnsweredAt
		}
		j.closeLocked(rec)
		recovered = append(recovered, rec)
	}
	j.order = j.order[:0]
	return recovered
}

// closeLocked commits rec as the end of its CallID's open entry. With
// no open entry it only counts a double end. Callers hold j.mu.
func (j *CDRJournal) closeLocked(rec CDR) {
	if _, ok := j.open[rec.CallID]; !ok {
		j.doubleEnds++
		return
	}
	delete(j.open, rec.CallID)
	j.ends++
	if rec.Disposition == Lost {
		j.lost++
	}
	j.committed = append(j.committed, rec)
}

// RecoverJournal closes the attached journal's open records as LOST at
// the crash tick and counts them in pbx_cdr_total, continuing the
// crashed incarnation's series (the registry dedups by name and
// labels). Nil without a journal.
func (s *Server) RecoverJournal(at time.Duration) []CDR {
	if s.cfg.Journal == nil {
		return nil
	}
	lost := s.cfg.Journal.Recover(at)
	s.mu.Lock()
	for _, c := range lost {
		s.recordCDRMetricsLocked(c)
	}
	s.mu.Unlock()
	return lost
}

// Committed returns a copy of every durable CDR: normal ends plus the
// LOST records Recover closed.
func (j *CDRJournal) Committed() []CDR {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]CDR(nil), j.committed...)
}

// Stats snapshots the journal's record totals.
func (j *CDRJournal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Begins: j.begins, Answers: j.answers, Ends: j.ends,
		Lost: j.lost, DoubleEnds: j.doubleEnds, Open: len(j.open),
	}
}
