package pbx

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// CDRJournal is the crash-consistent write-ahead log for call detail
// records. Asterisk's Master.csv is written once, at hangup — so a
// server that dies mid-call silently truncates its billing record. The
// journal closes that hole with a classic WAL discipline: every call
// appends a begin record at setup, an answer record at establishment,
// and an end record (the durable CDR) at teardown. After a crash,
// Recover scans for begins without a matching end and closes each as a
// LOST record with the crash tick as its end time — every
// interrupted call is accounted for exactly once, never double-counted
// and never dropped.
//
// The journal deliberately lives OUTSIDE the Server (Config.Journal):
// it models the durable disk that survives the process, so the same
// journal handle is threaded through a crash/restart cycle while
// Server instances come and go. In the simulation the "disk" is this
// in-memory structure; WriteTo/ReadJournal give the on-disk text
// format an existence proof and a round-trip test.
//
// Record format (one line per append, space-separated):
//
//	B <ts_ns> <call-id> <caller> <callee>          call admitted
//	A <ts_ns> <call-id>                            call answered (ACK)
//	E <ts_ns> <call-id> <disposition> <dur_ns>     call ended normally
//	L <ts_ns> <call-id> <disposition> <dur_ns>     closed by recovery
//
// RTP statistics and MOS are not journaled — they are derived data
// carried by the committed CDR (and Master.csv); the WAL holds only
// what recovery needs.
type CDRJournal struct {
	mu        sync.Mutex
	open      map[string]*CDR
	order     []string // begin order, so recovery is deterministic
	committed []CDR
	wal       []byte // the on-disk text, one line per append

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
	j.wal = fmt.Appendf(j.wal, "B %d %s %s %s\n", at.Nanoseconds(), callID, caller, callee)
	j.mu.Unlock()
}

// Answer journals a call's establishment (the caller's ACK).
func (j *CDRJournal) Answer(callID string, at time.Duration) {
	j.mu.Lock()
	if e, ok := j.open[callID]; ok && e.AnsweredAt == 0 {
		e.AnsweredAt = at
		j.answers++
		j.wal = fmt.Appendf(j.wal, "A %d %s\n", at.Nanoseconds(), callID)
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

// closeLocked commits rec as the end of its CallID's open entry and
// appends the end line: L for a LOST record, E otherwise. With no open
// entry it only counts a double end. Callers hold j.mu.
func (j *CDRJournal) closeLocked(rec CDR) {
	if _, ok := j.open[rec.CallID]; !ok {
		j.doubleEnds++
		return
	}
	delete(j.open, rec.CallID)
	j.ends++
	kind := "E"
	if rec.Disposition == Lost {
		j.lost++
		kind = "L"
	}
	j.committed = append(j.committed, rec)
	j.wal = fmt.Appendf(j.wal, "%s %d %s %s %d\n", kind,
		rec.EndedAt.Nanoseconds(), rec.CallID, rec.Disposition.token(), rec.Duration.Nanoseconds())
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

// WriteTo emits the journal in its on-disk text format.
func (j *CDRJournal) WriteTo(w io.Writer) (int64, error) {
	j.mu.Lock()
	wal := j.wal // append-only: the bytes it holds never change
	j.mu.Unlock()
	n, err := w.Write(wal)
	return int64(n), err
}

// ReadJournal replays a WAL stream into a fresh journal, rebuilding
// the open/committed state exactly as the writer left it — the
// restart-side half of crash recovery. Decoded committed CDRs carry
// the journaled fields only (identity, times, disposition); RTP
// detail lives in the CSV export, not the WAL.
func ReadJournal(r io.Reader) (*CDRJournal, error) {
	j := NewCDRJournal()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("pbx: malformed journal line %q", line)
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pbx: bad timestamp in %q: %v", line, err)
		}
		at := time.Duration(ns)
		callID := f[2]
		switch f[0] {
		case "B":
			if len(f) != 5 {
				return nil, fmt.Errorf("pbx: malformed begin %q", line)
			}
			j.Begin(callID, f[3], f[4], at)
		case "A":
			j.Answer(callID, at)
		case "E", "L":
			d, known := Disposition(0), false
			if len(f) == 5 {
				d, known = parseDisposition(f[3])
			}
			dur, err := strconv.ParseInt(f[len(f)-1], 10, 64)
			if !known || err != nil {
				return nil, fmt.Errorf("pbx: malformed end %q", line)
			}
			j.mu.Lock()
			rec := CDR{CallID: callID}
			if e, ok := j.open[callID]; ok {
				rec = *e
			}
			rec.Disposition, rec.EndedAt, rec.Duration = d, at, time.Duration(dur)
			j.closeLocked(rec)
			j.mu.Unlock()
		default:
			return nil, fmt.Errorf("pbx: unknown journal record %q", line)
		}
	}
	return j, sc.Err()
}
