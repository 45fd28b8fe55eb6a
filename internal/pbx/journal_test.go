package pbx

import (
	"testing"
	"time"
)

func TestJournalNormalLifecycleBalances(t *testing.T) {
	j := NewCDRJournal()
	j.Begin("c1", "u0", "u1", 1*time.Second)
	j.Answer("c1", 2*time.Second)
	j.End(CDR{CallID: "c1", Caller: "u0", Callee: "u1", AnsweredAt: 2 * time.Second,
		EndedAt: 10 * time.Second, Duration: 8 * time.Second, Disposition: Answered})

	st := j.Stats()
	if st.Begins != 1 || st.Answers != 1 || st.Ends != 1 || st.Open != 0 ||
		st.Lost != 0 || st.DoubleEnds != 0 {
		t.Fatalf("unbalanced stats after clean lifecycle: %+v", st)
	}
	if got := j.Committed(); len(got) != 1 || got[0].Disposition != Answered {
		t.Fatalf("committed = %+v, want one ANSWERED record", got)
	}
	// Recover on a clean journal is a no-op.
	if rec := j.Recover(11 * time.Second); len(rec) != 0 {
		t.Fatalf("recover on clean journal returned %d records", len(rec))
	}
}

func TestJournalRecoverClosesOpenEntriesAsLost(t *testing.T) {
	j := NewCDRJournal()
	// One answered call, one still ringing, one already ended.
	j.Begin("answered", "u0", "u1", 1*time.Second)
	j.Answer("answered", 2*time.Second)
	j.Begin("ringing", "u2", "u3", 3*time.Second)
	j.Begin("done", "u4", "u5", 4*time.Second)
	j.Answer("done", 5*time.Second)
	j.End(CDR{CallID: "done", AnsweredAt: 5 * time.Second, EndedAt: 6 * time.Second,
		Duration: time.Second, Disposition: Answered})

	rec := j.Recover(9 * time.Second)
	if len(rec) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec))
	}
	// Begin order is preserved: the answered call first.
	if rec[0].Caller != "u0" || rec[0].AnsweredAt == 0 || rec[0].Disposition != Lost {
		t.Errorf("first recovered = %+v, want u0's established LOST record", rec[0])
	}
	if rec[0].Duration != 7*time.Second {
		t.Errorf("answered-at-crash duration = %v, want crash-answer = 7s", rec[0].Duration)
	}
	if rec[0].EndedAt != 9*time.Second {
		t.Errorf("LOST record ended at %v, want the crash tick 9s", rec[0].EndedAt)
	}
	if rec[1].Caller != "u2" || rec[1].AnsweredAt != 0 || rec[1].Duration != 0 {
		t.Errorf("second recovered = %+v, want u2's unanswered zero-duration record", rec[1])
	}

	st := j.Stats()
	if st.Open != 0 || st.Lost != 2 || st.Begins != st.Ends {
		t.Fatalf("post-recovery stats unbalanced: %+v", st)
	}
	if len(j.Committed()) != 3 {
		t.Fatalf("committed %d records, want 3 (1 normal + 2 recovered)", len(j.Committed()))
	}
}

func TestJournalDoubleEndNeverBillsTwice(t *testing.T) {
	j := NewCDRJournal()
	j.Begin("c1", "u0", "u1", time.Second)
	j.End(CDR{CallID: "c1", EndedAt: 2 * time.Second})
	j.End(CDR{CallID: "c1", EndedAt: 3 * time.Second}) // replayed/duplicate end
	j.End(CDR{CallID: "ghost", EndedAt: 4 * time.Second})

	st := j.Stats()
	if st.Ends != 1 || st.DoubleEnds != 2 {
		t.Fatalf("ends=%d doubleEnds=%d, want 1/2", st.Ends, st.DoubleEnds)
	}
	if len(j.Committed()) != 1 {
		t.Fatalf("committed %d records, want 1", len(j.Committed()))
	}
}
