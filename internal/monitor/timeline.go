package monitor

import (
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/sip"
	"repro/internal/transport"
)

// Second is one 1-second bucket of wire activity — the per-second
// series overload-control papers plot: offered load (INVITEs), goodput
// proxies (answers, BYEs), failure pressure (errors), and the
// retransmission amplification that drives congestion collapse.
type Second struct {
	Invites uint64 // new INVITE transactions started this second
	Answers uint64 // 200 responses to INVITE (calls answered)
	Byes    uint64 // BYE requests (calls completing)
	Errors  uint64 // responses with status >= 400
	Retrans uint64 // wire-duplicate SIP messages (retransmissions)
	RTP     uint64 // RTP packets on the wire
}

func (s *Second) add(o Second) {
	s.Invites += o.Invites
	s.Answers += o.Answers
	s.Byes += o.Byes
	s.Errors += o.Errors
	s.Retrans += o.Retrans
	s.RTP += o.RTP
}

// Timeline buckets wire activity into seconds of virtual time. Attach
// it to a network with Tap(), like Capture; not safe for concurrent
// use.
//
// Retransmissions are detected at the wire, not asked of the
// endpoints: a SIP message whose (transaction, message identity) pair
// has been seen before is a retransmission, whether the transaction
// layer resent it or the network duplicated it — exactly what a
// protocol analyzer on a mirrored port would report.
type Timeline struct {
	buckets []Second
	seen    map[string]struct{}
	clock   transport.Clock // optional; stamps ObserveNow
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{seen: make(map[string]struct{})}
}

// NewTimelineWithClock returns a timeline stamping ObserveNow calls
// from clock. Both SimClock and RealClock express Now as a
// time.Duration since their origin, so a timeline fed by a real-UDP
// tap and one fed by the simulator produce directly comparable series
// — the same clock source the telemetry Sampler uses.
func NewTimelineWithClock(clock transport.Clock) *Timeline {
	t := NewTimeline()
	t.clock = clock
	return t
}

// ObserveNow classifies one datagram stamped at the attached clock's
// current time. It requires NewTimelineWithClock.
func (t *Timeline) ObserveNow(data []byte) {
	t.Observe(t.clock.Now(), data)
}

// Tap returns the netsim.Tap to register with Network.AddTap.
func (t *Timeline) Tap() netsim.Tap {
	return func(now time.Duration, pkt *netsim.Packet) {
		t.Observe(now, pkt.Payload)
	}
}

// Observe classifies one datagram into its second bucket.
func (t *Timeline) Observe(now time.Duration, data []byte) {
	b := t.bucket(now)
	if sip.LooksLikeSIP(data) {
		msg, err := sip.Parse(data)
		if err != nil {
			return
		}
		key := msg.TransactionKey()
		if msg.IsRequest() {
			key += "|" + string(msg.Method)
		} else {
			key += "|" + strconv.Itoa(msg.StatusCode)
		}
		if _, dup := t.seen[key]; dup {
			b.Retrans++
			return
		}
		t.seen[key] = struct{}{}
		switch {
		case msg.Method == sip.INVITE:
			b.Invites++
		case msg.Method == sip.BYE:
			b.Byes++
		case msg.StatusCode == sip.StatusOK && msg.CSeq.Method == sip.INVITE:
			b.Answers++
		case msg.StatusCode >= 400:
			b.Errors++
		}
		return
	}
	if _, err := rtp.Parse(data); err == nil {
		b.RTP++
	}
}

// bucket returns the bucket for the given instant, growing the series.
func (t *Timeline) bucket(now time.Duration) *Second {
	idx := int(now / time.Second)
	for len(t.buckets) <= idx {
		t.buckets = append(t.buckets, Second{})
	}
	return &t.buckets[idx]
}

// Merge folds other's buckets into t, for combining per-shard
// timelines. Retransmission detection stays exact across the split: a
// message and its wire duplicates are always sent by the same host,
// hence observed by the same shard's timeline and deduplicated against
// the same seen-set.
func (t *Timeline) Merge(other *Timeline) {
	for len(t.buckets) < len(other.buckets) {
		t.buckets = append(t.buckets, Second{})
	}
	for i := range other.buckets {
		t.buckets[i].add(other.buckets[i])
	}
}

// Buckets returns the per-second series, index 0 = virtual t in [0,1s).
func (t *Timeline) Buckets() []Second { return t.buckets }

// Totals sums the series.
func (t *Timeline) Totals() Second {
	var sum Second
	for i := range t.buckets {
		sum.add(t.buckets[i])
	}
	return sum
}
