package rtp

import "time"

// ClockRate for G.711 audio timestamps (samples per second).
const ClockRate = 8000

// Receiver tracks the statistics RFC 3550 defines for a receiving
// stream: extended highest sequence number, cumulative loss, and
// interarrival jitter (the exact RFC 3550 A.8 estimator). These feed
// the E-model MOS scoring exactly as VoIPmonitor derives them from a
// capture.
type Receiver struct {
	ssrc         uint32
	started      bool
	baseSeq      uint32
	maxSeqExt    uint32 // extended (cycle-corrected) highest sequence
	received     uint64
	duplicates   uint64
	misordered   uint64
	jitter       float64 // in timestamp units, RFC 3550 running estimate
	lastTransit  float64
	haveTransit  bool
	minTransit   float64
	sumTransit   float64
	firstArrival time.Duration
	lastArrival  time.Duration
	bytes        uint64

	// Interval state for RTCP reception report blocks.
	expectedPrior uint64
	receivedPrior uint64
	lastSRNTP     uint32        // middle 32 bits of the last SR received
	lastSRAt      time.Duration // local arrival time of that SR
}

// NewReceiver returns a receiver that will lock onto the first SSRC it
// observes.
func NewReceiver() *Receiver { return &Receiver{} }

// Observe records the arrival of packet p at virtual (or wall) time
// now. Packets from other SSRCs after lock-on are ignored (the relay
// gives each direction its own Receiver).
func (r *Receiver) Observe(now time.Duration, p *Packet) {
	if !r.started {
		r.started = true
		r.ssrc = p.SSRC
		r.baseSeq = uint32(p.Sequence)
		r.maxSeqExt = uint32(p.Sequence)
		r.firstArrival = now
	} else {
		if p.SSRC != r.ssrc {
			return
		}
		seq := uint32(p.Sequence)
		cycles := r.maxSeqExt &^ 0xFFFF
		ext := cycles | seq
		maxLow := r.maxSeqExt & 0xFFFF
		switch {
		case seq == maxLow:
			r.duplicates++
		case inOrderAdvance(maxLow, seq):
			if seq < maxLow { // wrapped
				ext += 1 << 16
			}
			r.maxSeqExt = ext
		default:
			// Late or reordered packet.
			r.misordered++
		}
	}

	r.received++
	r.bytes += uint64(p.Size())
	r.lastArrival = now

	// RFC 3550 interarrival jitter: transit = arrival (in RTP units)
	// minus RTP timestamp; J += (|D| - J) / 16.
	arrivalTS := float64(now) * ClockRate / float64(time.Second)
	transit := arrivalTS - float64(p.Timestamp)
	if r.haveTransit {
		d := transit - r.lastTransit
		if d < 0 {
			d = -d
		}
		r.jitter += (d - r.jitter) / 16
		if transit < r.minTransit {
			r.minTransit = transit
		}
	} else {
		r.minTransit = transit
	}
	r.sumTransit += transit
	r.lastTransit = transit
	r.haveTransit = true
}

// inOrderAdvance reports whether new is a forward movement from max in
// 16-bit sequence space (allowing a reasonable jump for bursts of loss).
func inOrderAdvance(max, new uint32) bool {
	const maxDropout = 3000
	diff := (new - max) & 0xFFFF
	return diff != 0 && diff < maxDropout
}

// Stats is a snapshot of receiver-side stream quality.
type Stats struct {
	SSRC       uint32
	Received   uint64
	Expected   uint64
	Lost       int64 // may be negative transiently with duplicates
	LossRatio  float64
	Duplicates uint64
	Misordered uint64
	// Jitter is the RFC 3550 estimate converted to a duration.
	Jitter time.Duration
	Bytes  uint64
	// Duration spans first to last arrival.
	Duration time.Duration
	// MinTransit and MeanTransit are transit-time estimates (arrival
	// time minus RTP timestamp). When sender and receiver share a
	// clock base — always true inside the simulator, where senders
	// stamp timestamps from virtual time — MinTransit is the one-way
	// network delay and MeanTransit adds queueing.
	MinTransit  time.Duration
	MeanTransit time.Duration
}

// NoteSR records receipt of an SR (its sender's SSRC and NTP time)
// from the observed source, enabling LSR/DLSR fields in subsequent
// report blocks (and therefore RTT measurement at the original sender).
func (r *Receiver) NoteSR(now time.Duration, ssrc uint32, ntp uint64) {
	if r.started && ssrc != r.ssrc {
		return
	}
	r.lastSRNTP = MiddleNTP(ntp)
	r.lastSRAt = now
}

// ReportBlock produces an RFC 3550 reception report block for the
// observed stream and resets the per-interval loss accounting.
func (r *Receiver) ReportBlock(now time.Duration) ReportBlock {
	s := r.Snapshot()
	b := ReportBlock{
		SSRC:           r.ssrc,
		CumulativeLost: uint32(s.Lost) & 0xFFFFFF,
		HighestSeq:     r.maxSeqExt,
		Jitter:         uint32(r.jitter),
	}
	expectedInt := s.Expected - r.expectedPrior
	receivedInt := (r.received - r.duplicates) - r.receivedPrior
	if expectedInt > 0 && expectedInt > receivedInt {
		b.FractionLost = uint8((expectedInt - receivedInt) * 256 / expectedInt)
	}
	r.expectedPrior = s.Expected
	r.receivedPrior = r.received - r.duplicates
	if r.lastSRNTP != 0 {
		b.LastSR = r.lastSRNTP
		b.DelaySinceLastSR = uint32((now - r.lastSRAt) * 65536 / time.Second)
	}
	return b
}

// Snapshot returns the current statistics.
func (r *Receiver) Snapshot() Stats {
	s := Stats{
		SSRC:       r.ssrc,
		Received:   r.received,
		Duplicates: r.duplicates,
		Misordered: r.misordered,
		Bytes:      r.bytes,
		Jitter:     time.Duration(r.jitter / ClockRate * float64(time.Second)),
	}
	if r.received > 0 {
		s.MinTransit = time.Duration(r.minTransit / ClockRate * float64(time.Second))
		s.MeanTransit = time.Duration(r.sumTransit / float64(r.received) / ClockRate * float64(time.Second))
	}
	if r.started {
		s.Expected = uint64(r.maxSeqExt-r.baseSeq) + 1
		s.Lost = int64(s.Expected) - int64(r.received-r.duplicates)
		if s.Lost < 0 {
			s.Lost = 0
		}
		if s.Expected > 0 {
			s.LossRatio = float64(s.Lost) / float64(s.Expected)
		}
		s.Duration = r.lastArrival - r.firstArrival
	}
	return s
}
