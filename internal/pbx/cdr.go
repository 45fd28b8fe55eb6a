package pbx

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/mos"
	"repro/internal/rtp"
)

// CDR is a call detail record, the PBX feature the paper lists among
// Asterisk's capabilities ("call management (call detail records)").
// For completed calls it carries both RTP directions' statistics and
// the E-model MOS that VoIPmonitor produced in the paper's testbed —
// note, as the paper does, that "the MOS values presented ... are
// voice qualities of the completed calls": dropped/blocked calls carry
// no score.
type CDR struct {
	Caller      string
	Callee      string
	StartedAt   time.Duration
	Established bool
	Completed   bool
	Duration    time.Duration
	// FromCaller and FromCallee summarize the two RTP directions as
	// observed at the relay. Zero-valued in signalling-only mode.
	FromCaller rtp.Stats
	FromCallee rtp.Stats
	// MOS is the E-model score of the worse direction; zero when the
	// call carried no scored media.
	MOS float64
	// MeasuredMOS is the QoS meters' measured E-model score (worse
	// direction): observed jitter, loss and — over real UDP — the RTCP
	// round trip folded in, per-leg codec profiles. Zero without media.
	MeasuredMOS float64
	// PredictedMOS is the admission-time model estimate for this call
	// (nominal delay plus the CPU model's drop forecast at the offered
	// load when the call was admitted). Zero when never admitted.
	PredictedMOS float64
	// RTT is the worse direction's RTCP LSR/DLSR round-trip estimate;
	// zero when no echoed report block crossed the relay (always in the
	// simulator, whose media sessions emit no RTCP).
	RTT time.Duration
	// Lost marks a record closed by journal recovery after a server
	// crash rather than by normal teardown: Duration then runs to the
	// crash tick, not to a BYE.
	Lost bool
}

// buildCDR snapshots a bridge at teardown. Callers hold s.mu.
func (s *Server) buildCDR(br *bridge, completed bool) CDR {
	// The record outlives the call by the whole run; the names are
	// substrings of the parsed INVITE and would keep its text alive.
	cdr := CDR{
		Caller:      strings.Clone(br.caller),
		Callee:      strings.Clone(br.callee),
		StartedAt:   br.startedAt,
		Established: br.establishedAt > 0,
		Completed:   completed,
	}
	if br.establishedAt > 0 {
		cdr.Duration = s.ep.Clock().Now() - br.establishedAt
	}
	if br.relay != nil {
		// The relay is closed before the CDR is built (removeBridge), so
		// the meters are quiescent; snapshotting without the relay lock
		// avoids inverting the relay→server lock order.
		qa := br.relay.fromCaller.Snapshot()
		qb := br.relay.fromCallee.Snapshot()
		cdr.FromCaller = qa.Stream
		cdr.FromCallee = qb.Stream
		profile := s.cfg.ScoreCodec
		if br.scoreProfile.Name != "" {
			// Non-default negotiation outcome: score with the codec the
			// call actually carried (the tandem profile for transcodes).
			profile = br.scoreProfile
		}
		cdr.MOS = s.scoreStreamsAs(profile, cdr.FromCaller, cdr.FromCallee)
		cdr.MeasuredMOS = worseMOS(qa.MOS, qb.MOS)
		cdr.RTT = qa.RTT
		if qb.RTT > cdr.RTT {
			cdr.RTT = qb.RTT
		}
	}
	cdr.PredictedMOS = br.predictedMOS
	return cdr
}

// worseMOS picks the lower of two per-direction scores, ignoring
// directions that carried no media.
func worseMOS(a, b float64) float64 {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

// scoreStreamsAs computes the call MOS as the minimum of the two
// directions' E-model scores under the given codec profile, using the
// relay's view of loss, jitter and transit.
func (s *Server) scoreStreamsAs(profile mos.Codec, a, b rtp.Stats) float64 {
	score := func(st rtp.Stats) float64 {
		if st.Received == 0 {
			return 0
		}
		delay := st.MinTransit
		if delay < 0 || s.cfg.RemoteMediaClocks {
			// Cross-clock transit is an epoch offset, not a delay.
			delay = 0
		}
		// The relay sees one hop; the mouth-to-ear path adds the
		// second hop (symmetric), a 40 ms playout buffer and one
		// packetization interval.
		delay = 2*delay + 40*time.Millisecond + 20*time.Millisecond
		return mos.Score(profile, mos.Metrics{
			OneWayDelay: delay,
			LossRatio:   st.LossRatio,
			BurstRatio:  1,
		})
	}
	ma, mb := score(a), score(b)
	switch {
	case ma == 0:
		return mb
	case mb == 0:
		return ma
	case ma < mb:
		return ma
	default:
		return mb
	}
}

// Disposition returns the Asterisk-style CDR disposition string.
// LOST is this model's extension for journal-recovered records.
func (c CDR) Disposition() string {
	switch {
	case c.Lost:
		return "LOST"
	case c.Completed:
		return "ANSWERED"
	case c.Established:
		return "FAILED"
	default:
		return "NO ANSWER"
	}
}

// WriteCSV exports records in the layout of Asterisk's Master.csv
// (the subset of columns this model carries), so downstream billing
// and reporting tooling has the familiar shape to chew on.
func WriteCSV(w io.Writer, cdrs []CDR) error {
	cw := csv.NewWriter(w)
	header := []string{
		"src", "dst", "start", "duration_s", "disposition", "mos",
		"rtp_from_caller", "rtp_from_callee", "loss_from_caller", "loss_from_callee",
		"mos_measured", "mos_predicted", "rtt_s",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range cdrs {
		rec := []string{
			c.Caller,
			c.Callee,
			fmt.Sprintf("%.3f", c.StartedAt.Seconds()),
			fmt.Sprintf("%.3f", c.Duration.Seconds()),
			c.Disposition(),
			fmt.Sprintf("%.2f", c.MOS),
			fmt.Sprintf("%d", c.FromCaller.Received),
			fmt.Sprintf("%d", c.FromCallee.Received),
			fmt.Sprintf("%.4f", c.FromCaller.LossRatio),
			fmt.Sprintf("%.4f", c.FromCallee.LossRatio),
			fmt.Sprintf("%.2f", c.MeasuredMOS),
			fmt.Sprintf("%.2f", c.PredictedMOS),
			fmt.Sprintf("%.4f", c.RTT.Seconds()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
