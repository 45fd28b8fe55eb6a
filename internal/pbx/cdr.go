package pbx

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/mos"
	"repro/internal/rtp"
)

// CDR is a call detail record, the PBX feature the paper lists among
// Asterisk's capabilities ("call management (call detail records)"),
// and the one record kept per call. The bridge fills it as the call
// happens; teardown stamps the end, the disposition and the QoS, and
// every sink reads that one value (views: CSV, JSON, metrics).
//
// For completed calls it carries both RTP directions' statistics and
// the E-model MOS that VoIPmonitor produced in the paper's testbed —
// note, as the paper does, that "the MOS values presented ... are
// voice qualities of the completed calls": dropped/blocked calls carry
// no score.
type CDR struct {
	CallID string // the caller leg's Call-ID
	Caller string
	Callee string

	// StartedAt is the INVITE's arrival, RingingAt the first provisional
	// above 100 from the callee, AnsweredAt the caller's ACK and EndedAt
	// the teardown — for a LOST record, the crash tick. Zero means the
	// call never got there.
	StartedAt  time.Duration
	RingingAt  time.Duration
	AnsweredAt time.Duration
	EndedAt    time.Duration
	// Duration is the talk time, AnsweredAt to EndedAt.
	Duration    time.Duration
	Disposition Disposition

	// CodecA/CodecB name the negotiated leg codecs; Transcoded marks a
	// payload-rewriting media path between them.
	CodecA, CodecB string
	Transcoded     bool
	// Admission names the server's admission row, Backend the serving
	// instance (Config.Instance: the shard/backend of a cluster).
	Admission string
	Backend   string
	// Degradation names the ladder rung active when the call was
	// admitted; set only while the ladder runs.
	Degradation string

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
}

// Disposition is what happened to a call, decided once: at teardown,
// or by journal recovery (LOST, this model's extension). Its views are
// the CSV string (String), the metric label and the call's outcome.
type Disposition uint8

const (
	NoAnswer Disposition = iota // never answered
	Answered                    // answered and ended by a BYE
	Failed                      // answered, then ended abnormally
	Lost                        // in flight when the server crashed
	numDispositions
)

var dispositionNames = [numDispositions]string{"NO ANSWER", "ANSWERED", "FAILED", "LOST"}

// String is the Asterisk CSV spelling, which the JSON view shares.
func (d Disposition) String() string { return dispositionNames[d] }

// label is the pbx_cdr_total{disposition} value: lower case, a hyphen
// for the space.
func (d Disposition) label() string {
	return strings.ToLower(strings.ReplaceAll(d.String(), " ", "-"))
}

// outcome is the call's outcome. A NO ANSWER call the caller
// abandoned ends "canceled" instead (removeBridge).
func (d Disposition) outcome() outcome {
	return [numDispositions]outcome{
		outcomeRejected, outcomeCompleted, outcomeFailed, outcomeLost,
	}[d]
}

// MarshalJSON is the wide-event view: the line Config.CallLog receives
// at teardown and the /debug/calls entry. Times are seconds; t is the
// teardown, pdd_s the post-dial delay (INVITE to first ringing), setup_s
// INVITE to ACK; jitter and loss are the worse direction's.
func (c CDR) MarshalJSON() ([]byte, error) {
	v := struct {
		T            float64 `json:"t"`
		CallID       string  `json:"call_id"`
		Caller       string  `json:"caller"`
		Callee       string  `json:"callee"`
		CodecA       string  `json:"codec_a,omitempty"`
		CodecB       string  `json:"codec_b,omitempty"`
		Transcoded   bool    `json:"transcoded,omitempty"`
		Admission    string  `json:"admission,omitempty"`
		Backend      string  `json:"backend,omitempty"`
		PDDS         float64 `json:"pdd_s,omitempty"`
		SetupS       float64 `json:"setup_s,omitempty"`
		DurationS    float64 `json:"duration_s,omitempty"`
		JitterS      float64 `json:"jitter_s,omitempty"`
		Loss         float64 `json:"loss,omitempty"`
		RTTS         float64 `json:"rtt_s,omitempty"`
		MOS          float64 `json:"mos,omitempty"`
		MeasuredMOS  float64 `json:"mos_measured,omitempty"`
		PredictedMOS float64 `json:"mos_predicted,omitempty"`
		Degradation  string  `json:"degradation,omitempty"`
		Disposition  string  `json:"disposition"`
	}{
		T: c.EndedAt.Seconds(), CallID: c.CallID, Caller: c.Caller, Callee: c.Callee,
		CodecA: c.CodecA, CodecB: c.CodecB, Transcoded: c.Transcoded,
		Admission: c.Admission, Backend: c.Backend, DurationS: c.Duration.Seconds(),
		JitterS: max(c.FromCaller.Jitter.Seconds(), c.FromCallee.Jitter.Seconds()),
		Loss:    max(c.FromCaller.LossRatio, c.FromCallee.LossRatio),
		RTTS:    c.RTT.Seconds(), MOS: c.MOS, MeasuredMOS: c.MeasuredMOS, PredictedMOS: c.PredictedMOS,
		Degradation: c.Degradation, Disposition: c.Disposition.String(),
	}
	if c.RingingAt > c.StartedAt {
		v.PDDS = (c.RingingAt - c.StartedAt).Seconds()
	}
	if c.AnsweredAt > c.StartedAt {
		v.SetupS = (c.AnsweredAt - c.StartedAt).Seconds()
	}
	return json.Marshal(v)
}

// closeCDRLocked ends a bridge's record at teardown: the end tick, the
// disposition, the talk time and, when the call was relayed, the QoS —
// for a deposit, the caller's stream as the mailbox received it.
// Callers hold s.mu.
func (s *Server) closeCDRLocked(br *bridge, completed bool) CDR {
	cdr := &br.cdr
	cdr.EndedAt = s.ep.Clock().Now()
	if cdr.AnsweredAt > 0 {
		cdr.Disposition = Failed
		if completed {
			cdr.Disposition = Answered
		}
		cdr.Duration = cdr.EndedAt - cdr.AnsweredAt
	}
	if br.relay != nil {
		// The relay is closed before the record is (removeBridge), so the
		// meters are quiescent; snapshotting without the relay lock
		// avoids inverting the relay→server lock order.
		qa := br.relay.fromCaller.Snapshot()
		qb := br.relay.fromCallee.Snapshot()
		cdr.FromCaller = qa.Stream
		cdr.FromCallee = qb.Stream
		// Scored with the codec the call carried: the tandem profile for
		// transcodes (negotiateBridgeCodecs).
		cdr.MOS = s.scoreStreamsAs(br.scoreProfile, cdr.FromCaller, cdr.FromCallee)
		cdr.MeasuredMOS = worseMOS(qa.MOS, qb.MOS)
		cdr.RTT = max(qa.RTT, qb.RTT)
	}
	if br.mailbox != nil {
		// Closed with the call's media (removeBridge): quiescent too.
		cdr.FromCaller = br.mailbox.recv.Snapshot()
	}
	return *cdr
}

// worseMOS picks the lower of two per-direction scores, ignoring
// directions that carried no media.
func worseMOS(a, b float64) float64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
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
	return worseMOS(score(a), score(b))
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
			c.Disposition.String(),
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

// recentCallsCap bounds the in-memory recent-calls ring.
const recentCallsCap = 256

// callLog is the recent-calls ring plus the call log's JSON-lines sink,
// under its own lock so readers (the /debug/calls handler) never touch
// the server mutex.
type callLog struct {
	mu   sync.Mutex
	ring []CDR // up to recentCallsCap; record n lands at n % recentCallsCap
	n    int   // records ever appended
	sink io.Writer
}

func (l *callLog) append(cdr CDR) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < recentCallsCap {
		l.ring = append(l.ring, cdr)
	} else {
		l.ring[l.n%recentCallsCap] = cdr
	}
	l.n++
	if l.sink == nil {
		return
	}
	b, err := json.Marshal(cdr)
	if err == nil {
		_, err = l.sink.Write(append(b, '\n'))
	}
	if err != nil {
		// A broken sink must not take down call teardown; drop the
		// stream and keep serving the in-memory ring.
		l.sink = nil
	}
}

// RecentCalls returns the last call records (oldest first), up to the
// ring capacity.
func (s *Server) RecentCalls() []CDR {
	l := &s.calls
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) == 0 {
		return nil
	}
	oldest := l.n % len(l.ring)
	return append(append(make([]CDR, 0, len(l.ring)), l.ring[oldest:]...), l.ring[:oldest]...)
}
