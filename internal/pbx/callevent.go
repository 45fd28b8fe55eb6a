package pbx

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"repro/internal/codec"
)

// CallEvent is the wide event the PBX emits once per bridged call at
// teardown: everything worth knowing about the call in one record —
// identity, negotiated codecs, the admission verdict context, the
// signalling latencies, the measured QoS (jitter/loss/RTT and the
// measured E-model MOS from the relay's per-stream sensors) alongside
// the modeled scores, and the final disposition. One JSON line per
// event lands on Config.CallLog; the last callEventRingCap events stay
// queryable in memory (the /debug/calls endpoint in cmd/pbxd).
type CallEvent struct {
	// T is the teardown time in seconds since the run's clock origin.
	T      float64 `json:"t"`
	CallID string  `json:"call_id"`
	Caller string  `json:"caller"`
	Callee string  `json:"callee"`

	// CodecA/CodecB name the negotiated leg codecs; Transcoded marks a
	// payload-rewriting media path between them.
	CodecA     string `json:"codec_a,omitempty"`
	CodecB     string `json:"codec_b,omitempty"`
	Transcoded bool   `json:"transcoded,omitempty"`

	// Admission names the server's admission row; Backend is the
	// serving instance (Config.Instance — the shard/backend in a
	// cluster deployment).
	Admission string `json:"admission,omitempty"`
	Backend   string `json:"backend,omitempty"`

	// PDDS is the post-dial delay (INVITE to first ringing), SetupS the
	// INVITE-to-ACK setup time, DurationS the established talk time.
	PDDS      float64 `json:"pdd_s,omitempty"`
	SetupS    float64 `json:"setup_s,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`

	// Measured QoS: the worse direction's RFC 3550 jitter and loss, the
	// RTCP round trip, and the sensor-measured E-model MOS — next to
	// the CDR's modeled MOS and the admission-time prediction.
	JitterS      float64 `json:"jitter_s,omitempty"`
	Loss         float64 `json:"loss,omitempty"`
	RTTS         float64 `json:"rtt_s,omitempty"`
	MOS          float64 `json:"mos,omitempty"`
	MeasuredMOS  float64 `json:"mos_measured,omitempty"`
	PredictedMOS float64 `json:"mos_predicted,omitempty"`

	// Degradation names the ladder rung active when the call was
	// admitted ("normal".."block"); set only while the ladder is
	// enabled, so ladder-free call logs are unchanged.
	Degradation string `json:"degradation,omitempty"`

	Disposition string `json:"disposition"`
}

// callEventRingCap bounds the in-memory recent-call ring.
const callEventRingCap = 256

// callEventLog is the ring plus the JSONL sink, under its own lock so
// readers (the /debug/calls handler) never touch the server mutex.
type callEventLog struct {
	mu     sync.Mutex
	ring   [callEventRingCap]CallEvent
	n      int // total events ever appended
	sink   io.Writer
	sinkOK bool // sink disabled after a write error
}

func (l *callEventLog) append(ev CallEvent) {
	l.mu.Lock()
	l.ring[l.n%callEventRingCap] = ev
	l.n++
	sink := l.sink
	ok := l.sinkOK
	if sink != nil && ok {
		b, err := json.Marshal(ev)
		if err == nil {
			b = append(b, '\n')
			_, err = sink.Write(b)
		}
		if err != nil {
			// A broken sink must not take down call teardown; drop the
			// stream and keep serving the in-memory ring.
			l.sinkOK = false
		}
	}
	l.mu.Unlock()
}

// recent returns the retained events, oldest first.
func (l *callEventLog) recent() []CallEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	count := l.n
	if count > callEventRingCap {
		count = callEventRingCap
	}
	out := make([]CallEvent, 0, count)
	start := l.n - count
	for i := start; i < l.n; i++ {
		out = append(out, l.ring[i%callEventRingCap])
	}
	return out
}

// RecentCalls returns the last wide-event call records (oldest first),
// up to the ring capacity.
func (s *Server) RecentCalls() []CallEvent {
	return s.callEvents.recent()
}

// buildCallEventLocked flattens a closing bridge and its CDR into the
// wide event. Callers hold s.mu.
func (s *Server) buildCallEventLocked(br *bridge, cdr CDR) CallEvent {
	now := s.ep.Clock().Now()
	ev := CallEvent{
		T:            now.Seconds(),
		CallID:       br.aCallID,
		Caller:       br.caller,
		Callee:       br.callee,
		Transcoded:   br.codecBr.Transcode,
		Admission:    s.admissionName,
		Backend:      s.cfg.Instance,
		DurationS:    cdr.Duration.Seconds(),
		JitterS:      maxFloat(cdr.FromCaller.Jitter.Seconds(), cdr.FromCallee.Jitter.Seconds()),
		Loss:         maxFloat(cdr.FromCaller.LossRatio, cdr.FromCallee.LossRatio),
		RTTS:         cdr.RTT.Seconds(),
		MOS:          cdr.MOS,
		MeasuredMOS:  cdr.MeasuredMOS,
		PredictedMOS: cdr.PredictedMOS,
		Disposition:  cdr.Disposition(),
	}
	if br.bSDP != nil { // codecs are meaningful only once the B leg answered
		ev.CodecA, ev.CodecB = codecName(br.codecBr.APayloadType), codecName(br.codecBr.BPayloadType)
	}
	if s.degrade != nil {
		ev.Degradation = br.degradeStage.String()
	}
	if br.ringingAt > br.startedAt {
		ev.PDDS = (br.ringingAt - br.startedAt).Seconds()
	}
	if br.establishedAt > br.startedAt {
		ev.SetupS = (br.establishedAt - br.startedAt).Seconds()
	}
	return ev
}

// codecName resolves a payload type to its registry name, falling back
// to the numeric type for unknown mappings.
func codecName(pt int) string {
	if c, ok := codec.ByPayloadType(pt); ok {
		return c.Name
	}
	return "pt" + strconv.Itoa(pt)
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
