package pbx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/directory"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/sip"
	"repro/internal/transport"
)

// refCallLine is the layout of the JSON call line as the call log and
// /debug/calls have always carried it: keys, order and omitempty. A line
// decoded into it and encoded back must come out byte for byte the same.
type refCallLine struct {
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
}

// addPhone registers one more phone on a rig, with its own config.
func (r *rig) addPhone(t *testing.T, host string, cfg sip.PhoneConfig) *sip.Phone {
	t.Helper()
	if err := r.server.Directory().AddUser(directory.User{Username: cfg.User, Password: cfg.Password}); err != nil {
		t.Fatal(err)
	}
	cfg.Proxy, cfg.MediaPort = "pbx:5060", 4000
	p := sip.NewPhone(sip.NewEndpoint(transport.NewSim(r.net, host+":5060"), r.clock), cfg)
	p.Register(time.Hour, nil)
	r.sched.Run(r.sched.Now() + 5*time.Second)
	if !p.Registered() {
		t.Fatalf("%s failed to register", cfg.User)
	}
	return p
}

// mediaCall places caller → callee, runs media both ways once the call
// is up, and hangs up after hold.
func mediaCall(r *rig, caller *sip.Phone, callee string, hold time.Duration) {
	var sessions []*media.Session
	for _, p := range r.phones {
		if p.User() != callee {
			continue
		}
		p.OnIncoming = func(c *sip.Call) {
			c.OnEstablished = func(c *sip.Call) { sessions = append(sessions, startMedia(r, c)) }
		}
	}
	call := caller.Invite(callee)
	call.OnEstablished = func(c *sip.Call) {
		sessions = append(sessions, startMedia(r, c))
		r.clock.AfterFunc(hold, func() {
			for _, s := range sessions {
				s.Stop()
			}
			caller.Hangup(c)
		})
	}
}

// callViews runs the pinned calls and returns, per rig, the call log's
// JSON lines, the /debug/calls body and the CSV export.
func callViews(t *testing.T) (lines, bodies, csvs []string) {
	t.Helper()
	run := func(r *rig, log *bytes.Buffer) {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(r.server.RecentCalls()); err != nil {
			t.Fatal(err)
		}
		var csvOut strings.Builder
		if err := WriteCSV(&csvOut, r.cdrs()); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")...)
		bodies = append(bodies, body.String())
		csvs = append(csvs, csvOut.String())
	}

	// A transcoded call (G.729 caller, G.711 callee) with media, and an
	// unanswered one: the callee rings, the caller gives up.
	var log1 bytes.Buffer
	r := newCodecRig(t, Config{RelayRTP: true, Codecs: codec.AllPayloadTypes(),
		Journal: NewCDRJournal(), CallLog: &log1, Instance: "pbx-a"},
		[]int{18}, []int{0, 8}, []int{0, 8})
	// The callee's uplink is the worse direction: its jitter and loss are
	// the ones the JSON line reports.
	r.net.SetLink("host1", "pbx", netsim.LinkProfile{Delay: 3 * time.Millisecond,
		Jitter: 2 * time.Millisecond, Loss: 0.03})
	r.addPhone(t, "host9", sip.PhoneConfig{User: "u9", Password: "pw-u9", AnswerDelay: time.Minute})
	mediaCall(r, r.phones[0], "u1", 12*time.Second)
	ring := r.phones[2].Invite("u9")
	r.clock.AfterFunc(4*time.Second, func() { r.phones[2].Cancel(ring) })
	r.sched.Run(r.sched.Now() + 2*time.Minute)
	run(r, &log1)

	// A G.711 passthrough call with media while the ladder runs.
	var log2 bytes.Buffer
	ladder := tickCfg()
	r = newCodecRig(t, Config{RelayRTP: true, Journal: NewCDRJournal(), CallLog: &log2,
		Degradation: &ladder}, []int{0, 8}, []int{0, 8})
	mediaCall(r, r.phones[0], "u1", 8*time.Second)
	r.sched.Run(r.sched.Now() + time.Minute)
	run(r, &log2)
	return lines, bodies, csvs
}

// TestCallRecordViewsPinned pins every view of the same calls: the JSON
// line on the call log, the /debug/calls body and the CSV export.
func TestCallRecordViewsPinned(t *testing.T) {
	lines, bodies, csvs := callViews(t)
	wantLines := []string{
		`{"t":14.001,"call_id":"c5@host2:5060","caller":"u2","callee":"u9","admission":"channel-cap","backend":"pbx-a","pdd_s":0.002,"mos_predicted":4.369083751936,"disposition":"NO ANSWER"}`,
		`{"t":22.005,"call_id":"c5@host0:5060","caller":"u0","callee":"u1","codec_a":"G.729A","codec_b":"G.711u","transcoded":true,"admission":"channel-cap","backend":"pbx-a","pdd_s":0.002,"setup_s":0.004,"duration_s":12,"jitter_s":0.001228496,"loss":0.021666666666666667,"mos":3.694482545550269,"mos_measured":4.050627184751105,"mos_predicted":4.034539942336001,"disposition":"ANSWERED"}`,
		`{"t":13.005,"call_id":"c5@host0:5060","caller":"u0","callee":"u1","codec_a":"G.711u","codec_b":"G.711u","admission":"channel-cap","pdd_s":0.002,"setup_s":0.004,"duration_s":8,"mos":4.378652048687104,"mos_measured":4.378652048687104,"mos_predicted":4.369083751936,"degradation":"normal","disposition":"ANSWERED"}`,
	}
	if len(lines) != len(wantLines) {
		t.Fatalf("%d JSON lines, want %d:\n%s", len(lines), len(wantLines), strings.Join(lines, "\n"))
	}
	for i, ln := range lines {
		if ln != wantLines[i] {
			t.Errorf("JSON line %d:\n got %s\nwant %s", i, ln, wantLines[i])
		}
		var ref refCallLine
		dec := json.NewDecoder(strings.NewReader(ln))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ref); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if back, _ := json.Marshal(ref); string(back) != ln {
			t.Errorf("line %d is not the reference layout:\n got %s\nwant %s", i, ln, back)
		}
	}
	// /debug/calls encodes the ring as one JSON array of the same lines.
	wantBodies := []string{
		"[" + strings.Join(wantLines[:2], ",") + "]\n",
		"[" + strings.Join(wantLines[2:], ",") + "]\n",
	}
	wantCSV := []string{
		"src,dst,start,duration_s,disposition,mos,rtp_from_caller,rtp_from_callee,loss_from_caller,loss_from_callee,mos_measured,mos_predicted,rtt_s\n" +
			"u2,u9,10.001,0.000,NO ANSWER,0.00,0,0,0.0000,0.0000,0.00,4.37,0.0000\n" +
			"u0,u1,10.001,12.000,ANSWERED,3.69,600,587,0.0000,0.0217,4.05,4.03,0.0000\n",
		"src,dst,start,duration_s,disposition,mos,rtp_from_caller,rtp_from_callee,loss_from_caller,loss_from_callee,mos_measured,mos_predicted,rtt_s\n" +
			"u0,u1,5.001,8.000,ANSWERED,4.38,400,400,0.0000,0.0000,4.38,4.37,0.0000\n",
	}
	for i := range bodies {
		if bodies[i] != wantBodies[i] {
			t.Errorf("/debug/calls body %d:\n got %s\nwant %s", i, bodies[i], wantBodies[i])
		}
		if csvs[i] != wantCSV[i] {
			t.Errorf("CSV %d:\n got %q\nwant %q", i, csvs[i], wantCSV[i])
		}
	}
}

// TestCDRDisposition: each disposition's three views — the CSV string,
// the pbx_cdr_total label and the call's outcome.
func TestCDRDisposition(t *testing.T) {
	cases := []struct {
		d          Disposition
		csv, label string
		outcome    outcome
	}{
		{NoAnswer, "NO ANSWER", "no-answer", outcomeRejected},
		{Answered, "ANSWERED", "answered", outcomeCompleted},
		{Failed, "FAILED", "failed", outcomeFailed},
		{Lost, "LOST", "lost", outcomeLost},
	}
	if len(cases) != int(numDispositions) {
		t.Fatalf("%d cases for %d dispositions", len(cases), numDispositions)
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.csv {
			t.Errorf("%d: CSV %q, want %q", c.d, got, c.csv)
		}
		if got := c.d.label(); got != c.label {
			t.Errorf("%s: metric label %q, want %q", c.d, got, c.label)
		}
		if got := c.d.outcome(); got != c.outcome {
			t.Errorf("%s: outcome %s, want %s", c.d, outcomeNames[got], outcomeNames[c.outcome])
		}
	}
}

// TestRecentCallsMatchJournal: the recent-calls ring and the journal are
// handed the one record teardown closes, so after a burst of calls —
// answered, and abandoned while ringing — they hold the same records.
func TestRecentCallsMatchJournal(t *testing.T) {
	const calls = 12
	r := newRig(t, 6, Config{RelayRTP: true, Journal: NewCDRJournal()})
	for i := 0; i < calls; i++ {
		caller, callee := r.phones[i%3], fmt.Sprintf("u%d", 3+i%3)
		r.clock.AfterFunc(time.Duration(i)*300*time.Millisecond, func() {
			call := caller.Invite(callee)
			if i%4 == 3 {
				caller.Cancel(call) // before the callee's 200
				return
			}
			call.OnEstablished = func(c *sip.Call) {
				r.clock.AfterFunc(time.Duration(i+1)*time.Second, func() { caller.Hangup(c) })
			}
		})
	}
	r.sched.Run(r.sched.Now() + 2*time.Minute)

	ring, committed := r.server.RecentCalls(), r.server.Journal().Committed()
	if len(ring) != calls {
		t.Fatalf("%d records in the ring, want %d", len(ring), calls)
	}
	if !reflect.DeepEqual(ring, committed) {
		t.Errorf("ring and journal differ:\n ring    %+v\n journal %+v", ring, committed)
	}
	byDisp := map[Disposition]int{}
	for _, c := range ring {
		byDisp[c.Disposition]++
	}
	if byDisp[Answered] != calls-calls/4 || byDisp[NoAnswer] != calls/4 {
		t.Errorf("dispositions %v, want %d answered and %d unanswered", byDisp, calls-calls/4, calls/4)
	}
}
