package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {200, 95}, {1000, 99}, {4000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeededAndOpenLoop(t *testing.T) {
	a := poissonSchedule(stats.NewRNG(7), 200, 5*time.Second)
	b := poissonSchedule(stats.NewRNG(7), 200, 5*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due times not monotonic at %d", i)
		}
		if a[i] >= 5*time.Second {
			t.Fatalf("arrival %d due at %v, outside the phase", i, a[i])
		}
	}
	// 1000 expected, standard deviation √1000 ≈ 32.
	if n := len(a); n < 850 || n > 1150 {
		t.Errorf("%d arrivals at 200/s over 5 s, want about 1000", n)
	}
	if c := poissonSchedule(stats.NewRNG(8), 200, 5*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Error("another seed gave the same schedule")
	}
}

func TestUniformSchedule(t *testing.T) {
	due := uniformSchedule(4, 5)
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second}
	for i := range want {
		if due[i] != want[i] {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want[i])
		}
	}
}

// sleepUntil reports lateness against the absolute due time, so a due
// time already past counts in full and is not slept for.
func TestSleepUntilReportsLateness(t *testing.T) {
	if late := sleepUntil(time.Now().Add(-50 * time.Millisecond)); late < 50*time.Millisecond {
		t.Errorf("late = %v for a due time 50 ms past", late)
	}
	start := time.Now()
	sleepUntil(start.Add(20 * time.Millisecond))
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Errorf("returned after %v, before the due time", el)
	}
}

// pace admits an operation only below the in-flight cap, counts it in,
// and reports the wait as lateness.
func TestPaceHoldsAtTheWindow(t *testing.T) {
	var pending atomic.Int64
	if late := pace(time.Now(), &pending); pending.Load() != 1 || late > time.Second {
		t.Errorf("pending %d, late %v after one admission", pending.Load(), late)
	}
	pending.Store(openWindow)
	go func() {
		time.Sleep(20 * time.Millisecond)
		pending.Add(-1)
	}()
	if late := pace(time.Now(), &pending); late < 20*time.Millisecond || pending.Load() != openWindow {
		t.Errorf("late = %v, pending %d: admitted before the window opened", late, pending.Load())
	}
}

const promText = `# TYPE pbx_invites_total counter
pbx_invites_total 58
pbx_calls_total{outcome="blocked"} 0
pbx_calls_total{outcome="completed"} 57
pbx_calls_total{outcome="failed"} 1
pbx_calls_established_total 57
sip_messages_total{dir="recv",kind="INVITE"} 58
sip_messages_total{dir="sent",kind="2xx"} 118
sip_messages_total{dir="sent",xkind="INVITE"} 1000
`

// The scrape itself is telemetry.ParsePrometheus; the benchmark's part
// is summing a family by label and differencing two scrapes.
func TestPromSumAndDelta(t *testing.T) {
	parsed, err := telemetry.ParsePrometheus(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	s := promSamples(parsed)
	if got := s.sum("pbx_calls_total"); got != 58 {
		t.Errorf("sum(pbx_calls_total) = %v, want 58", got)
	}
	if got := s.sum("pbx_calls_total", "outcome", "completed"); got != 57 {
		t.Errorf("completed = %v, want 57", got)
	}
	// A label is matched by key and value, not by substring, and a family
	// name that is a prefix of another does not match it.
	if got := s.sum("sip_messages_total", "kind", "INVITE"); got != 58 {
		t.Errorf("kind=INVITE = %v, want 58", got)
	}
	if got := s.sum("sip_messages_total", "dir", "sent", "kind", "2xx"); got != 118 {
		t.Errorf("dir=sent,kind=2xx = %v, want 118", got)
	}
	if got := s.sum("pbx_calls"); got != 0 {
		t.Errorf("sum(pbx_calls) = %v, want 0", got)
	}
	before := promSamples{{Name: "pbx_invites_total", Value: 50}, {Name: "gone_total", Value: 3}}
	d := s.delta(before)
	if got := d.sum("pbx_invites_total"); got != 8 {
		t.Errorf("delta invites = %v, want 8", got)
	}
	if got := d.sum("pbx_calls_total", "outcome", "completed"); got != 57 {
		t.Errorf("a series absent before counts from zero: %v, want 57", got)
	}
}

func TestHeapHeader(t *testing.T) {
	body := []byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 100\n# HeapInuse = 2097152\n# NumGC = 7\n")
	if got := heapHeader(body, "HeapInuse"); got != 2097152 {
		t.Errorf("HeapInuse = %v", got)
	}
	if got := heapHeader(body, "NumGC"); got != 7 {
		t.Errorf("NumGC = %v", got)
	}
	if got := heapHeader(body, "Missing"); got != 0 {
		t.Errorf("missing header = %v", got)
	}
}

func TestClassify(t *testing.T) {
	invite := []byte("INVITE sip:uas@127.0.0.1:5060 SIP/2.0\r\nVia: SIP/2.0/UDP 127.0.0.1:1\r\nCall-ID: c7@127.0.0.1:1\r\n\r\n")
	if kind, key, _ := classify(false, invite); kind != "INVITE" || key != "c7@127.0.0.1:1" {
		t.Errorf("INVITE classified as %q %q", kind, key)
	}
	ok := []byte("SIP/2.0 200 OK\r\nCall-ID: abc\r\n\r\n")
	if kind, key, _ := classify(false, ok); kind != "response" || key != "abc" {
		t.Errorf("200 classified as %q %q", kind, key)
	}
	rtpPkt := []byte{0x80, 0, 0, 1, 0, 0, 0, 160, 0xde, 0xad, 0xbe, 0xef, 1, 2}
	if _, _, ssrc := classify(true, rtpPkt); ssrc != 0xdeadbeef {
		t.Errorf("ssrc = %#x", ssrc)
	}
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostFingerprint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", Kernel: "6.1", GoVersion: "go1.24", OSArch: "linux/amd64", Commit: "aaa"}
	run := func(h hostFingerprint, throughput float64) result {
		return result{Host: h, Seconds: 10, Outcomes: []*outcome{{
			Workload: "wire_calls", Metrics: map[string]float64{"throughput_per_s": throughput, "setup_s": 1},
		}}}
	}
	a := write("a.json", run(host, 1000))
	other := host
	other.Commit = "bbb" // another commit on the same host is the comparison the mode exists for
	if got := compareFiles(a, write("b.json", run(other, 990))); got != 0 {
		t.Errorf("same host, -1 %%: exit %d, want 0", got)
	}
	if got := compareFiles(a, write("c.json", run(other, 700))); got != 1 {
		t.Errorf("same host, -30 %% throughput: exit %d, want 1", got)
	}
	other.Kernel = "6.2"
	if got := compareFiles(a, write("d.json", run(other, 1000))); got != 2 {
		t.Errorf("another kernel: exit %d, want 2 (refused)", got)
	}
}
