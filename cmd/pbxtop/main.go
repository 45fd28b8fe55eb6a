// Command pbxtop is a live terminal dashboard for a running pbxd: it
// polls the admin plane's /metrics (Prometheus text, parsed with the
// repo's own parser) and /debug/calls (call records) once per
// interval and redraws a one-screen summary — call rates, blocking,
// per-codec load, the measured-MOS distribution, SLO breach state,
// transport batch efficiency and the most recent call records.
//
//	pbxtop -admin 127.0.0.1:9690 -interval 1s
//
// -once prints a single frame without clearing the screen (script- and
// test-friendly); -frames N exits after N redraws.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/pbx"
	"repro/internal/telemetry"
)

// call is the part of a /debug/calls record the dashboard shows.
type call struct {
	CallID      string  `json:"call_id"`
	Caller      string  `json:"caller"`
	Callee      string  `json:"callee"`
	CodecA      string  `json:"codec_a"`
	CodecB      string  `json:"codec_b"`
	DurationS   float64 `json:"duration_s"`
	MeasuredMOS float64 `json:"mos_measured"`
	Disposition string  `json:"disposition"`
}

// scrape is one polled view of the server.
type scrape struct {
	at    time.Time
	ix    telemetry.PromIndex
	calls []call
	err   error
}

func poll(client *http.Client, base string) scrape {
	s := scrape{at: time.Now()}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		s.err = err
		return s
	}
	samples, err := telemetry.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.err = err
		return s
	}
	s.ix = telemetry.IndexSamples(samples)
	if resp, err = client.Get(base + "/debug/calls"); err == nil {
		err = json.NewDecoder(resp.Body).Decode(&s.calls)
		resp.Body.Close()
	}
	if err != nil {
		s.err = fmt.Errorf("/debug/calls: %w", err)
	}
	return s
}

// rate returns the per-second rate of a cumulative family between two
// scrapes (0 on the first frame).
func rate(prev, cur scrape, name string) float64 {
	if prev.ix == nil {
		return 0
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	return (cur.ix.Sum(name) - prev.ix.Sum(name)) / dt
}

func pct(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * num / den
}

// mosBars renders the measured-MOS histogram as per-bucket bars. The
// exposition carries cumulative bucket counts; differences restore the
// per-bucket populations.
func mosBars(ix telemetry.PromIndex) []string {
	type bk struct {
		le  float64
		n   float64
		lab string
	}
	var buckets []bk
	for _, s := range ix["pbx_call_mos_measured_bucket"] {
		le := s.Label("le")
		if le == "+Inf" {
			// Overflow: clean G.711 scores ~4.38 land above the top
			// bound, so the pane must show this row or healthy servers
			// render an empty histogram.
			buckets = append(buckets, bk{le: math.Inf(1), n: s.Value, lab: "inf"})
			continue
		}
		var f float64
		fmt.Sscanf(le, "%g", &f)
		buckets = append(buckets, bk{le: f, n: s.Value, lab: le})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	var max float64
	prev := 0.0
	for i := range buckets {
		buckets[i].n -= prev
		prev += buckets[i].n
		if buckets[i].n > max {
			max = buckets[i].n
		}
	}
	var out []string
	lo := "-inf"
	for _, b := range buckets {
		if b.n > 0 || max > 0 {
			bar := ""
			if max > 0 {
				bar = strings.Repeat("#", int(1+29*b.n/max))
				if b.n == 0 {
					bar = ""
				}
			}
			out = append(out, fmt.Sprintf("  %5s..%-5s %6.0f %s", lo, b.lab, b.n, bar))
		}
		lo = b.lab
	}
	return out
}

func render(w *strings.Builder, base string, frame int, prev, cur scrape) {
	ix := cur.ix
	fmt.Fprintf(w, "pbxtop — %s — %s — frame %d\n\n",
		base, cur.at.Format("15:04:05"), frame)

	offered := rate(prev, cur, "pbx_invites_total")
	answered := rate(prev, cur, "pbx_calls_established_total")
	blocked := rate(prev, cur, "pbx_blocked_total")
	fmt.Fprintf(w, "CALLS      offered/s %6.1f   answered/s %6.1f   blocked/s %6.1f   Pb(total) %5.1f%%\n",
		offered, answered, blocked,
		pct(ix.Sum("pbx_blocked_total"), ix.Sum("pbx_invites_total")))

	draining := "no"
	if ix.Sum("pbx_draining") > 0 {
		draining = "YES"
	}
	fmt.Fprintf(w, "CHANNELS   active %4.0f   peak %4.0f   draining %-3s   transcode load %4.1f%%\n",
		ix.Sum("pbx_active_channels"), ix.Sum("pbx_peak_channels"),
		draining, ix.Sum("pbx_transcode_load_percent"))

	stage := pbx.DegradationStage(int(ix.Sum("pbx_degradation_stage")))
	byStage := ix.ByLabel("pbx_calls_by_stage_total", "stage")
	var stageCols []string
	for st := pbx.StageNormal; st <= pbx.StageBlock; st++ {
		if n := byStage[st.String()]; n > 0 || st == pbx.StageNormal {
			stageCols = append(stageCols, fmt.Sprintf("%s:%.0f", st.String(), n))
		}
	}
	degMark := ""
	if stage > pbx.StageNormal {
		degMark = "  << DEGRADED"
	}
	fmt.Fprintf(w, "DEGRADE    stage %-17s transitions %3.0f   throttle signals %.0f%s\n",
		stage, ix.Sum("pbx_degradation_transitions_total"),
		ix.Sum("pbx_throttle_signals_total"), degMark)
	fmt.Fprintf(w, "           admits by stage: %s\n", strings.Join(stageCols, "  "))

	byCodec := ix.ByLabel("pbx_calls_by_codec_total", "codec")
	var codecs []string
	for name, n := range byCodec {
		if n > 0 {
			codecs = append(codecs, fmt.Sprintf("%s:%.0f", name, n))
		}
	}
	sort.Strings(codecs)
	if len(codecs) == 0 {
		codecs = []string{"(none)"}
	}
	fmt.Fprintf(w, "CODECS     answered by codec: %s   transcoded %.0f\n",
		strings.Join(codecs, "  "), ix.Sum("pbx_transcoded_calls_total"))

	fmt.Fprintf(w, "MOS(meas)  n=%.0f  (modeled n=%.0f)\n",
		ix.Sum("pbx_call_mos_measured_count"), ix.Sum("pbx_call_mos_count"))
	for _, line := range mosBars(ix) {
		fmt.Fprintln(w, line)
	}

	byRule := ix.ByLabel("pbx_slo_breach_total", "rule")
	var rules []string
	for name := range byRule {
		rules = append(rules, name)
	}
	sort.Strings(rules)
	var ruleCols []string
	for _, r := range rules {
		ruleCols = append(ruleCols, fmt.Sprintf("%s:%.0f", r, byRule[r]))
	}
	active := ix.Sum("pbx_slo_active_breaches")
	mark := ""
	if active > 0 {
		mark = "  << BREACHING"
	}
	fmt.Fprintf(w, "SLO        active breaches %.0f   breach seconds %s%s\n",
		active, strings.Join(ruleCols, "  "), mark)

	rxShards := ix.ByLabel("udp_rx_packets_total", "shard")
	var shardCols []string
	for shard := range rxShards {
		if shard != "" {
			shardCols = append(shardCols, fmt.Sprintf("s%s:%.0f", shard, rxShards[shard]))
		}
	}
	sort.Strings(shardCols)
	shardTxt := ""
	if len(shardCols) > 0 {
		shardTxt = "  [" + strings.Join(shardCols, " ") + "]"
	}
	rxBatches := ix.Sum("udp_rx_batches_total")
	perBatch := 0.0
	if rxBatches > 0 {
		perBatch = ix.Sum("udp_rx_packets_total") / rxBatches
	}
	fmt.Fprintf(w, "TRANSPORT  rx/s %7.0f   tx/s %7.0f   drops %.0f   rx pkts/syscall %.1f%s\n",
		rate(prev, cur, "udp_rx_packets_total"), rate(prev, cur, "udp_tx_packets_total"),
		ix.Sum("udp_tx_dropped_total"), perBatch, shardTxt)
	// The relay legs' own row: they are read by the leg pool's loop, not
	// by the listener's sockets above.
	perWakeup := 0.0
	if wakeups := ix.Sum("udp_leg_rx_wakeups_total"); wakeups > 0 {
		perWakeup = ix.Sum("udp_leg_rx_packets_total") / wakeups
	}
	fmt.Fprintf(w, "  relay    rx/s %7.0f   tx/s %7.0f   drops %.0f   rx pkts/wake-up %.1f   legs %.0f (%.0f parked)\n",
		rate(prev, cur, "udp_leg_rx_packets_total"), rate(prev, cur, "udp_leg_tx_packets_total"),
		ix.Sum("udp_leg_tx_dropped_total"), perWakeup,
		ix.Sum("udp_legs_open"), ix.Sum("udp_legs_parked"))
	fmt.Fprintf(w, "RELAY      rtp/s %6.0f   rtcp/s %5.0f   relay drops %.0f   rejected by source %.0f\n",
		rate(prev, cur, "rtp_relay_packets_total"), rate(prev, cur, "rtp_relay_rtcp_total"),
		ix.Sum("rtp_relay_dropped_total"), ix.Sum("rtp_relay_rejected_total"))

	fmt.Fprintf(w, "\nRECENT CALLS (%d in ring)\n", len(cur.calls))
	tail := cur.calls
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	for _, ev := range tail {
		codec := ev.CodecA
		if ev.CodecB != "" && ev.CodecB != ev.CodecA {
			codec += ">" + ev.CodecB
		}
		if codec == "" {
			codec = "-"
		}
		mos := "-"
		if ev.MeasuredMOS > 0 {
			mos = fmt.Sprintf("%.2f", ev.MeasuredMOS)
		}
		fmt.Fprintf(w, "  %-9s %-12s %s->%s %s dur %.1fs mos %s\n",
			ev.Disposition, ev.CallID, ev.Caller, ev.Callee, codec, ev.DurationS, mos)
	}
}

func main() {
	var (
		admin    = flag.String("admin", "127.0.0.1:9690", "pbxd admin HTTP address")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
		frames   = flag.Int("frames", 0, "exit after this many frames (0 = run until interrupted)")
	)
	flag.Parse()
	base := "http://" + *admin
	client := &http.Client{Timeout: 5 * time.Second}

	var prev scrape
	frame := 0
	for {
		frame++
		cur := poll(client, base)
		if cur.err != nil {
			fmt.Fprintf(os.Stderr, "pbxtop: %s: %v\n", base, cur.err)
			if *once || (*frames > 0 && frame >= *frames) {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		var buf strings.Builder
		if !*once {
			buf.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(&buf, *admin, frame, prev, cur)
		os.Stdout.WriteString(buf.String())
		prev = cur
		if *once || (*frames > 0 && frame >= *frames) {
			return
		}
		time.Sleep(*interval)
	}
}
