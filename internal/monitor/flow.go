package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/sip"
)

// FlowEvent is one SIP message observed on the wire, with enough
// context to draw it on a ladder diagram.
type FlowEvent struct {
	At      time.Duration
	SrcHost string
	DstHost string
	Label   string // "INVITE", "180 Ringing", …
	CallID  string
}

// FlowTrace records the SIP message sequence the way Fig. 2 of the
// paper draws it: a message ladder between the call generator, the
// Asterisk server and the call receiver. Attach it as a network tap.
type FlowTrace struct {
	events []FlowEvent
	// MaxEvents bounds memory on long runs; 0 means 10000.
	MaxEvents int
}

// NewFlowTrace returns an empty trace.
func NewFlowTrace() *FlowTrace { return &FlowTrace{} }

// Tap returns the netsim.Tap to register with Network.AddTap.
func (f *FlowTrace) Tap() netsim.Tap {
	return func(now time.Duration, pkt *netsim.Packet) {
		f.Observe(now, pkt.Src.Host, pkt.Dst.Host, pkt.Payload)
	}
}

// Observe records one datagram if it is SIP.
func (f *FlowTrace) Observe(now time.Duration, srcHost, dstHost string, data []byte) {
	limit := f.MaxEvents
	if limit == 0 {
		limit = 10000
	}
	if len(f.events) >= limit || !sip.LooksLikeSIP(data) {
		return
	}
	msg, err := sip.Parse(data)
	if err != nil {
		return
	}
	label := ""
	if msg.IsRequest() {
		label = string(msg.Method)
	} else {
		label = fmt.Sprintf("%d %s", msg.StatusCode, msg.Reason())
	}
	f.events = append(f.events, FlowEvent{
		At:      now,
		SrcHost: srcHost,
		DstHost: dstHost,
		Label:   label,
		CallID:  msg.CallID,
	})
}

// Events returns the recorded sequence.
func (f *FlowTrace) Events() []FlowEvent { return f.events }

// ObserveEvent appends an already-decoded event, used when filtering
// one trace into another.
func (f *FlowTrace) ObserveEvent(e FlowEvent) {
	limit := f.MaxEvents
	if limit == 0 {
		limit = 10000
	}
	if len(f.events) < limit {
		f.events = append(f.events, e)
	}
}

// Hosts returns the hosts that appear in the trace, in order of first
// appearance — the ladder's columns.
func (f *FlowTrace) Hosts() []string {
	seen := make(map[string]bool)
	var hosts []string
	for _, e := range f.events {
		for _, h := range []string{e.SrcHost, e.DstHost} {
			if !seen[h] {
				seen[h] = true
				hosts = append(hosts, h)
			}
		}
	}
	return hosts
}

// Render draws the trace as a textual message sequence chart, the
// shape of the paper's Fig. 2. hosts orders the columns; nil uses
// first-appearance order.
func (f *FlowTrace) Render(w io.Writer, hosts []string) {
	if hosts == nil {
		hosts = f.Hosts()
	}
	if len(hosts) == 0 {
		fmt.Fprintln(w, "(no SIP messages captured)")
		return
	}
	const colWidth = 22
	col := make(map[string]int, len(hosts))
	for i, h := range hosts {
		col[h] = i
	}

	// Header.
	var head strings.Builder
	for _, h := range hosts {
		head.WriteString(center(h, colWidth))
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))

	for _, e := range f.events {
		si, sok := col[e.SrcHost]
		di, dok := col[e.DstHost]
		if !sok || !dok || si == di {
			continue
		}
		lo, hi := si, di
		rightward := true
		if lo > hi {
			lo, hi = hi, lo
			rightward = false
		}
		span := (hi - lo) * colWidth
		label := e.Label
		if len(label) > span-4 {
			label = label[:span-4]
		}
		// The arrow body spans the gap between the two lifeline pipes
		// (span-1 characters), with the head against the destination.
		dashes := span - 1 - len(label) - 1
		if dashes < 0 {
			dashes = 0
		}
		pre := dashes / 2
		post := dashes - pre
		var arrow string
		if rightward {
			arrow = "|" + strings.Repeat("-", pre) + label + strings.Repeat("-", post) + ">"
		} else {
			arrow = "<" + strings.Repeat("-", pre) + label + strings.Repeat("-", post+1)
		}
		row := buildRow(hosts, colWidth, lo, hi, arrow)
		fmt.Fprintf(w, "%s  (t=%s)\n", strings.TrimRight(row, " "), e.At.Round(time.Millisecond))
	}
}

// buildRow places pipe characters at idle lifelines and the arrow
// between columns lo and hi.
func buildRow(hosts []string, colWidth, lo, hi int, arrow string) string {
	row := make([]byte, len(hosts)*colWidth)
	for i := range row {
		row[i] = ' '
	}
	for i := range hosts {
		row[i*colWidth+colWidth/2] = '|'
	}
	start := lo*colWidth + colWidth/2
	end := hi*colWidth + colWidth/2
	seg := []byte(arrow)
	// Fit the arrow exactly between the two lifelines.
	if len(seg) > end-start+1 {
		seg = seg[:end-start+1]
	}
	copy(row[start:], seg)
	return string(row)
}

func center(s string, width int) string {
	if len(s) >= width {
		return s[:width]
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", width-left-len(s))
}

// Summary returns "label xN" counts sorted by label, a compact check
// that a trace matches the expected flow.
func (f *FlowTrace) Summary() string {
	counts := make(map[string]int)
	for _, e := range f.events {
		counts[e.Label]++
	}
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s x%d", l, counts[l])
	}
	return b.String()
}
