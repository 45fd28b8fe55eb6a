package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// The traced run records spans from outside the layers, around the
// calls into them: the benchmark wraps the server's SIP listener and
// every relay socket the TransportFactory produces, and times what
// crosses those boundaries. Spans nest as
//
//	transport.rx_batch
//	  pbx.handle_sip | pbx.relay_forward     (one per datagram)
//	    transport.tx_send | transport.tx_queue
//	    transport.listen | transport.close   (relay socket lifecycle)
//	  transport.tx_flush
//
// and a span's self time is its duration minus its children's, so
// pbx.handle_sip self time is parse + transaction + pbx + marshal with
// the socket work taken out.
const (
	spanRxBatch      = "transport.rx_batch"
	spanHandleSIP    = "pbx.handle_sip"
	spanRelayForward = "pbx.relay_forward"
	spanTxSend       = "transport.tx_send"
	spanTxQueue      = "transport.tx_queue"
	spanTxFlush      = "transport.tx_flush"
	spanListen       = "transport.listen"
	spanClose        = "transport.close"
)

// maxSpans bounds the spans kept for the span file; the per-name
// aggregates cover every span regardless. maxCaptured is how many
// inbound datagrams of each kind are kept for the replay measurements.
const (
	maxSpans    = 200000
	maxCaptured = 10000
)

// span is one finished span as written to the span file. Start and End
// are nanoseconds since the trace began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // SIP method or "response", on pbx.handle_sip
	Key    string `json:"key,omitempty"`  // Call-ID or SSRC: shared by the spans of one call / stream
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	ssrc uint32 // formatted into Key when the file is written, not per packet
}

// spanAgg accumulates every span of one name (and kind).
type spanAgg struct {
	n    int64
	dur  int64 // Σ duration, ns
	self int64 // Σ duration − children, ns
	wait int64 // Σ time the datagram waited in its batch before the handler ran, ns
}

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	skipped int
	agg     map[string]*spanAgg
	sipIn   [][]byte // first maxCaptured datagrams into the SIP listener
	rtpIn   [][]byte // first maxCaptured datagrams into relay legs
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*spanAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a span still running. Children on other goroutines add
// their durations to child, hence the atomic.
type openSpan struct {
	id    uint64
	start int64
	child atomic.Int64
}

func (t *tracer) open(o *openSpan, start int64) {
	o.id = t.nextID.Add(1)
	o.start = start
	o.child.Store(0)
}

// finish records o as a finished span and charges its duration to its
// parent, which may be nil.
func (t *tracer) finish(name, kind, key string, ssrc uint32, o *openSpan, end int64, parent *openSpan, wait int64) {
	dur := end - o.start
	var pid uint64
	if parent != nil {
		pid = parent.id
		parent.child.Add(dur)
	}
	aggKey := name
	if kind != "" {
		aggKey = name + "/" + kind
	}
	t.mu.Lock()
	a := t.agg[aggKey]
	if a == nil {
		a = &spanAgg{}
		t.agg[aggKey] = a
	}
	a.n++
	a.dur += dur
	a.self += dur - o.child.Load()
	a.wait += wait
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: o.id, Parent: pid, Name: name, Kind: kind, Key: key, Start: o.start, End: end, ssrc: ssrc})
	} else {
		t.skipped++
	}
	t.mu.Unlock()
}

func (t *tracer) capture(relay bool, data []byte) {
	t.mu.Lock()
	dst := &t.sipIn
	if relay {
		dst = &t.rtpIn
	}
	if len(*dst) < maxCaptured {
		*dst = append(*dst, append([]byte(nil), data...))
	}
	t.mu.Unlock()
}

// get returns the aggregate for name (and kind), zero when no such
// span was recorded.
func (t *tracer) get(name, kind string) spanAgg {
	if kind != "" {
		name += "/" + kind
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// sumPrefix adds the aggregates of every kind of name.
func (t *tracer) sumPrefix(name string) spanAgg {
	var out spanAgg
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, a := range t.agg {
		if k == name || (len(k) > len(name) && k[:len(name)+1] == name+"/") {
			out.n += a.n
			out.dur += a.dur
			out.self += a.self
			out.wait += a.wait
		}
	}
	return out
}

// write stores the kept spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	t.mu.Lock()
	for i := range t.spans {
		if sp := &t.spans[i]; sp.Name == spanRelayForward {
			sp.Key = fmt.Sprintf("ssrc-%08x", sp.ssrc)
		}
	}
	doc := struct {
		Workload string `json:"workload"`
		Note     string `json:"note"`
		Skipped  int    `json:"spans_not_kept"`
		Spans    []span `json:"spans"`
	}{workload, "loopback, not a real link; in-process traced run, never an end-to-end figure", t.skipped, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// udpTransport is what both transport.UDPTransport and
// transport.ShardedUDP offer, and what tracedTransport must forward so
// that pbx's relay finds the batched path behind the wrapper.
type udpTransport interface {
	transport.Transport
	transport.BatchSender
	transport.BatchEndNotifier
	transport.StatsSource
}

// tracedTransport wraps one server socket. sender is the transport
// whose read loop runs the code that sends on this one — the SIP
// listener sends on itself from its own handler, a relay leg is sent
// on from its peer leg's handler — and listener is the SIP listener,
// from whose handler relay sockets are opened and closed.
type tracedTransport struct {
	udpTransport
	tr       *tracer
	relay    bool
	sender   *tracedTransport
	listener *tracedTransport

	// batch and handler are reused for every batch and datagram: one
	// read loop runs per socket, so at most one of each is open.
	batch, handler openSpan
	curBatch       atomic.Pointer[openSpan]
	curHandler     atomic.Pointer[openSpan]

	hookMu   sync.Mutex
	batchEnd func()
}

func (t *tracer) wrap(inner udpTransport, relay bool) *tracedTransport {
	w := &tracedTransport{udpTransport: inner, tr: t, relay: relay}
	w.sender, w.listener = w, w
	inner.SetBatchEnd(w.endBatch)
	return w
}

// running is the span that work started from w's read loop nests
// under: its running handler, else its running batch (a flush runs
// after the last handler), else none (a retransmission timer).
func (w *tracedTransport) running() *openSpan {
	if h := w.curHandler.Load(); h != nil {
		return h
	}
	return w.curBatch.Load()
}

func (w *tracedTransport) SetReceiver(r transport.Receiver) {
	name := spanHandleSIP
	if w.relay {
		name = spanRelayForward
	}
	w.udpTransport.SetReceiver(func(src string, data []byte) {
		// The tracer's own work on the datagram stays outside the span.
		w.tr.capture(w.relay, data)
		kind, key, ssrc := classify(w.relay, data)
		start := w.tr.now()
		if w.curBatch.Load() == nil {
			// The batch is taken to start at its first delivery; the
			// syscall returned a moment earlier, unseen from out here.
			w.tr.open(&w.batch, start)
			w.curBatch.Store(&w.batch)
		}
		w.tr.open(&w.handler, start)
		w.curHandler.Store(&w.handler)
		r(src, data)
		end := w.tr.now()
		w.curHandler.Store(nil)
		w.tr.finish(name, kind, key, ssrc, &w.handler, end, &w.batch, start-w.batch.start)
	})
}

func (w *tracedTransport) SetBatchEnd(fn func()) {
	w.hookMu.Lock()
	w.batchEnd = fn
	w.hookMu.Unlock()
}

func (w *tracedTransport) endBatch() {
	w.hookMu.Lock()
	fn := w.batchEnd
	w.hookMu.Unlock()
	if fn != nil {
		fn()
	}
	if w.curBatch.Load() != nil {
		w.curBatch.Store(nil)
		w.tr.finish(spanRxBatch, "", "", 0, &w.batch, w.tr.now(), nil, 0)
	}
}

// timed runs fn as a span nested under whatever from's read loop is
// running.
func (t *tracer) timed(name string, from *tracedTransport, fn func()) {
	var o openSpan
	parent := from.running()
	t.open(&o, t.now())
	fn()
	t.finish(name, "", "", 0, &o, t.now(), parent, 0)
}

func (w *tracedTransport) Send(dst string, data []byte) {
	w.tr.timed(spanTxSend, w.sender, func() { w.udpTransport.Send(dst, data) })
}

func (w *tracedTransport) QueueSend(dst string, data []byte) {
	w.tr.timed(spanTxQueue, w.sender, func() { w.udpTransport.QueueSend(dst, data) })
}

func (w *tracedTransport) Flush() {
	w.tr.timed(spanTxFlush, w.sender, func() { w.udpTransport.Flush() })
}

func (w *tracedTransport) Close() error {
	if !w.relay {
		return w.udpTransport.Close() // the listener closes once, at shutdown: not a cost of any call
	}
	var err error
	w.tr.timed(spanClose, w.listener, func() { err = w.udpTransport.Close() })
	return err
}

// classify names a datagram for its handler span: the SIP method (or
// "response") and Call-ID, or the RTP stream's SSRC.
func classify(relay bool, data []byte) (kind, key string, ssrc uint32) {
	if relay {
		if len(data) >= 12 {
			ssrc = binary.BigEndian.Uint32(data[8:12])
		}
		return "", "", ssrc
	}
	if bytes.HasPrefix(data, []byte("SIP/2.0 ")) {
		kind = "response"
	} else if i := bytes.IndexByte(data, ' '); i > 0 && i <= 16 {
		kind = string(data[:i])
	}
	const h = "\r\nCall-ID: "
	if i := bytes.Index(data, []byte(h)); i >= 0 {
		rest := data[i+len(h):]
		if j := bytes.IndexByte(rest, '\r'); j >= 0 {
			key = string(rest[:j])
		}
	}
	return kind, key, 0
}
