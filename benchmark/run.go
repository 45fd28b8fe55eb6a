package main

import (
	"fmt"
	"time"

	"repro/internal/pbx"
	"repro/internal/stats"
)

// setupRuns is how many times a wire run sets the server up: setup_s
// is the median (the first build in a fresh checkout is a cold one), and
// the last set-up is the one the workload uses.
const setupRuns = 5

// testbed is a server with the generator's agents registered at it —
// the state a wire workload starts from.
type testbed struct {
	srv server
	ag  *agents // nil for wire_register, which brings its own socket
}

func (tb *testbed) close() {
	if tb.ag != nil {
		tb.ag.close()
	}
	tb.srv.stop()
}

// usersFor is the -users value a workload's pbxd is started with:
// pbxd's default everywhere except the registrar workload.
func usersFor(workload string, p params) int {
	if workload == "wire_register" {
		return p.scaled(registerUsers)
	}
	return 100
}

// setUp starts a server with start, waits until it is ready, and
// registers uac and uas. base is the first port of the run's probed
// window.
func setUp(workload string, base int, start func() (server, error)) (*testbed, error) {
	srv, err := start()
	if err != nil {
		return nil, err
	}
	tb := &testbed{srv: srv}
	if workload != "wire_register" {
		if tb.ag, err = newAgents(srv.sipAddr(), base+portWindow/2, base+portWindow*3/4); err != nil {
			srv.stop()
			return nil, err
		}
	}
	// Ready means the admin endpoint answers too.
	if _, err := srv.scrape(); err != nil {
		tb.close()
		return nil, fmt.Errorf("first scrape: %w", err)
	}
	return tb, nil
}

func runOn(tb *testbed, workload string, p params) (*outcome, error) {
	switch workload {
	case "wire_calls":
		return runWireCalls(tb.srv, tb.ag, p)
	case "wire_media":
		return runWireMedia(tb.srv, tb.ag, p)
	case "wire_register":
		return runWireRegister(tb.srv, p)
	}
	return nil, fmt.Errorf("no wire workload %q", workload)
}

// runUntraced is one end-to-end run: tracing off, pbxd a child process
// with its own defaults (GOMAXPROCS included). A set-up is everything
// from the source tree to a server the workload can start on: build
// cmd/pbxd, spawn it, parse its listening lines, register uac and uas,
// first scrape.
func runUntraced(workload string, p params) (*outcome, error) {
	if workload == "sim_table1" {
		return runSimTable1(p)
	}
	base, err := probePorts()
	if err != nil {
		return nil, err
	}
	var setups, ready []float64
	var tb *testbed
	for i := 0; i < setupRuns; i++ {
		if tb != nil {
			tb.close()
		}
		start := time.Now()
		bin, err := buildPbxd()
		if err != nil {
			return nil, err
		}
		built := time.Now()
		tb, err = setUp(workload, base, func() (server, error) {
			return startChild(bin, usersFor(workload, p), base)
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		ready = append(ready, float64(time.Since(built))/float64(time.Millisecond))
	}
	defer tb.close()
	o, err := runOn(tb, workload, p)
	if o != nil {
		o.Metrics["setup_s"] = stats.Percentile(setups, 50)
		o.Samples["setup_s"] = len(setups)
		o.Layers["pbxd.ready_ms"] = stats.Percentile(ready, 50)
		o.Samples["pbxd.ready_ms"] = len(ready)
	}
	return o, err
}

// runTraced is the separate traced run that yields the per-layer
// metrics. It spends a third of its time on the child-process server,
// for the layers read from outside (the process figures, /metrics), a
// third on the in-process server with bare sockets, and a third on the
// in-process server with the span-recording wrapper around them — the
// last two differ in the tracing alone, so their ratio is its
// overhead. Then it replays the captured datagrams through the layers'
// public functions.
func runTraced(workload string, p params) (*outcome, error) {
	third := p
	third.seconds = p.seconds / 3
	outside, err := runUntraced(workload, third)
	if err != nil {
		return outside, err
	}
	o := newOutcome(workload, p)
	o.Traced = true
	o.Attempted, o.Failed = outside.Attempted, outside.Failed
	o.Checks, o.Invalid, o.Samples = outside.Checks, outside.Invalid, outside.Samples
	o.Layers = outside.Layers

	if workload == "sim_table1" {
		simLayers(p, o)
		replayRTP(syntheticRTP(), o)
	} else {
		third.lingerCheck = true
		if err := traceInproc(workload, third, outside, o); err != nil {
			return o, err
		}
	}
	for _, def := range perLayer {
		o.Metrics[def.name] = o.Layers[def.name]
	}
	return o, nil
}

// runInproc runs the workload against the in-process server, its
// sockets wrapped by tr when tr is not nil, and returns the server's
// final counters beside the outcome.
func runInproc(workload string, p params, tr *tracer) (*outcome, pbx.Counters, error) {
	base, err := probePorts()
	if err != nil {
		return nil, pbx.Counters{}, err
	}
	tb, err := setUp(workload, base, func() (server, error) {
		return startInproc(usersFor(workload, p), base, tr)
	})
	if err != nil {
		return nil, pbx.Counters{}, err
	}
	defer tb.close()
	o, err := runOn(tb, workload, p)
	return o, tb.srv.(*inprocServer).srv.CountersSnapshot(), err
}

// traceInproc makes the two in-process runs, writes the span file, and
// turns the span aggregates and the replay into per-layer metrics on o.
func traceInproc(workload string, p params, outside, o *outcome) error {
	bare, _, err := runInproc(workload, p, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, counters, err := runInproc(workload, p, tr)
	if err != nil {
		return err
	}
	for _, c := range traced.Checks {
		c.Name = "traced: " + c.Name
		o.Checks = append(o.Checks, c)
	}
	path, err := tr.write(workload)
	if err != nil {
		return err
	}
	fmt.Printf("  spans: %s\n", path)

	// Self time of the SIP receive span by method: parse, transaction
	// and pbx work, the nested socket sends taken out.
	us := func(a spanAgg, field int64) float64 {
		if a.n == 0 {
			return 0
		}
		return float64(field) / float64(a.n) / 1e3
	}
	for kind, name := range map[string]string{
		"INVITE": "pbx.handle_invite_us", "ACK": "pbx.handle_ack_us", "BYE": "pbx.handle_bye_us",
		"REGISTER": "pbx.handle_register_us", "response": "pbx.handle_response_us",
	} {
		a := tr.get(spanHandleSIP, kind)
		o.Layers[name] = us(a, a.self)
	}
	fwd := tr.get(spanRelayForward, "")
	if fwd.n > 0 {
		o.Layers["pbx.relay_forward_ns"] = float64(fwd.self) / float64(fwd.n)
	}
	handlers := tr.sumPrefix(spanHandleSIP)
	handlers.n += fwd.n
	handlers.wait += fwd.wait
	o.Layers["transport.rx_to_handler_us"] = us(handlers, handlers.wait)
	send, queue, flush := tr.get(spanTxSend, ""), tr.get(spanTxQueue, ""), tr.get(spanTxFlush, "")
	o.Layers["transport.tx_send_us"] = us(send, send.dur)
	if queue.n > 0 {
		o.Layers["transport.tx_queue_ns"] = float64(queue.dur) / float64(queue.n)
	}
	o.Layers["transport.tx_flush_us"] = us(flush, flush.dur)
	listen, closing := tr.get(spanListen, ""), tr.get(spanClose, "")
	lifecycle := spanAgg{n: listen.n + closing.n, dur: listen.dur + closing.dur}
	o.Layers["transport.listen_close_us"] = us(lifecycle, lifecycle.dur)
	// The relay legs' batch widths, which pbxd's /metrics does not
	// publish: on wire_media they replace the SIP listener's.
	if batches := tr.get(spanRxBatch, ""); workload == "wire_media" && batches.n > 0 {
		o.Layers["transport.rx_pkts_per_batch"] = float64(handlers.n) / float64(batches.n)
		if flush.n > 0 {
			o.Layers["transport.tx_pkts_per_batch"] = float64(queue.n) / float64(flush.n)
		}
	}

	replaySIP(tr.sipIn, o)
	rtpIn := tr.rtpIn
	if len(rtpIn) == 0 {
		rtpIn = syntheticRTP()
	}
	replayRTP(rtpIn, o)
	directoryCosts(o)

	// Operations the traced step completed, by the server's own count.
	var ops float64
	switch workload {
	case "wire_calls":
		ops = float64(counters.Completed)
		o.Layers["pbx.bridge_alloc_kb_per_call"] = traced.Layers["pbx.bridge_alloc_kb_per_call"]
	case "wire_media":
		ops = float64(counters.RelayedPackets)
	case "wire_register":
		ops = float64(counters.Registers)
	}
	if base := bare.Metrics["throughput_per_s"]; base > 0 {
		o.Layers["trace.overhead_ratio"] = traced.Metrics["throughput_per_s"] / base
	}
	if cpuNs := outside.Metrics["cpu_us_per_op"] * 1e3; ops > 0 && cpuNs > 0 {
		accounted := float64(handlers.n-fwd.n)*o.Layers["sip.parse_ns"] +
			float64(send.n)*o.Layers["sip.marshal_ns"] +
			float64(send.dur+queue.dur+flush.dur+lifecycle.dur)
		switch workload {
		case "wire_calls":
			// Per call: the offer and the answer are parsed and each is
			// rewritten for the other leg; the callee is looked up once.
			accounted += ops * (2*o.Layers["sdp.parse_ns"] + 2*o.Layers["sdp.answer_ns"] + o.Layers["directory.contact_ns"])
		case "wire_media":
			accounted += float64(fwd.n) * (o.Layers["rtp.unmarshal_ns"] + o.Layers["media.qos_observe_ns"])
		case "wire_register":
			accounted += ops * (o.Layers["directory.nonce_verify_ns"] + o.Layers["directory.register_ns"])
		}
		o.Layers["budget.accounted_share"] = accounted / ops / cpuNs
	}
	return nil
}
