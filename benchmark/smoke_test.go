package main

import (
	"os"
	"testing"
	"time"

	"repro/internal/transport"
)

// The command runs from the root of the checkout (it builds ./cmd/pbxd
// and writes under benchmark/out), so the tests do too.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var smoke = params{seed: 7, seconds: 1.5, scale: 0.1}

func requireCorrect(t *testing.T, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range o.Checks {
		if !c.OK {
			t.Errorf("check failed: %s: %s", c.Name, c.Detail)
		}
	}
	if o.Failed != 0 || o.Attempted == 0 {
		t.Errorf("failed %d of %d attempted", o.Failed, o.Attempted)
	}
	for _, d := range endToEnd {
		if d.name != "setup_s" && o.Metrics[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, o.Metrics[d.name])
		}
	}
}

// Each wire workload at a tenth of its scale against the in-process
// server: the generator, the books and the verification, without
// building or spawning anything. Timings are not asserted — these run
// under -race on a shared host.
func TestWireWorkloadsSmoke(t *testing.T) {
	for _, w := range []string{"wire_calls", "wire_media", "wire_register"} {
		t.Run(w, func(t *testing.T) {
			o, _, err := runInproc(w, smoke, nil)
			requireCorrect(t, o, err)
			if w != "wire_media" && o.Layers["pbx.relayed_pkts"] != 0 {
				t.Errorf("%s relayed %v packets, want none", w, o.Layers["pbx.relayed_pkts"])
			}
			if w == "wire_calls" && o.Layers["sip.retransmits"] == 0 && o.Layers["sip.msgs_per_call"] != msgsPerCall {
				t.Errorf("sip.msgs_per_call = %v, want %d", o.Layers["sip.msgs_per_call"], msgsPerCall)
			}
		})
	}
}

func TestSimTable1Smoke(t *testing.T) {
	p := params{seed: 7, seconds: 1, scale: 0.02}
	a, err := runSimTable1(p)
	requireCorrect(t, a, err)
	b, err := runSimTable1(p)
	requireCorrect(t, b, err)
	if a.Layers["netsim.events"] != b.Layers["netsim.events"] || a.Attempted != b.Attempted {
		t.Errorf("same seed, different work: %v events / %d calls vs %v / %d",
			a.Layers["netsim.events"], a.Attempted, b.Layers["netsim.events"], b.Attempted)
	}
}

// The traced run end to end on the smallest workload: spans recorded
// through the wrapper, nested and written out, the replay fed by the
// captured datagrams, every per-layer name filled.
func TestTracedRunSmoke(t *testing.T) {
	outside, _, err := runInproc("wire_calls", smoke, nil)
	requireCorrect(t, outside, err)
	o := newOutcome("wire_calls", smoke)
	if err := traceInproc("wire_calls", smoke, outside, o); err != nil {
		t.Fatal(err)
	}
	for _, c := range o.Checks {
		if !c.OK {
			t.Errorf("check failed: %s: %s", c.Name, c.Detail)
		}
	}
	for _, name := range []string{
		"pbx.handle_invite_us", "pbx.handle_ack_us", "pbx.handle_bye_us", "pbx.handle_response_us",
		"transport.tx_send_us", "transport.listen_close_us",
		"sip.parse_ns", "sip.marshal_ns", "sdp.parse_ns", "sdp.answer_ns",
		"directory.contact_ns", "directory.register_ns", "directory.nonce_verify_ns", "sip.digest_verify_ns",
		"rtp.unmarshal_ns", "media.qos_observe_ns", "trace.overhead_ratio",
	} {
		if o.Layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, o.Layers[name])
		}
	}
	if o.Layers["pbx.relay_forward_ns"] != 0 {
		t.Errorf("pbx.relay_forward_ns = %v on a workload without media", o.Layers["pbx.relay_forward_ns"])
	}
	if _, err := os.Stat(outDir + "/trace-wire_calls.json"); err != nil {
		t.Error(err)
	}
}

// The wrapper must forward the batched path and nest its spans: a send
// made from a handler is the handler's child, and comes out of its
// self time.
func TestTracedTransportNesting(t *testing.T) {
	tr := newTracer()
	server, err := transport.ListenUDPConfig("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.wrap(server, false)
	defer w.Close()
	var _ transport.BatchSender = w
	var _ transport.BatchEndNotifier = w
	w.SetReceiver(func(src string, data []byte) { w.Send(src, data) }) // echo

	client, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got := make(chan struct{}, 1) // one echo expected
	client.SetReceiver(func(string, []byte) { got <- struct{}{} })
	client.Send(server.LocalAddr(), []byte("INVITE sip:x SIP/2.0\r\nCall-ID: nest-1\r\n\r\n"))
	<-got
	// The server's read loop records its spans after the echo is on the
	// wire, so the client has its answer before they exist: wait for them.
	var h, s, b spanAgg
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		h, s, b = tr.get(spanHandleSIP, "INVITE"), tr.get(spanTxSend, ""), tr.get(spanRxBatch, "")
		if (h.n == 1 && s.n == 1 && b.n == 1) || time.Now().After(deadline) {
			break
		}
	}
	if h.n != 1 || s.n != 1 || b.n != 1 {
		t.Fatalf("spans: handle %d, send %d, batch %d; want 1 each", h.n, s.n, b.n)
	}
	if h.self != h.dur-s.dur {
		t.Errorf("handler self %d, want duration %d minus the send's %d", h.self, h.dur, s.dur)
	}
	if b.dur < h.dur {
		t.Errorf("batch (%d ns) shorter than the handler inside it (%d ns)", b.dur, h.dur)
	}
	var handler, send span
	tr.mu.Lock()
	for _, sp := range tr.spans {
		switch sp.Name {
		case spanHandleSIP:
			handler = sp
		case spanTxSend:
			send = sp
		}
	}
	tr.mu.Unlock()
	if send.Parent != handler.ID || handler.Key != "nest-1" || handler.Kind != "INVITE" {
		t.Errorf("send %+v not nested under handler %+v", send, handler)
	}
	if len(tr.sipIn) != 1 {
		t.Errorf("captured %d datagrams, want 1", len(tr.sipIn))
	}
}

// The real thing, small: build pbxd, spawn it on ephemeral ports, drive
// it, reap it.
func TestChildProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns cmd/pbxd")
	}
	o, err := runUntraced("wire_calls", smoke)
	requireCorrect(t, o, err)
	if o.Metrics["setup_s"] <= 0 || o.Metrics["maxrss_mb"] <= 0 {
		t.Errorf("setup_s %v, maxrss_mb %v", o.Metrics["setup_s"], o.Metrics["maxrss_mb"])
	}
	live.Lock()
	n := len(live.set)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d pbxd left running", n)
	}
}
