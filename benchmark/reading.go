package main

import (
	"fmt"
	"time"
)

// reading is every outside instrument of the server read at one
// instant — the phase edges of a workload.
type reading struct {
	cpu  cpuTimes
	mem  memStat
	prom promSamples
}

// takeReading reads the instruments. The scrape and the heap profile
// are work the server does for the benchmark, not for the workload, so
// the CPU figure is read on the workload's side of them: last when the
// reading opens an interval, first when it closes one.
func takeReading(srv server, closing bool) (reading, error) {
	var r reading
	var err error
	if closing {
		if r.cpu, err = srv.usage(); err != nil {
			return r, fmt.Errorf("read cpu: %w", err)
		}
	}
	if r.prom, err = srv.scrape(); err != nil {
		return r, fmt.Errorf("scrape /metrics: %w", err)
	}
	if r.mem, err = srv.memory(); err != nil {
		return r, fmt.Errorf("read memory: %w", err)
	}
	if !closing {
		if r.cpu, err = srv.usage(); err != nil {
			return r, fmt.Errorf("read cpu: %w", err)
		}
	}
	return r, nil
}

// awaitIdle waits until the server has released every channel and its
// SIP message count has stopped moving. The generator sees a call end
// at the 200 to its BYE; the server releases the channel a moment
// later, and the other leg's 200 arrives a moment after that.
func awaitIdle(srv server) {
	deadline := time.Now().Add(2 * time.Second)
	last := -1.0
	for time.Now().Before(deadline) {
		s, err := srv.scrape()
		if err != nil {
			return
		}
		msgs := s.sum("sip_messages_total")
		if s.sum("pbx_active_channels") == 0 && msgs == last {
			return
		}
		last = msgs
		time.Sleep(5 * time.Millisecond)
	}
}

// serverLayers fills the per-layer metrics read from outside the
// server between two readings: the process figures, the SIP
// listener's udp_* families, and the pbx / sip counters.
func (o *outcome) serverLayers(a, b reading) {
	d := b.prom.delta(a.prom)
	cpu := b.cpu.sub(a.cpu)
	o.Layers["pbxd.user_cpu_s"] = cpu.user.Seconds()
	o.Layers["pbxd.sys_cpu_s"] = cpu.sys.Seconds()
	if t := cpu.total(); t > 0 {
		o.Layers["pbxd.sys_share"] = cpu.sys.Seconds() / t.Seconds()
	}
	relayed := d.sum("rtp_relay_packets_total") + d.sum("rtp_relay_rtcp_total")
	dropped := d.sum("rtp_relay_dropped_total")
	rxSIP := d.sum("udp_rx_packets_total")
	if in := rxSIP + relayed + dropped; in > 0 {
		o.Layers["pbxd.vol_ctx_switches_per_pkt"] = (b.mem.volCtx - a.mem.volCtx) / in
	}
	o.Layers["pbxd.heap_inuse_mb"] = b.mem.heapInuseMB
	o.Layers["pbxd.gc_count"] = b.mem.numGC - a.mem.numGC

	// pbxd publishes udp_* for its SIP listener only; the relay legs'
	// batch widths come from the traced run.
	if n := d.sum("udp_rx_batches_total"); n > 0 {
		o.Layers["transport.rx_pkts_per_batch"] = rxSIP / n
	}
	if n := d.sum("udp_tx_batches_total"); n > 0 {
		o.Layers["transport.tx_pkts_per_batch"] = d.sum("udp_tx_packets_total") / n
	}
	o.Layers["transport.tx_dropped"] = d.sum("udp_tx_dropped_total")

	o.Layers["sip.retransmits"] = d.sum("sip_retransmissions_total")
	o.Layers["pbx.relayed_pkts"] = d.sum("rtp_relay_packets_total")
	o.Layers["pbx.dropped_pkts"] = dropped
	o.Layers["pbx.peak_channels"] = b.prom.sum("pbx_peak_channels")
	hits := d.sum("pbx_nonce_cache_total", "result", "hit")
	if all := d.sum("pbx_nonce_cache_total"); all > 0 {
		o.Layers["directory.nonce_hit_ratio"] = hits / all
	}
}

// quiesced checks that the server holds nothing once the workload has
// ended: no channel, no call span and — where the server can be asked,
// which is the in-process one — no SIP transaction.
func (o *outcome) quiesced(srv server, after promSamples, p params) {
	o.equal("server: active channels at quiesce", after.sum("pbx_active_channels"), 0)
	o.equal("server: active call spans at quiesce", after.sum("pbx_trace_active_spans"), 0)
	o.equal("server: parse errors", after.sum("sip_parse_errors_total"), 0)
	if in, ok := srv.(*inprocServer); ok && p.lingerCheck {
		// Completed server transactions linger for Timer J / the ACK
		// linger (5 s) before they are reaped.
		deadline := time.Now().Add(8 * time.Second)
		n := in.srv.ActiveTransactions()
		for n > 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Millisecond)
			n = in.srv.ActiveTransactions()
		}
		o.equal("server: active transactions at quiesce", float64(n), 0)
	}
}
