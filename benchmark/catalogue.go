package main

// The metric catalogue. BENCHMARK.json carries the same names and
// units (catalogue_test.go keeps the two in step); every later PR is
// judged by them, so a name is never reused for a different quantity.

type metricDef struct {
	name, unit string
	// better and bound apply to end-to-end metrics only: which way is
	// an improvement, and the share of the parent's median by which the
	// metric may worsen before a change counts as a regression.
	better string
	bound  float64
}

// endToEnd is what a user of the system sees, measured with tracing
// off. The PR driver reads every one of them from every workload, so the
// names are generic; what each measures on a workload is tabled in
// README.md and set where the workload computes it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"maxrss_mb", "MB", "lower", 0.25},
}

// perLayer is one layer's work, time or waste, named <module>.<what>.
// A workload that does not touch a layer reports 0 for its metrics —
// which is itself the "no change predicted" reading of README.md's
// interaction table.
var perLayer = []metricDef{
	// pbxd as a process, from /proc and the admin endpoint.
	{name: "pbxd.ready_ms", unit: "ms"},
	{name: "pbxd.user_cpu_s", unit: "s"},
	{name: "pbxd.sys_cpu_s", unit: "s"},
	{name: "pbxd.sys_share", unit: "ratio"},
	{name: "pbxd.vol_ctx_switches_per_pkt", unit: "count"},
	{name: "pbxd.heap_inuse_mb", unit: "MB"},
	{name: "pbxd.gc_count", unit: "count"},
	{name: "pbxd.rss_kb_per_live_call", unit: "KB"},
	// internal/transport.
	{name: "transport.rx_pkts_per_batch", unit: "ratio"},
	{name: "transport.tx_pkts_per_batch", unit: "ratio"},
	{name: "transport.tx_dropped", unit: "count"},
	{name: "transport.rx_to_handler_us", unit: "us"},
	{name: "transport.tx_send_us", unit: "us"},
	{name: "transport.tx_queue_ns", unit: "ns"},
	{name: "transport.tx_flush_us", unit: "us"},
	{name: "transport.listen_close_us", unit: "us"},
	// internal/sip and internal/sdp.
	{name: "sip.parse_ns", unit: "ns"},
	{name: "sip.parse_allocs", unit: "count"},
	{name: "sip.marshal_ns", unit: "ns"},
	{name: "sip.marshal_allocs", unit: "count"},
	{name: "sip.digest_verify_ns", unit: "ns"},
	{name: "sip.msgs_per_call", unit: "count"},
	{name: "sip.retransmits", unit: "count"},
	{name: "sip.register_p50_ms", unit: "ms"},
	{name: "sdp.parse_ns", unit: "ns"},
	{name: "sdp.answer_ns", unit: "ns"},
	// internal/directory.
	{name: "directory.contact_ns", unit: "ns"},
	{name: "directory.register_ns", unit: "ns"},
	{name: "directory.nonce_verify_ns", unit: "ns"},
	{name: "directory.nonce_hit_ratio", unit: "ratio"},
	// internal/pbx.
	{name: "pbx.handle_invite_us", unit: "us"},
	{name: "pbx.handle_ack_us", unit: "us"},
	{name: "pbx.handle_bye_us", unit: "us"},
	{name: "pbx.handle_register_us", unit: "us"},
	{name: "pbx.handle_response_us", unit: "us"},
	{name: "pbx.bridge_alloc_kb_per_call", unit: "KB"},
	{name: "pbx.relay_forward_ns", unit: "ns"},
	{name: "pbx.relayed_pkts", unit: "count"},
	{name: "pbx.dropped_pkts", unit: "count"},
	{name: "pbx.peak_channels", unit: "count"},
	// internal/rtp, internal/media, internal/mos.
	{name: "rtp.unmarshal_ns", unit: "ns"},
	{name: "media.qos_observe_ns", unit: "ns"},
	{name: "media.relay_delay_p50_us", unit: "us"},
	{name: "media.mos_min", unit: "mos"},
	{name: "media.jitter_p99_ms", unit: "ms"},
	// internal/netsim and internal/core.
	{name: "netsim.events", unit: "count"},
	{name: "netsim.events_per_call", unit: "count"},
	{name: "netsim.sched_cycle_ns", unit: "ns"},
	{name: "netsim.send_deliver_ns", unit: "ns"},
	{name: "netsim.shard2_ratio", unit: "ratio"},
	{name: "core.allocs_per_event", unit: "count"},
	{name: "core.bytes_per_event", unit: "B"},
	// The load generator itself, and the books.
	{name: "loadgen.latency_p90_us", unit: "us"},
	{name: "loadgen.latency_p99_us", unit: "us"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "loadgen.cpu_s", unit: "s"},
	{name: "budget.accounted_share", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name, why string
}

var workloads = []workloadDef{
	{"wire_calls", "zero-hold calls through pbxd on loopback UDP: sip and the pbx bridge set-up do the work, the relay forwards nothing"},
	{"wire_media", "60 paced G.711 calls through pbxd's relay: pbx relay, rtp, media and batched transport do the work, sip does none in the window"},
	{"wire_register", "digest REGISTERs for 20000 AORs: directory writes, nonce cache and small-message sip do the work, bridge and relay do none"},
	{"sim_table1", "the paper's Table I in-process over netsim: the same sip/pbx/rtp code with no UDP, including the 503 reject path"},
}
