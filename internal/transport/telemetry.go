package transport

import (
	"strconv"

	"repro/internal/telemetry"
)

// Transport telemetry family names (one snake_case const per family;
// `make lint-metrics` enforces registration through these).
const (
	mUDPRxPackets   = "udp_rx_packets_total"
	mUDPRxBatches   = "udp_rx_batches_total"
	mUDPRxTruncated = "udp_rx_truncated_total"
	mUDPTxPackets   = "udp_tx_packets_total"
	mUDPTxDropped   = "udp_tx_dropped_total"
	mUDPPoolGets    = "udp_pool_gets_total"
	mUDPPoolPuts    = "udp_pool_puts_total"

	mLegBinds          = "udp_leg_binds_total"
	mLegReuses         = "udp_leg_reuses_total"
	mLegOverflowCloses = "udp_leg_overflow_closes_total"
	mLegsParked        = "udp_legs_parked"
	mLegsOpen          = "udp_legs_open"
	mLegRxPackets      = "udp_leg_rx_packets_total"
	mLegRxWakeups      = "udp_leg_rx_wakeups_total"
	mLegRxTruncated    = "udp_leg_rx_truncated_total"
	mLegTxPackets      = "udp_leg_tx_packets_total"
	mLegTxDropped      = "udp_leg_tx_dropped_total"
)

// StatsSource is anything exposing wire-transport counters —
// *UDPTransport and *ShardedUDP both qualify.
type StatsSource interface {
	Stats() TransportStats
	PoolStats() (gets, puts uint64)
}

// ShardStatser is a StatsSource whose counters decompose per listening
// socket (*ShardedUDP). When a source exposes more than one shard,
// PublishTelemetry registers the packet counters shard-labelled
// instead of aggregated — a scraper summing the label sets recovers
// the aggregate, while REUSEPORT imbalance stays visible per shard.
type ShardStatser interface {
	NumShards() int
	ShardStats(i int) TransportStats
}

// PublishTelemetry registers src's datagram, read-batch and
// buffer-pool counters on reg as live CounterFuncs, labelled with
// name (e.g. "sip" for the signalling socket). The registry reads the
// transport's atomics at scrape time, so the packet hot path carries
// no extra instrumentation cost.
//
// A multi-shard source gets one {transport,shard} label set per
// listening socket on the packet/batch families — they REPLACE the
// aggregate series (registry readers sum across label sets, so
// registering both would double-count). The pool counters stay
// unlabelled by shard: the buffer pool is shared.
func PublishTelemetry(reg *telemetry.Registry, name string, src StatsSource) {
	l := telemetry.L("transport", name)
	if ss, ok := src.(ShardStatser); ok && ss.NumShards() > 1 {
		for i := 0; i < ss.NumShards(); i++ {
			i := i
			ls := telemetry.L("shard", strconv.Itoa(i))
			reg.CounterFunc(mUDPRxPackets, "datagrams received by the wire transport",
				func() float64 { return float64(ss.ShardStats(i).RxPackets) }, l, ls)
			reg.CounterFunc(mUDPRxBatches, "read syscalls that returned at least one datagram",
				func() float64 { return float64(ss.ShardStats(i).RxBatches) }, l, ls)
			reg.CounterFunc(mUDPRxTruncated, "datagrams longer than the receive buffer, dropped",
				func() float64 { return float64(ss.ShardStats(i).RxTruncated) }, l, ls)
			reg.CounterFunc(mUDPTxPackets, "datagrams transmitted by the wire transport",
				func() float64 { return float64(ss.ShardStats(i).TxPackets) }, l, ls)
			reg.CounterFunc(mUDPTxDropped, "datagrams abandoned on send errors",
				func() float64 { return float64(ss.ShardStats(i).TxDropped) }, l, ls)
		}
	} else {
		reg.CounterFunc(mUDPRxPackets, "datagrams received by the wire transport",
			func() float64 { return float64(src.Stats().RxPackets) }, l)
		reg.CounterFunc(mUDPRxBatches, "read syscalls that returned at least one datagram",
			func() float64 { return float64(src.Stats().RxBatches) }, l)
		reg.CounterFunc(mUDPRxTruncated, "datagrams longer than the receive buffer, dropped",
			func() float64 { return float64(src.Stats().RxTruncated) }, l)
		reg.CounterFunc(mUDPTxPackets, "datagrams transmitted by the wire transport",
			func() float64 { return float64(src.Stats().TxPackets) }, l)
		reg.CounterFunc(mUDPTxDropped, "datagrams abandoned on send errors",
			func() float64 { return float64(src.Stats().TxDropped) }, l)
	}
	publishPool(reg, l, src.PoolStats)
}

func publishPool(reg *telemetry.Registry, l telemetry.Label, stats func() (gets, puts uint64)) {
	reg.CounterFunc(mUDPPoolGets, "buffer-pool gets (must equal puts when idle)",
		func() float64 { gets, _ := stats(); return float64(gets) }, l)
	reg.CounterFunc(mUDPPoolPuts, "buffer-pool puts (must equal gets when idle)",
		func() float64 { _, puts := stats(); return float64(puts) }, l)
}

// PublishTelemetry registers the pool's socket and datagram counters and
// its buffer pool's gets and puts as live funcs in the style of the
// package-level PublishTelemetry, under the transport label "relay".
// The datagram families are udp_leg_*, not udp_rx_* / udp_tx_* with
// another label: readers sum those over every label as the SIP
// listener's.
func (p *LegPool) PublishTelemetry(reg *telemetry.Registry) {
	l := telemetry.L("transport", "relay")
	reg.CounterFunc(mLegBinds, "relay legs opened with a fresh socket",
		func() float64 { return float64(p.Stats().Binds) }, l)
	reg.CounterFunc(mLegReuses, "relay legs served from a parked socket",
		func() float64 { return float64(p.Stats().Reuses) }, l)
	reg.CounterFunc(mLegOverflowCloses, "released relay sockets closed because the pool was full",
		func() float64 { return float64(p.Stats().OverflowCloses) }, l)
	reg.GaugeFunc(mLegsParked, "idle relay sockets kept bound",
		func() float64 { return float64(p.Stats().Parked) }, l)
	reg.GaugeFunc(mLegsOpen, "relay sockets bound, parked ones included",
		func() float64 { return float64(p.Stats().Open) }, l)
	reg.CounterFunc(mLegRxPackets, "datagrams read from relay sockets",
		func() float64 { return float64(p.rxPackets.Load()) }, l)
	reg.CounterFunc(mLegRxWakeups, "wake-ups of the relay reader that moved at least one datagram",
		func() float64 { return float64(p.rxWakeups.Load()) }, l)
	reg.CounterFunc(mLegRxTruncated, "datagrams longer than the receive buffer at relay sockets, dropped",
		func() float64 { return float64(p.rxTruncated.Load()) }, l)
	reg.CounterFunc(mLegTxPackets, "datagrams sent from relay sockets",
		func() float64 { return float64(p.txPackets.Load()) }, l)
	reg.CounterFunc(mLegTxDropped, "relay sends the kernel refused",
		func() float64 { return float64(p.txDropped.Load()) }, l)
	publishPool(reg, l, p.PoolStats)
}
