package transport

import (
	"fmt"
	"sync/atomic"
)

// ShardedUDP is N UDP sockets bound to the same port via SO_REUSEPORT,
// presented as one Transport. The kernel hashes each inbound flow's
// 4-tuple to a socket, so every shard runs its own read loop (and, on
// batch-capable platforms, its own recvmmsg buffers) — the real-socket
// analogue of the sim engine's shard-per-core scheduler. All shards
// share one buffer pool and one address cache.
//
// Outbound datagrams rotate across shards; every shard's socket has
// the same local port, so replies are indistinguishable to peers.
//
// On platforms without SO_REUSEPORT support the constructor silently
// degrades to a single shard, keeping callers portable.
type ShardedUDP struct {
	shards []*UDPTransport
	pool   *BufPool
	next   atomic.Uint32
}

// ListenUDPSharded binds n sockets on addr (":0" picks one ephemeral
// port shared by all shards) and starts their read loops.
func ListenUDPSharded(addr string, n int, cfg UDPConfig) (*ShardedUDP, error) {
	if n < 1 {
		n = 1
	}
	if n > 1 && !reusePortAvailable {
		n = 1
	}
	pool := poolFor(cfg)
	addrs := newAddrCache()
	g := &ShardedUDP{pool: pool}
	bind := addr
	for i := 0; i < n; i++ {
		t, err := listenUDP(bind, cfg, n > 1, pool, addrs)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.shards = append(g.shards, t)
		if i == 0 {
			// Pin the concrete port so sibling shards join it even
			// when the caller asked for ":0".
			bind = t.LocalAddr()
		}
	}
	return g, nil
}

// Send transmits via the next shard in rotation.
func (g *ShardedUDP) Send(dst string, data []byte) {
	g.shard().Send(dst, data)
}

// QueueSend is Send. Part of the BatchSender extension.
func (g *ShardedUDP) QueueSend(dst string, data []byte) { g.Send(dst, data) }

// Flush does nothing: QueueSend has already sent. Part of the
// BatchSender extension.
func (g *ShardedUDP) Flush() {}

func (g *ShardedUDP) shard() *UDPTransport {
	if len(g.shards) == 1 {
		return g.shards[0]
	}
	return g.shards[int(g.next.Add(1))%len(g.shards)]
}

// LocalAddr returns the shared listen address.
func (g *ShardedUDP) LocalAddr() string { return g.shards[0].LocalAddr() }

// SetReceiver installs r on every shard. With n > 1, r runs
// concurrently on all shard read loops and must be safe for that —
// true of the SIP endpoint (one mutex) and the RTP relay.
func (g *ShardedUDP) SetReceiver(r Receiver) {
	for _, t := range g.shards {
		t.SetReceiver(r)
	}
}

// SetBatchEnd installs fn on every shard's read loop. Part of the
// BatchEndNotifier extension.
func (g *ShardedUDP) SetBatchEnd(fn func()) {
	for _, t := range g.shards {
		t.SetBatchEnd(fn)
	}
}

// NumShards returns the number of listening sockets (1 when
// SO_REUSEPORT is unavailable).
func (g *ShardedUDP) NumShards() int { return len(g.shards) }

// Batched reports whether the shards run the batched read loop.
func (g *ShardedUDP) Batched() bool { return g.shards[0].Batched() }

// ShardStats snapshots one listening socket's counters — the
// per-shard view behind the shard-labelled udp_* telemetry, where
// REUSEPORT hash imbalance across the shards becomes visible.
func (g *ShardedUDP) ShardStats(i int) TransportStats { return g.shards[i].Stats() }

// Stats sums the per-shard transport counters.
func (g *ShardedUDP) Stats() TransportStats {
	var s TransportStats
	for _, t := range g.shards {
		ts := t.Stats()
		s.RxPackets += ts.RxPackets
		s.RxBatches += ts.RxBatches
		s.RxTruncated += ts.RxTruncated
		s.TxPackets += ts.TxPackets
		s.TxDropped += ts.TxDropped
	}
	return s
}

// PoolStats returns the shared buffer pool's gets and puts.
func (g *ShardedUDP) PoolStats() (gets, puts uint64) { return g.pool.Stats() }

// Close shuts every shard down.
func (g *ShardedUDP) Close() error {
	var first error
	for _, t := range g.shards {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
