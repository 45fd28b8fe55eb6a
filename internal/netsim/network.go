package netsim

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Addr identifies an endpoint on the simulated network, in the spirit
// of a host:port pair. Host selects the node, Port the handler bound on
// that node.
type Addr struct {
	Host string
	Port int
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// Packet is a datagram in flight on the simulated network. Packets are
// pooled: both the Packet and its Payload are only valid for the
// duration of the HandlePacket (or Tap) call that receives them.
// Handlers that need the bytes later must copy them.
//
// Ownership across shards: a packet is allocated from the sending
// shard's pool, but released into the pool of the shard recorded in
// its shard field — the destination host's shard for a handoff. The
// receiving shard is the only goroutine touching the packet after the
// barrier publishes it, so neither the payload buffer nor the free
// list is ever shared between concurrently running shards. The
// gets/puts pool counters stay balanced globally, not per shard; the
// PoolStats invariant checks exactly that.
type Packet struct {
	Src, Dst Addr
	Payload  []byte
	// SentAt is stamped by the network when the packet enters a link,
	// so receivers can compute one-way delay in virtual time.
	SentAt time.Duration

	// Pooled delivery state. Packet implements Runner so a delivery
	// schedules without allocating a closure.
	n      *Network
	l      *link
	shard  int32 // shard whose pool receives the packet on release
	rated  bool  // holds a same-shard serialization queue slot to release
	srcStr string
	port   *port  // destination binding slot; nil on a cross-shard route
	buf    []byte // backing array for Payload, reused across lives
}

// SrcString returns "host:port" for the packet source without
// allocating: source addresses are interned per network.
func (p *Packet) SrcString() string {
	if p.srcStr == "" {
		return p.Src.String()
	}
	return p.srcStr
}

// RunEvent delivers the packet; it is the scheduler callback for every
// in-flight datagram. rated is only ever set on same-shard deliveries:
// a cross-shard delivery must not touch the sending shard's queue
// counter, so rate-limited handoffs release their queue slot lazily on
// the sending side instead (see link.pendingRelease).
func (p *Packet) RunEvent(now time.Duration) {
	if p.rated && p.l.queued > 0 {
		p.l.queued--
	}
	n := p.n
	n.deliver(p.l, p, now)
	n.release(p)
}

// port is one address's binding slot on the shard owning its host.
// Slots are never deleted: Unbind clears the handler and Bind refills
// the same slot, so a Route holding the slot sees a partition or a
// rebind at delivery time, exactly as a lookup by address would.
type port struct {
	h Handler
}

// Route is a resolved src→dst path: the interned source string, the
// link and, when both hosts live on one shard, the destination's
// binding slot. A sender whose peer never changes resolves once and
// sends on the route for the rest of its life (SendRoute). A route
// keeps the link it resolved, so link profiles are setup state.
type Route struct {
	src, dst Addr
	srcStr   string
	l        *link
	port     *port // nil on a cross-shard route: the destination shard looks it up
	shard    int   // the sending shard
}

// Handler receives packets delivered to a bound port.
type Handler interface {
	HandlePacket(now time.Duration, pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now time.Duration, pkt *Packet)

// HandlePacket calls f(now, pkt).
func (f HandlerFunc) HandlePacket(now time.Duration, pkt *Packet) { f(now, pkt) }

// LinkProfile describes the impairments of a path between two hosts.
// The zero value is an ideal link (no delay, no loss).
type LinkProfile struct {
	Delay  time.Duration // fixed propagation + switching delay
	Jitter time.Duration // uniform ±Jitter added to Delay
	Loss   float64       // independent packet loss probability [0,1]
	// RateBps, if > 0, limits throughput: packets are serialized at
	// this many bits per second, queueing behind one another. This is
	// how the 10/100 Mb/s switch of the paper's testbed is modelled.
	RateBps float64
	// QueueLimit bounds the serialization backlog (in packets) when
	// RateBps > 0; excess packets are tail-dropped. Zero means 512.
	QueueLimit int
	// DupProb duplicates a delivered packet with this probability: the
	// copy arrives DupDelay after the original (default 1ms). UDP
	// duplication is what SIP retransmission absorbers must tolerate.
	DupProb  float64
	DupDelay time.Duration
	// ReorderProb delays a packet by an extra ReorderDelay (default
	// 4ms) with this probability, letting packets sent after it
	// overtake it — classic multi-path reordering.
	ReorderProb  float64
	ReorderDelay time.Duration
}

// Lookahead returns the profile's guaranteed minimum delay — the
// conservative-synchronization budget a link contributes when it
// crosses a shard boundary. Jitter subtracts from it; serialization,
// reordering and duplication only ever add delay.
func (p LinkProfile) Lookahead() time.Duration {
	d := p.Delay - p.Jitter
	if d < 0 {
		d = 0
	}
	return d
}

// link state is owned by the shard of its source host: every field
// except delivered is only touched during that shard's Send calls.
// delivered is written by the destination shard at delivery time and
// read after the run — a disjoint field, so the single-writer rule
// holds per field.
type link struct {
	profile    LinkProfile
	rng        *stats.RNG
	dstShard   int32
	crossShard bool
	// busyUntil tracks the serialization horizon for rate limiting.
	busyUntil time.Duration
	queued    int
	// pendingRelease holds the arrival times of rate-limited packets
	// handed to another shard; their queue slots free lazily when the
	// sending shard next consults the queue. Arrival times are
	// monotone per link, so the slice stays sorted by construction.
	pendingRelease []time.Duration
	relHead        int
	// counters
	sent, dropped, delivered, duplicated, reordered uint64
}

// releaseDue frees queue slots whose packets have arrived by now.
func (l *link) releaseDue(now time.Duration) {
	for l.relHead < len(l.pendingRelease) && l.pendingRelease[l.relHead] <= now {
		if l.queued > 0 {
			l.queued--
		}
		l.relHead++
	}
	if l.relHead == len(l.pendingRelease) {
		l.pendingRelease = l.pendingRelease[:0]
		l.relHead = 0
	}
}

// LinkStats reports per-link counters. Delivered counts duplicate
// copies too, so Delivered may exceed Sent - Dropped on a duplicating
// link.
type LinkStats struct {
	Sent, Dropped, Delivered, Duplicated, Reordered uint64
}

// Tap observes every packet accepted onto the network, before loss is
// applied — the position a port-mirroring switch (where the paper ran
// Wireshark) would see. Taps run on the shard of the sending host.
type Tap func(now time.Duration, pkt *Packet)

// handoff is one cross-shard delivery staged in an outbox: the packet
// plus the (at, schedAt, ord) key the destination scheduler needs to
// place it exactly where the sending shard would have.
type handoff struct {
	at, schedAt time.Duration
	ord         uint64
	pkt         *Packet
}

// netShard is the per-shard slice of the network: everything a Send or
// a delivery touches on the hot path, owned by exactly one shard
// goroutine while the group runs.
type netShard struct {
	sched    *Scheduler
	links    map[[2]string]*link // links whose source host lives here
	bindings map[Addr]*port      // addresses whose host lives here; never deleted
	taps     []Tap
	pktFree  []*Packet
	addrStrs map[Addr]string
	noRoute  uint64
	gets     uint64 // packets taken from (or allocated for) the pool
	puts     uint64 // packets returned to the pool
	outSeq   uint64 // handoff ordinal counter, unique per source shard
	outbox   [][]handoff
}

func newNetShard(sched *Scheduler, n int) *netShard {
	return &netShard{
		sched:    sched,
		links:    make(map[[2]string]*link),
		bindings: make(map[Addr]*port),
		addrStrs: make(map[Addr]string),
		outbox:   make([][]handoff, n),
	}
}

// Network is a simulated datagram fabric: hosts, point-to-point link
// profiles, and port bindings. In the classic single-scheduler form all
// methods must be called from the scheduler's goroutine (inside events
// or before Run). In sharded form (NewShardedNetwork) the same rule
// applies per shard: each host's traffic is handled on its own shard,
// and setup must finish before the group first runs.
type Network struct {
	shards    []*netShard
	hostShard map[string]int
	defaults  LinkProfile
	// linkSeed derives the per-link RNG streams: each (src, dst) pair
	// gets an independent xoshiro stream seeded from linkSeed and the
	// host names. Draws therefore depend only on that link's own send
	// sequence, which is what makes a sharded run reproduce the
	// single-threaded run's impairment decisions bit-for-bit.
	linkSeed uint64
	// isolated declares that no packet will ever cross a shard
	// boundary (replicated-workload placement); see SetIsolatedShards.
	isolated bool
}

// NewNetwork creates a single-shard network on the given scheduler,
// with rng seeding the per-link impairment streams.
func NewNetwork(s *Scheduler, rng *stats.RNG) *Network {
	return &Network{
		shards:   []*netShard{newNetShard(s, 1)},
		linkSeed: rng.Uint64(),
	}
}

// NewShardedNetwork creates a network partitioned across the shard
// group: hostShard maps each host name to the shard that owns it
// (unlisted hosts fall to shard 0). The group gains the network as its
// handoff source.
func NewShardedNetwork(g *ShardGroup, rng *stats.RNG, hostShard map[string]int) *Network {
	n := &Network{
		shards:    make([]*netShard, g.N()),
		hostShard: hostShard,
		linkSeed:  rng.Uint64(),
	}
	for i := range n.shards {
		n.shards[i] = newNetShard(g.Shard(i), g.N())
	}
	g.net = n
	return n
}

// SetIsolatedShards declares that the workload never sends between
// hosts of different shards — the replicated-islands placement, where
// each shard simulates a self-contained copy of the topology. The
// conservative lookahead then stops binding window length (windows are
// still split at whole seconds for the per-second observers), which is
// what lets isolated shards scale near-linearly. A cross-shard send
// under this declaration panics: it would silently violate causality.
func (n *Network) SetIsolatedShards() { n.isolated = true }

// ShardOf returns the shard index owning host.
func (n *Network) ShardOf(host string) int {
	if len(n.shards) == 1 {
		return 0
	}
	return n.hostShard[host]
}

// SchedulerFor returns the scheduler that runs host's events — the
// clock source for any component living on that host.
func (n *Network) SchedulerFor(host string) *Scheduler {
	return n.shards[n.ShardOf(host)].sched
}

// newPacket takes a packet from the shard's free list or allocates one.
func (sh *netShard) newPacket() *Packet {
	sh.gets++
	if k := len(sh.pktFree); k > 0 {
		p := sh.pktFree[k-1]
		sh.pktFree[k-1] = nil
		sh.pktFree = sh.pktFree[:k-1]
		return p
	}
	return &Packet{}
}

// release returns a packet to the free list of the shard stamped on it,
// keeping its payload buffer for the next life.
func (n *Network) release(p *Packet) {
	p.Payload = nil
	p.n, p.l, p.port = nil, nil, nil
	sh := n.shards[p.shard]
	sh.puts++
	sh.pktFree = append(sh.pktFree, p)
}

func (sh *netShard) addrString(a Addr) string {
	if s, ok := sh.addrStrs[a]; ok {
		return s
	}
	s := a.String()
	sh.addrStrs[a] = s
	return s
}

// SetDefaultProfile sets the profile used for host pairs without an
// explicit link.
func (n *Network) SetDefaultProfile(p LinkProfile) { n.defaults = p }

// SetLink installs a unidirectional link profile from src to dst hosts.
// Call it before traffic flows: a Route resolved earlier keeps the link
// it found.
func (n *Network) SetLink(srcHost, dstHost string, p LinkProfile) {
	sh := n.shards[n.ShardOf(srcHost)]
	sh.links[[2]string{srcHost, dstHost}] = n.newLink(srcHost, dstHost, p)
}

// SetDuplexLink installs the same profile in both directions.
func (n *Network) SetDuplexLink(a, b string, p LinkProfile) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// portFor returns addr's binding slot, creating an empty one on first
// use. addr's host must live on this shard.
func (sh *netShard) portFor(addr Addr) *port {
	pt, ok := sh.bindings[addr]
	if !ok {
		pt = &port{}
		sh.bindings[addr] = pt
	}
	return pt
}

// Bind attaches a handler to an address. Binding an already bound
// address replaces the previous handler, matching UDP rebind semantics
// in the tests.
func (n *Network) Bind(addr Addr, h Handler) {
	n.shards[n.ShardOf(addr.Host)].portFor(addr).h = h
}

// Unbind removes a binding; packets to it are then dropped and counted.
// The slot stays, empty, for the routes that hold it.
func (n *Network) Unbind(addr Addr) {
	if pt := n.shards[n.ShardOf(addr.Host)].bindings[addr]; pt != nil {
		pt.h = nil
	}
}

// Handler returns the handler bound at addr, or nil when unbound —
// lets fault injectors save a binding across an Unbind/Bind partition
// window without owning the endpoint.
func (n *Network) Handler(addr Addr) Handler {
	if pt := n.shards[n.ShardOf(addr.Host)].bindings[addr]; pt != nil {
		return pt.h
	}
	return nil
}

// AddTap registers an observer for all sent packets. On a sharded
// network the tap runs on whichever shard sends, so it must be safe for
// that.
func (n *Network) AddTap(t Tap) {
	for _, sh := range n.shards {
		sh.taps = append(sh.taps, t)
	}
}

// Send queues a datagram for delivery, resolving the route on every
// call. The payload is copied into a pooled buffer, so the caller may
// reuse its slice as soon as Send returns; conversely, receivers only
// own the delivered Payload for the duration of their HandlePacket
// call. Loss, jitter and rate limiting are applied per the link profile
// between the source and destination hosts.
func (n *Network) Send(src, dst Addr, payload []byte) {
	r := n.Resolve(n.ShardOf(src.Host), src, dst)
	n.SendRoute(&r, payload)
}

// Resolve looks up everything a src→dst datagram needs once, for a
// sender on shard (the source host's) to keep and pass to SendRoute.
// Must execute on that shard: it may create the link and, for a
// same-shard destination, the destination's binding slot. A cross-shard
// route holds no slot — no shard ever reads another shard's bindings.
func (n *Network) Resolve(shard int, src, dst Addr) Route {
	sh := n.shards[shard]
	r := Route{
		src:    src,
		dst:    dst,
		srcStr: sh.addrString(src),
		l:      sh.linkFor(n, src.Host, dst.Host),
		shard:  shard,
	}
	if !r.l.crossShard {
		r.port = sh.portFor(dst)
	}
	return r
}

// SendRoute is Send on an already resolved route — the hot path for
// transports whose peer does not change. Must execute on the route's
// sending shard.
func (n *Network) SendRoute(r *Route, payload []byte) {
	sh := n.shards[r.shard]
	now := sh.sched.Now()
	pkt := n.packetOn(sh, r, payload, now)
	for _, t := range sh.taps {
		t(now, pkt)
	}
	l := r.l
	l.sent++
	p := l.profile

	// Serialization under a rate limit.
	depart := now
	if p.RateBps > 0 {
		if l.crossShard {
			l.releaseDue(now)
		}
		limit := p.QueueLimit
		if limit == 0 {
			limit = 512
		}
		if l.busyUntil > now && l.queued >= limit {
			l.dropped++
			n.release(pkt)
			return
		}
		bits := float64(len(payload)+28) * 8 // UDP+IP header overhead
		txTime := time.Duration(bits / p.RateBps * float64(time.Second))
		if l.busyUntil > now {
			depart = l.busyUntil
			l.queued++
		}
		l.busyUntil = depart + txTime
		depart += txTime
	}

	if p.Loss > 0 && l.rng.Float64() < p.Loss {
		l.dropped++
		if p.RateBps > 0 && depart > now {
			// Still consumed wire time before being lost downstream;
			// queue accounting below handles the slot release. Lost
			// packets on rate-limited links are rare enough that the
			// closure here is not worth pooling. The event is local to
			// the sending shard in both engine modes.
			sh.sched.At(depart, func(time.Duration) {
				if l.queued > 0 {
					l.queued--
				}
			})
		}
		n.release(pkt)
		return
	}

	delay := p.Delay
	if p.Jitter > 0 {
		delay += time.Duration((2*l.rng.Float64() - 1) * float64(p.Jitter))
		if delay < 0 {
			delay = 0
		}
	}
	// Reordering: hold this packet back long enough for packets sent
	// after it to overtake it. The RNG draw happens only when the
	// profile asks for it, so profiles without reordering keep their
	// exact random stream (deterministic replay compatibility).
	if p.ReorderProb > 0 && l.rng.Float64() < p.ReorderProb {
		l.reordered++
		extra := p.ReorderDelay
		if extra <= 0 {
			extra = 4 * time.Millisecond
		}
		delay += extra
	}
	n.dispatch(sh, l, pkt, now, depart+delay, p.RateBps > 0)
	// Duplication: an extra copy trails the original; it does not hold
	// a queue slot (the switch already forwarded the original).
	if p.DupProb > 0 && l.rng.Float64() < p.DupProb {
		l.duplicated++
		dupDelay := p.DupDelay
		if dupDelay <= 0 {
			dupDelay = time.Millisecond
		}
		dup := n.packetOn(sh, r, payload, now)
		n.dispatch(sh, l, dup, now, depart+delay+dupDelay, false)
	}
}

// packetOn takes a packet from sh's pool and fills it with a copy of
// payload for one trip along r, sent at now.
func (n *Network) packetOn(sh *netShard, r *Route, payload []byte, now time.Duration) *Packet {
	pkt := sh.newPacket()
	pkt.Src, pkt.Dst = r.src, r.dst
	pkt.buf = append(pkt.buf[:0], payload...)
	pkt.Payload = pkt.buf
	pkt.SentAt = now
	pkt.n, pkt.l, pkt.port = n, r.l, r.port
	pkt.shard = int32(r.shard)
	pkt.rated = false
	pkt.srcStr = r.srcStr
	return pkt
}

// dispatch schedules a delivery: directly on the local scheduler for a
// same-shard destination, or staged in the outbox for the destination
// shard to be inserted at the next window barrier. rated queue slots of
// cross-shard packets are released lazily (pendingRelease) because the
// destination shard must never write the sending shard's link state.
func (n *Network) dispatch(sh *netShard, l *link, pkt *Packet, now, at time.Duration, rated bool) {
	if !l.crossShard {
		pkt.rated = rated
		sh.sched.AtRunner(at, pkt)
		return
	}
	if n.isolated {
		panic(fmt.Sprintf("netsim: cross-shard send %s -> %s on a network declared isolated",
			pkt.Src.Host, pkt.Dst.Host))
	}
	if rated {
		l.pendingRelease = append(l.pendingRelease, at)
	}
	pkt.shard = l.dstShard
	sh.outSeq++
	sh.outbox[l.dstShard] = append(sh.outbox[l.dstShard], handoff{
		at:      at,
		schedAt: now,
		ord:     sh.sched.shardTag | sh.outSeq,
		pkt:     pkt,
	})
}

// drainHandoffs moves every staged cross-shard delivery into its
// destination scheduler. Called by the group coordinator at a window
// barrier, when all shards are parked. Outboxes are visited in
// ascending (source, destination) shard order; the result does not
// depend on it, because the (at, schedAt, ord) keys already total-order
// the events, but a deterministic walk keeps the pool and counter state
// reproducible too.
func (n *Network) drainHandoffs() {
	for _, sh := range n.shards {
		for dst, box := range sh.outbox {
			if len(box) == 0 {
				continue
			}
			dsched := n.shards[dst].sched
			for _, h := range box {
				dsched.ScheduleHandoff(h.at, h.schedAt, h.ord, h.pkt)
			}
			sh.outbox[dst] = box[:0]
		}
	}
}

// lookaheadQuantum computes the conservative lookahead: the minimum
// guaranteed delay over the default profile (any host pair may use it)
// and every explicit cross-shard link. A non-positive result means the
// topology cannot be sharded as assigned.
func (n *Network) lookaheadQuantum() (time.Duration, error) {
	if n.isolated {
		// No packet ever crosses a shard boundary; windows are bounded
		// only by the whole-second observer splits.
		return time.Hour, nil
	}
	q := n.defaults.Lookahead()
	if q <= 0 {
		return 0, fmt.Errorf("%w: default profile", ErrNoLookahead)
	}
	for _, sh := range n.shards {
		for key, l := range sh.links {
			if !l.crossShard {
				continue
			}
			d := l.profile.Lookahead()
			if d <= 0 {
				return 0, fmt.Errorf("%w: %s->%s", ErrNoLookahead, key[0], key[1])
			}
			if d < q {
				q = d
			}
		}
	}
	return q, nil
}

// deliver hands a packet to its destination binding, counting strays.
// Runs on the destination host's shard: a same-shard packet carries its
// route's slot, a handoff looks the slot up in that shard's own map.
func (n *Network) deliver(l *link, pkt *Packet, at time.Duration) {
	pt := pkt.port
	if pt == nil {
		pt = n.shards[pkt.shard].bindings[pkt.Dst]
	}
	if pt == nil || pt.h == nil {
		n.shards[pkt.shard].noRoute++
		return
	}
	l.delivered++
	pt.h.HandlePacket(at, pkt)
}

func (n *Network) newLink(src, dst string, p LinkProfile) *link {
	return &link{
		profile:    p,
		rng:        stats.NewRNG(n.linkSeed ^ hashHosts(src, dst)),
		dstShard:   int32(n.ShardOf(dst)),
		crossShard: len(n.shards) > 1 && n.ShardOf(src) != n.ShardOf(dst),
	}
}

// hashHosts mixes a host pair into a link-stream seed (FNV-1a).
func hashHosts(src, dst string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= 1099511628211
	}
	h ^= 0xff // separator outside the host alphabet
	h *= 1099511628211
	for i := 0; i < len(dst); i++ {
		h ^= uint64(dst[i])
		h *= 1099511628211
	}
	return h
}

// linkFor returns the src→dst link, creating it with the default
// profile on first use.
func (sh *netShard) linkFor(n *Network, src, dst string) *link {
	key := [2]string{src, dst}
	if l, ok := sh.links[key]; ok {
		return l
	}
	l := n.newLink(src, dst, n.defaults)
	sh.links[key] = l
	return l
}

// LinkStats returns counters for the src→dst link, creating it if absent.
func (n *Network) LinkStats(srcHost, dstHost string) LinkStats {
	sh := n.shards[n.ShardOf(srcHost)]
	l := sh.linkFor(n, srcHost, dstHost)
	return LinkStats{
		Sent: l.sent, Dropped: l.dropped, Delivered: l.delivered,
		Duplicated: l.duplicated, Reordered: l.reordered,
	}
}

// NoRoute returns the count of packets addressed to unbound ports,
// summed over shards.
func (n *Network) NoRoute() uint64 {
	var total uint64
	for _, sh := range n.shards {
		total += sh.noRoute
	}
	return total
}

// PoolStats returns the packet pool's total gets and puts across
// shards. With no packets in flight (after a drained run) the two must
// be equal; a difference is a pool leak across a shard boundary.
func (n *Network) PoolStats() (gets, puts uint64) {
	for _, sh := range n.shards {
		gets += sh.gets
		puts += sh.puts
	}
	return gets, puts
}

// Scheduler returns the scheduler driving shard 0 — the only scheduler
// of a classic single-shard network.
func (n *Network) Scheduler() *Scheduler { return n.shards[0].sched }
