// Package cluster implements the scale-out alternative the paper's
// final considerations propose ("increasing the number of servers and
// server capacity are also a possible alternative", Sec. IV): a farm
// of identical PBX servers behind a SIP redirect balancer, sharing one
// user directory the way the paper's deployment shares its LDAP
// server.
//
// The balancer is a redirect server: it answers each INVITE with
// 302 Moved Temporarily pointing at a chosen backend, and the caller
// re-INVITEs there directly — so the balancer never carries media and
// is not itself a capacity bottleneck. REGISTERs are proxied
// statefully to a per-user-pinned backend (so digest challenges and
// answers reach the same nonce issuer); bindings land in the shared
// directory either way.
//
// Two placement policies expose the classic teletraffic trade-off that
// the cluster experiment (BenchmarkClusterScaling) measures: random/
// round-robin splitting partitions the Erlang-B economies of scale
// away, while least-busy placement recovers near-pooled blocking.
//
// The balancer also owns backend liveness: periodic SIP OPTIONS
// health probes mark a backend down after FailThreshold consecutive
// probe failures (no answer within ProbeTimeout, or a non-200 such as
// a draining server's 503) and up again on the first success, with a
// slow-start ramp so a restarted server is not instantly handed a
// full share of the offered load. CrashBackend/RestartBackend model
// whole-process failure: the crash drops the backend's socket, timers
// and in-flight calls on the floor (detection is the probes' job —
// nothing is marked down administratively), and the restart re-binds
// the port, recovers the CDR journal's interrupted records as LOST,
// and re-enters rotation through the probe + slow-start path.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/directory"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Policy selects how the balancer places calls.
type Policy int

// Placement policies.
const (
	// RoundRobin cycles through backends regardless of load.
	RoundRobin Policy = iota
	// LeastBusy picks the backend with the fewest active channels —
	// approximating a pooled system.
	LeastBusy
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastBusy:
		return "least-busy"
	default:
		return "unknown"
	}
}

// Counters aggregates balancer activity.
type Counters struct {
	Redirects         uint64
	RegistersProxied  uint64
	UnroutableInvites uint64 // INVITEs 503'd with no live backend
	Failovers         uint64 // redirects placed while ≥1 backend was down
	Repins            uint64 // REGISTERs re-pinned off a down backend
	ProbeFailures     uint64
	BackendDowns      uint64 // down transitions
	BackendUps        uint64 // up transitions (after a down)
	OverloadSignals   uint64 // probe responses carrying X-Overload-Window
}

// HealthConfig tunes the balancer's OPTIONS liveness probing.
type HealthConfig struct {
	// Disabled turns probing off; every backend is then considered
	// permanently up, the pre-failover behaviour.
	Disabled bool
	// ProbeInterval is the per-backend probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe's wait for a response (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count that marks a
	// backend down (default 3).
	FailThreshold int
	// SlowStart is the re-admission ramp after a backend returns: its
	// placement weight climbs linearly from 0.1 to 1 over this window
	// (default 10s; the zero of time.Duration selects the default, use
	// Disabled for no probing).
	SlowStart time.Duration
}

// Event is one entry in the cluster's failure/recovery timeline.
// Kinds: "crash", "restart", "drain" (administrative ops) and "down",
// "up" (probe-observed transitions). The sequence is deterministic for
// a fixed scenario and seed — golden tests pin it.
type Event struct {
	At      time.Duration
	Backend int
	Kind    string
}

func (e Event) String() string {
	return fmt.Sprintf("%s@%s#%d", e.Kind, e.At, e.Backend)
}

// node is one backend slot: the live server plus its liveness state
// and the durable pieces (journal, crashed incarnations) that survive
// restarts.
type node struct {
	idx  int
	host string
	addr string

	srv     *pbx.Server
	past    []*pbx.Server // crashed incarnations, kept for accounting
	journal *pbx.CDRJournal

	up          bool
	crashed     bool
	consecFails int
	slowUntil   time.Duration // full placement weight at/after this tick
	// overloadUntil holds the end of the backend's advertised overload
	// window (X-Overload-Window on a probe's 200): placement weight is
	// penalized until it passes — the balancer half of the ladder's
	// closed upstream-feedback loop.
	overloadUntil time.Duration

	probeTimer    transport.Timer
	probeDeadline transport.Timer
	probeTx       *sip.ClientTx

	openAtCrash int // journal entries open at the last crash
	crashes     int
	restarts    int
}

// Cluster is a balancer plus its PBX backends on a simulated network.
type Cluster struct {
	ep     *sip.Endpoint
	policy Policy
	dir    *directory.Directory
	rig    *rig.Sim
	clock  transport.Clock
	cfg    Config
	health HealthConfig

	mu       sync.Mutex
	nodes    []*node
	backends []*pbx.Server // nodes[i].srv, kept for Backends()
	next     int
	counters Counters
	events   []Event
	rng      *stats.RNG
	closed   bool
}

// Config shapes a cluster.
type Config struct {
	// Servers is the number of PBX backends (k).
	Servers int
	// PerServer configures each backend; MaxChannels is the paper's
	// 165 when zero.
	PerServer pbx.Config
	// Policy selects placement (default RoundRobin).
	Policy Policy
	// Health tunes liveness probing (see HealthConfig).
	Health HealthConfig
	// Seed drives the balancer's randomness (slow-start admission).
	Seed uint64
	// Telemetry, when non-nil, registers the balancer's metric
	// families (backend up/down gauges, failover counters) on reg.
	Telemetry *telemetry.Registry
}

// New builds a cluster on r: backends at pbx1..pbxk:5060, balancer at
// balancer:5060 and on its clock — the caller places them all on one
// shard, because placement reads backend occupancy synchronously — all
// sharing one directory. Provision users through Directory().
func New(r *rig.Sim, cfg Config) *Cluster {
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.PerServer.MaxChannels == 0 {
		cfg.PerServer.MaxChannels = pbx.DefaultCapacity
	}
	h := cfg.Health
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = 2 * time.Second
	}
	if h.ProbeTimeout <= 0 {
		h.ProbeTimeout = time.Second
	}
	if h.FailThreshold <= 0 {
		h.FailThreshold = 3
	}
	if h.SlowStart <= 0 {
		h.SlowStart = 10 * time.Second
	}
	dir := directory.New()
	c := &Cluster{
		policy: cfg.Policy,
		dir:    dir,
		rig:    r,
		clock:  r.Clock("balancer"),
		cfg:    cfg,
		health: h,
		rng:    stats.NewRNG(cfg.Seed ^ 0xc1a57e12),
	}
	for i := 0; i < cfg.Servers; i++ {
		host := fmt.Sprintf("pbx%d", i+1)
		// The journal is the backend's durable disk: one per slot,
		// threaded through every incarnation a restart produces.
		n := &node{idx: i, host: host, addr: host + ":5060", up: true, journal: pbx.NewCDRJournal()}
		n.srv = c.buildServer(n)
		c.nodes = append(c.nodes, n)
		c.backends = append(c.backends, n.srv)
	}
	if cfg.Telemetry != nil {
		c.publish(cfg.Telemetry)
	}
	c.ep = sip.NewEndpoint(transport.NewSim(r.Net, "balancer:5060"), c.clock)
	c.ep.Handle(c.handleRequest)
	if !h.Disabled {
		for _, n := range c.nodes {
			c.scheduleProbe(n)
		}
	}
	return c
}

// buildServer instantiates (or re-instantiates) node n's PBX. The sim
// transport's bind-replaces semantics make re-binding pbxN:5060 after
// a crash the same call as the first bind.
func (c *Cluster) buildServer(n *node) *pbx.Server {
	sCfg := c.cfg.PerServer
	sCfg.Seed = c.cfg.PerServer.Seed + uint64(n.idx)*7919
	sCfg.Journal = n.journal
	return c.rig.PBX(n.host, c.dir, sCfg)
}

// Addr returns the balancer's signalling address, the proxy phones use.
func (c *Cluster) Addr() string { return c.ep.Addr() }

// SignalingStats returns the balancer endpoint's SIP books: the
// redirects, proxied REGISTERs and health probes it sent.
func (c *Cluster) SignalingStats() sip.Stats { return c.ep.StatsSnapshot() }

// Directory returns the shared user store.
func (c *Cluster) Directory() *directory.Directory { return c.dir }

// Backends returns the PBX servers (current incarnations).
func (c *Cluster) Backends() []*pbx.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*pbx.Server(nil), c.backends...)
}

// Incarnations returns every server instance backend i has had, oldest
// first, the live one last — so chaos invariants can sweep counters
// and transactions across a crash/restart cycle.
func (c *Cluster) Incarnations(i int) []*pbx.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[i]
	return append(append([]*pbx.Server(nil), n.past...), n.srv)
}

// OpenAtCrash returns the journal entries that were open (in-flight
// calls) at backend i's most recent crash.
func (c *Cluster) OpenAtCrash(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i].openAtCrash
}

// Crashed reports whether backend i is currently crashed (no live
// process bound to its address).
func (c *Cluster) Crashed(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i].crashed
}

// BackendUp reports backend i's probe-observed liveness.
func (c *Cluster) BackendUp(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i].up
}

// UpCount returns the number of backends currently marked up.
func (c *Cluster) UpCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, nd := range c.nodes {
		if nd.up {
			n++
		}
	}
	return n
}

// Events returns the failure/recovery timeline so far.
func (c *Cluster) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// CountersSnapshot returns balancer totals.
func (c *Cluster) CountersSnapshot() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// StopProbes halts the health-probe plane: pending probe timers are
// cancelled and in-flight probe transactions terminated. Harnesses
// call this before their post-run drain so the steady probe traffic
// (and its lingering server transactions on the backends) does not
// read as a leak.
func (c *Cluster) StopProbes() {
	c.mu.Lock()
	c.closed = true
	var probes []*sip.ClientTx
	for _, n := range c.nodes {
		if n.probeTimer != nil {
			n.probeTimer.Stop()
		}
		if n.probeDeadline != nil {
			n.probeDeadline.Stop()
		}
		if n.probeTx != nil {
			probes = append(probes, n.probeTx)
			n.probeTx = nil
		}
	}
	c.mu.Unlock()
	for _, tx := range probes {
		tx.Terminate()
	}
}

// Close stops probing and the backends' samplers.
func (c *Cluster) Close() {
	c.StopProbes()
	c.mu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.srv.Close()
		for _, p := range n.past {
			p.Close()
		}
	}
}

// CrashBackend kills backend i's process: its socket, timers, relay
// ports and in-flight transactions vanish at the current tick. The
// balancer is NOT told — marking the backend down is the health
// probes' job, which is exactly the detection latency the failover
// experiment measures.
func (c *Cluster) CrashBackend(i int) {
	c.mu.Lock()
	n := c.nodes[i]
	if n.crashed {
		c.mu.Unlock()
		return
	}
	n.crashed = true
	n.crashes++
	srv := n.srv
	c.eventLocked(i, "crash")
	c.mu.Unlock()
	srv.Crash()
	open := n.journal.Stats().Open
	c.mu.Lock()
	n.openAtCrash = open
	c.mu.Unlock()
}

// RestartBackend brings a crashed backend i back: a fresh endpoint
// re-binds the same address, the CDR journal's interrupted records
// are recovered as LOST, and the probe + slow-start path re-admits
// the server to placement. It returns the recovered records.
func (c *Cluster) RestartBackend(i int) []pbx.CDR {
	c.mu.Lock()
	n := c.nodes[i]
	if !n.crashed {
		c.mu.Unlock()
		return nil
	}
	old := n.srv
	c.mu.Unlock()

	srv := c.buildServer(n)
	recovered := srv.RecoverJournal(c.clock.Now())

	c.mu.Lock()
	n.past = append(n.past, old)
	n.srv = srv
	c.backends[i] = srv
	n.crashed = false
	n.restarts++
	c.eventLocked(i, "restart")
	c.mu.Unlock()
	return recovered
}

// DrainBackend puts backend i in administrative drain: it 503s new
// INVITEs (and health probes, so the balancer takes it out of
// placement within the fail threshold) while established calls finish.
func (c *Cluster) DrainBackend(i int) {
	c.mu.Lock()
	n := c.nodes[i]
	srv := n.srv
	c.eventLocked(i, "drain")
	c.mu.Unlock()
	srv.Drain()
}

// eventLocked appends to the timeline. Callers hold c.mu.
func (c *Cluster) eventLocked(backend int, kind string) {
	c.events = append(c.events, Event{At: c.clock.Now(), Backend: backend, Kind: kind})
}

// scheduleProbe arms backend n's next health probe.
func (c *Cluster) scheduleProbe(n *node) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	n.probeTimer = c.clock.AfterFunc(c.health.ProbeInterval, func() { c.probe(n) })
	c.mu.Unlock()
}

// probe sends one OPTIONS to backend n and races the response against
// the probe deadline. A crashed backend answers with silence; rather
// than wait out SIP's 64·T1 Timer F, the deadline terminates the
// transaction and scores the probe failed.
func (c *Cluster) probe(n *node) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	dst := n.addr
	c.mu.Unlock()

	uri := sip.NewURI("probe", n.host, sip.DefaultPort)
	req := sip.NewRequest(sip.OPTIONS, uri,
		sip.NameAddr{URI: sip.NewURI("balancer", "balancer", sip.DefaultPort), Tag: c.ep.NewTag()},
		sip.NameAddr{URI: uri},
		c.ep.NewCallID(), 1)

	settled := false // guarded by c.mu; first of {response, deadline} wins
	var tx *sip.ClientTx
	tx = c.ep.SendRequest(dst, req, func(resp *sip.Message) {
		if resp.StatusCode < 200 {
			return
		}
		c.mu.Lock()
		if settled || c.closed {
			c.mu.Unlock()
			return
		}
		settled = true
		if n.probeDeadline != nil {
			n.probeDeadline.Stop()
		}
		c.mu.Unlock()
		c.probeResult(n, resp.StatusCode == sip.StatusOK, resp.OverloadWindow())
	})
	deadline := c.clock.AfterFunc(c.health.ProbeTimeout, func() {
		c.mu.Lock()
		if settled || c.closed {
			c.mu.Unlock()
			return
		}
		settled = true
		c.mu.Unlock()
		tx.Terminate()
		c.probeResult(n, false, 0)
	})
	c.mu.Lock()
	n.probeTx = tx
	n.probeDeadline = deadline
	c.mu.Unlock()
}

// probeResult applies one probe verdict to the node's liveness state
// machine and arms the next probe. window is the X-Overload-Window the
// probe's 200 carried (0 when absent): an overloaded-but-up backend
// stays in rotation at a reduced placement weight until the window
// passes, so the balancer sheds toward healthier peers without a
// down/up flap.
func (c *Cluster) probeResult(n *node, ok bool, window int) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	now := c.clock.Now()
	if ok && window > 0 {
		if until := now + time.Duration(window)*time.Second; until > n.overloadUntil {
			n.overloadUntil = until
		}
		c.counters.OverloadSignals++
	}
	if ok {
		n.consecFails = 0
		if !n.up {
			n.up = true
			n.slowUntil = now + c.health.SlowStart
			c.counters.BackendUps++
			c.eventLocked(n.idx, "up")
		}
	} else {
		c.counters.ProbeFailures++
		n.consecFails++
		if n.up && n.consecFails >= c.health.FailThreshold {
			n.up = false
			c.counters.BackendDowns++
			c.eventLocked(n.idx, "down")
		}
	}
	c.mu.Unlock()
	c.scheduleProbe(n)
}

// overloadWeightPenalty scales a backend's placement weight while its
// advertised overload window is open: still routable (unlike down),
// but the balancer prefers unloaded peers 4:1.
const overloadWeightPenalty = 0.25

// weightLocked is a node's placement weight in (0,1]: the slow-start
// ramp after recovery, times the overload penalty while the backend's
// X-Overload-Window is open. Callers hold c.mu.
func (c *Cluster) weightLocked(n *node, now time.Duration) float64 {
	w := 1.0
	if n.slowUntil != 0 && now < n.slowUntil {
		w = 1 - float64(n.slowUntil-now)/float64(c.health.SlowStart)
		if w < 0.1 {
			w = 0.1
		}
	}
	if now < n.overloadUntil {
		w *= overloadWeightPenalty
	}
	return w
}

// pickLocked chooses a live backend per the policy, nil when none is
// up. Slow-start: least-busy divides a recovering backend's load by
// its weight; round-robin skips it probabilistically. Callers hold
// c.mu.
func (c *Cluster) pickLocked() *node {
	now := c.clock.Now()
	var live []*node
	for _, n := range c.nodes {
		if n.up {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return nil
	}
	switch c.policy {
	case LeastBusy:
		best := live[0]
		bestLoad := float64(best.srv.ActiveChannels()) / c.weightLocked(best, now)
		for _, n := range live[1:] {
			if load := float64(n.srv.ActiveChannels()) / c.weightLocked(n, now); load < bestLoad {
				best, bestLoad = n, load
			}
		}
		return best
	default:
		for tries := 0; tries < len(live); tries++ {
			n := live[c.next%len(live)]
			c.next++
			if w := c.weightLocked(n, now); w >= 1 || c.rng.Float64() < w {
				return n
			}
		}
		return live[c.next%len(live)]
	}
}

// backendFor pins a user to a backend for REGISTER proxying, so a
// digest challenge and its answer reach the same nonce issuer. When
// the pinned backend is down the pin walks forward to the next live
// one (counted as a re-pin); with every backend down it falls back to
// the original pin and lets the proxied transaction time out.
func (c *Cluster) backendFor(user string) *node {
	h := fnv.New32a()
	h.Write([]byte(user))
	c.mu.Lock()
	defer c.mu.Unlock()
	k := len(c.nodes)
	start := int(h.Sum32()) % k
	for i := 0; i < k; i++ {
		n := c.nodes[(start+i)%k]
		if n.up {
			if i > 0 {
				c.counters.Repins++
			}
			return n
		}
	}
	return c.nodes[start]
}

func (c *Cluster) handleRequest(tx *sip.ServerTx, req *sip.Message, src string) {
	switch req.Method {
	case sip.REGISTER:
		c.proxyRegister(tx, req)
	case sip.INVITE:
		c.redirectInvite(tx, req)
	case sip.OPTIONS:
		tx.Respond(req.Response(sip.StatusOK))
	case sip.ACK:
		// ACK to our 302 final: absorbed by the transaction layer;
		// nothing to do at the TU.
	case sip.BYE:
		// A redirect server joins no dialog (RFC 3261 §12.2.2).
		resp := req.Response(481)
		resp.ReasonStr = "Call/Transaction Does Not Exist"
		tx.Respond(resp)
	default:
		// RFC 3261 §8.2.1: a method the balancer does not implement.
		tx.Respond(req.Response(sip.StatusNotImplemented))
	}
}

// proxyRegister forwards a REGISTER to the user's pinned backend and
// relays the response back on the original transaction.
func (c *Cluster) proxyRegister(tx *sip.ServerTx, req *sip.Message) {
	user := req.To.URI.User
	if user == "" {
		user = req.From.URI.User
	}
	backend := c.backendFor(user)
	c.mu.Lock()
	c.counters.RegistersProxied++
	c.mu.Unlock()

	fwd := sip.NewRequest(sip.REGISTER, req.RequestURI, req.From, req.To, req.CallID, req.CSeq.Seq)
	fwd.Contact = req.Contact
	fwd.ContactStar = req.ContactStar
	fwd.ContactExpires = req.ContactExpires
	fwd.Expires = req.Expires
	fwd.Authorization = req.Authorization
	c.ep.SendRequest(backend.addr, fwd, func(resp *sip.Message) {
		back := req.Response(resp.StatusCode)
		back.ReasonStr = resp.ReasonStr
		back.WWWAuthenticate = resp.WWWAuthenticate
		back.Contact = resp.Contact
		back.ContactExpires = resp.ContactExpires
		back.Expires = resp.Expires
		back.RetryAfter = resp.RetryAfter
		tx.Respond(back)
	})
}

// redirectInvite answers an INVITE with 302 pointing at the chosen
// backend, or 503 when no backend is live.
func (c *Cluster) redirectInvite(tx *sip.ServerTx, req *sip.Message) {
	c.mu.Lock()
	n := c.pickLocked()
	if n == nil {
		c.counters.UnroutableInvites++
		c.mu.Unlock()
		resp := req.Response(sip.StatusServiceUnavailable)
		resp.To.Tag = c.ep.NewTag()
		resp.RetryAfter = int(c.health.ProbeInterval / time.Second)
		if resp.RetryAfter < 1 {
			resp.RetryAfter = 1
		}
		tx.Respond(resp)
		return
	}
	c.counters.Redirects++
	anyDown := false
	for _, nd := range c.nodes {
		if !nd.up {
			anyDown = true
			break
		}
	}
	if anyDown {
		c.counters.Failovers++
	}
	addr := n.addr
	c.mu.Unlock()

	resp := req.Response(sip.StatusMovedTemporarily)
	resp.To.Tag = c.ep.NewTag()
	contact := sip.NameAddr{URI: sip.AddrURI(req.RequestURI.User, addr)}
	resp.Contact = &contact
	tx.Respond(resp)
}
