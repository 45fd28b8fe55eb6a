package transport

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
)

// SimClock adapts a netsim.Scheduler to the Clock interface.
type SimClock struct {
	Sched *netsim.Scheduler
}

// Now returns the scheduler's virtual time.
func (c SimClock) Now() time.Duration { return c.Sched.Now() }

// AfterFunc schedules fn on the simulation event loop.
func (c SimClock) AfterFunc(d time.Duration, fn func()) Timer {
	return c.Sched.AtTimer(c.Sched.Now()+d, simFunc(fn))
}

// simFunc runs a plain func as a scheduler event, sparing AfterFunc a
// closure around each one.
type simFunc func()

// RunEvent implements netsim.Runner.
func (f simFunc) RunEvent(time.Duration) { f() }

// simRearm is a reusable timer on the simulation scheduler. It
// implements netsim.Runner, so re-arming schedules no closure: the
// whole steady-state cost is one pooled scheduler item.
type simRearm struct {
	sched *netsim.Scheduler
	fn    func()
	tm    netsim.Timer
}

// RunEvent implements netsim.Runner.
func (t *simRearm) RunEvent(time.Duration) { t.fn() }

// Schedule arms the timer to fire after d, replacing a pending firing.
func (t *simRearm) Schedule(d time.Duration) {
	t.tm.Stop()
	if d < 0 {
		d = 0
	}
	t.tm = t.sched.AtTimer(t.sched.Now()+d, t)
}

// Stop cancels a pending firing.
func (t *simRearm) Stop() bool { return t.tm.Stop() }

// NewRearmTimer implements TimerFactory.
func (c SimClock) NewRearmTimer(fn func()) RearmTimer {
	return &simRearm{sched: c.Sched, fn: fn}
}

// SimTransport binds a host:port on a simulated network. The shard
// owning the host is resolved once at bind time, and the route to the
// last destination is kept: a media leg or a session sends to one peer
// all its life, so the per-packet send path neither parses the address
// nor looks anything up.
type SimTransport struct {
	net   *netsim.Network
	addr  netsim.Addr
	recv  Receiver
	local string
	shard int
	dst   string // destination the route was resolved for
	route netsim.Route
}

// NewSim binds addr ("host:port") on n. It panics on a malformed
// address, which is a programming error in experiment setup.
func NewSim(n *netsim.Network, addr string) *SimTransport {
	na, err := parseAddr(addr)
	if err != nil {
		panic(err)
	}
	t := &SimTransport{net: n, addr: na, local: addr, shard: n.ShardOf(na.Host)}
	n.Bind(na, netsim.HandlerFunc(func(now time.Duration, pkt *netsim.Packet) {
		if t.recv != nil {
			t.recv(pkt.SrcString(), pkt.Payload)
		}
	}))
	return t
}

// Send queues a datagram on the simulated network.
func (t *SimTransport) Send(dst string, data []byte) {
	if dst != t.dst || t.dst == "" {
		da, err := parseAddr(dst)
		if err != nil {
			return // invalid destination: datagram semantics, drop
		}
		t.route = t.net.Resolve(t.shard, t.addr, da)
		t.dst = dst
	}
	t.net.SendRoute(&t.route, data)
}

// LocalAddr returns the bound address.
func (t *SimTransport) LocalAddr() string { return t.local }

// SetReceiver installs the inbound handler.
func (t *SimTransport) SetReceiver(r Receiver) { t.recv = r }

// Close unbinds the port.
func (t *SimTransport) Close() error {
	t.net.Unbind(t.addr)
	return nil
}

func parseAddr(s string) (netsim.Addr, error) {
	host, portStr, ok := strings.Cut(s, ":")
	if !ok || host == "" {
		return netsim.Addr{}, fmt.Errorf("transport: malformed address %q", s)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return netsim.Addr{}, fmt.Errorf("transport: malformed port in %q", s)
	}
	return netsim.Addr{Host: host, Port: port}, nil
}
