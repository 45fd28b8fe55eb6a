// Package transport abstracts datagram I/O and time so the SIP stack,
// the PBX and the load generator run unchanged over two substrates:
//
//   - the deterministic discrete-event network of internal/netsim
//     (virtual time, used by all experiments), and
//   - real UDP sockets with wall-clock time (used by cmd/pbxd,
//     cmd/sipload and the realudp example).
//
// Addresses are plain "host:port" strings in both worlds.
package transport

import "time"

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer, reporting whether it had not yet fired.
	Stop() bool
}

// Clock schedules callbacks, in virtual or real time.
type Clock interface {
	// Now returns the time elapsed since the clock's origin.
	Now() time.Duration
	// AfterFunc runs fn after d. fn runs on the clock's dispatch
	// context: the simulation event loop for virtual clocks, a
	// dedicated goroutine for the real clock.
	AfterFunc(d time.Duration, fn func()) Timer
}

// RearmTimer is a reusable timer for periodic work: it is created once
// with a fixed callback and re-armed for each firing, so steady-state
// pacing (RTP frame cadence, RTCP intervals) costs no allocation per
// period.
type RearmTimer interface {
	// Schedule arms the timer to fire the callback after d, replacing
	// any pending firing.
	Schedule(d time.Duration)
	// Stop cancels a pending firing, reporting whether one was pending.
	Stop() bool
}

// TimerFactory is an optional Clock extension providing reusable
// timers. Callers fall back to Clock.AfterFunc when the clock does not
// implement it.
type TimerFactory interface {
	NewRearmTimer(fn func()) RearmTimer
}

// NewRearmTimer returns a reusable timer on c, falling back to a
// AfterFunc-based adapter when c does not implement TimerFactory.
func NewRearmTimer(c Clock, fn func()) RearmTimer {
	if f, ok := c.(TimerFactory); ok {
		return f.NewRearmTimer(fn)
	}
	return &afterFuncRearm{c: c, fn: fn}
}

type afterFuncRearm struct {
	c  Clock
	fn func()
	tm Timer
}

func (t *afterFuncRearm) Schedule(d time.Duration) {
	if t.tm != nil {
		t.tm.Stop()
	}
	t.tm = t.c.AfterFunc(d, t.fn)
}

func (t *afterFuncRearm) Stop() bool {
	if t.tm == nil {
		return false
	}
	return t.tm.Stop()
}

// Receiver consumes inbound datagrams. src is the sender's address,
// interned by the transport so repeated packets from one peer share a
// string. data follows the netsim packet-pool ownership contract: it
// is valid only for the duration of the call (the transport reuses
// the buffer), so receivers that need the bytes later must copy them.
type Receiver func(src string, data []byte)

// BatchSender is an optional Transport extension with no batched send
// behind it: UDPTransport and ShardedUDP implement QueueSend as an
// immediate Send and Flush as a no-op, so a caller may use the
// interface unconditionally.
type BatchSender interface {
	QueueSend(dst string, data []byte)
	Flush()
}

// BatchEndNotifier is an optional Transport extension: SetBatchEnd
// registers a hook the read loop invokes after delivering each
// inbound batch, after its last Receiver call.
type BatchEndNotifier interface {
	SetBatchEnd(fn func())
}

// Transport sends and receives datagrams.
type Transport interface {
	// Send transmits data to dst ("host:port"). Datagram transports
	// are lossy by nature; Send does not report delivery. data is read
	// only during the call: the caller may reuse the buffer as soon as
	// Send returns, and the SIP endpoint sends every message from one.
	Send(dst string, data []byte)
	// LocalAddr returns this endpoint's own address.
	LocalAddr() string
	// SetReceiver installs the inbound handler. Must be called before
	// any packet arrives; a nil receiver drops packets.
	SetReceiver(r Receiver)
	// Close releases the port.
	Close() error
}
