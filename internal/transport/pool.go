package transport

import (
	"sync"
	"sync/atomic"
)

// BufPool recycles fixed-size datagram buffers for the real-UDP data
// plane. It mirrors the netsim packet pool's ownership contract
// (netsim.Packet): a buffer handed to a Receiver is valid only for the
// duration of the call, and every Get must be matched by exactly one
// Put. The gets/puts counters make the contract checkable — with no
// transport running, Stats must report gets == puts; a difference is a
// buffer leak across a read-loop boundary, the same
// invariant the sharded sim engine pins with Network.PoolStats.
type BufPool struct {
	size int
	gets atomic.Uint64
	puts atomic.Uint64

	mu   sync.Mutex
	free [][]byte
}

// NewBufPool returns a pool of size-byte buffers.
func NewBufPool(size int) *BufPool { return &BufPool{size: size} }

// Size returns the length of every buffer the pool issues.
func (p *BufPool) Size() int { return p.size }

// Get returns a full-length buffer. The caller owns it until Put.
func (p *BufPool) Get() []byte {
	p.gets.Add(1)
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]byte, p.size)
}

// Put returns a buffer obtained from Get. Foreign or resliced buffers
// are rejected (not counted) so the gets==puts invariant stays exact.
func (p *BufPool) Put(b []byte) {
	if cap(b) < p.size {
		return
	}
	p.puts.Add(1)
	b = b[:p.size]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Stats returns the lifetime gets and puts. They are equal exactly
// when no issued buffer is outstanding.
func (p *BufPool) Stats() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}
