//go:build linux && (amd64 || arm64)

package transport

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestLegPoolOneReader: a leg is an fd and a struct. However many are
// open, the pool reads them from one goroutine.
func TestLegPoolOneReader(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	const legs = 256
	var got atomic.Uint64
	for i := 0; i < legs; i++ {
		leg, _ := openLeg(t, p)
		leg.SetReceiver(func(string, []byte) { got.Add(1) })
		leg.Send(leg.LocalAddr(), []byte("alive"))
	}
	waitFor(t, "every leg to hear itself", func() bool { return got.Load() == legs })
	if grew := runtime.NumGoroutine() - before; grew > 2 {
		t.Errorf("%d legs cost %d goroutines, want at most 2", legs, grew)
	}
	if gets, _ := p.PoolStats(); gets != legReadSlots {
		t.Errorf("%d legs drew %d buffers, want the reader's %d", legs, gets, legReadSlots)
	}
}

// TestLegPoolSharedWakeup: legs that become ready while the reader is
// busy are all served by its next wake-up. The first delivery is held
// so that one datagram for each of the other legs queues up behind it.
func TestLegPoolSharedWakeup(t *testing.T) {
	p := NewLegPool("127.0.0.1")
	defer closePool(t, p)
	sender, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	const legs = 64
	entered, hold := make(chan struct{}), make(chan struct{})
	var got atomic.Uint64
	addrs := make([]string, legs)
	for i := range addrs {
		leg, _ := openLeg(t, p)
		addrs[i] = leg.LocalAddr()
		if i == 0 {
			leg.SetReceiver(func(string, []byte) {
				close(entered)
				<-hold
				got.Add(1)
			})
		} else {
			leg.SetReceiver(func(string, []byte) { got.Add(1) })
		}
	}
	sender.Send(addrs[0], []byte("held"))
	<-entered
	wakeups := p.Stats().RxWakeups // the held wake-up is counted when it ends
	for _, addr := range addrs[1:] {
		sender.Send(addr, []byte("queued"))
	}
	close(hold)
	waitFor(t, "every leg's datagram", func() bool { return got.Load() == legs })
	waitFor(t, "the reader to count them", func() bool { return p.Stats().RxPackets == legs })
	if used := p.Stats().RxWakeups - wakeups; used > 3 {
		t.Errorf("%d ready legs took %d wake-ups, want them shared (at most 3)", legs, used)
	}
}
