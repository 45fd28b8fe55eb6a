package netsim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	s.At(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	s.At(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	if _, err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSchedulerFIFOAtEqualTimes(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	s.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of FIFO order: %v at %d", v, i)
		}
	}
}

func TestSchedulerHorizon(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(5*time.Millisecond, func(time.Duration) { fired++ })
	s.At(15*time.Millisecond, func(time.Duration) { fired++ })
	n, err := s.Run(10 * time.Millisecond)
	if err != nil || n != 1 || fired != 1 {
		t.Fatalf("Run to 10ms fired %d (n=%d, err=%v)", fired, n, err)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("clock = %v, want 10ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	// Event exactly at the horizon runs.
	s.At(20*time.Millisecond, func(time.Duration) { fired++ })
	s.Run(20 * time.Millisecond)
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

func TestSchedulerPastClampsToNow(t *testing.T) {
	s := NewScheduler()
	var at time.Duration
	s.At(10*time.Millisecond, func(now time.Duration) {
		s.At(now-5*time.Millisecond, func(when time.Duration) { at = when })
	})
	s.Run(time.Second)
	if at != 10*time.Millisecond {
		t.Errorf("past event ran at %v, want clamp to 10ms", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(10*time.Millisecond, func(time.Duration) { fired = true })
	if !tm.Stop() {
		t.Error("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	s.Run(time.Second)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	var tm Timer
	tm = s.After(time.Millisecond, func(time.Duration) {})
	s.Run(time.Second)
	if tm.Stop() {
		t.Error("Stop after firing returned true")
	}
}

func TestTimerStopFromEvent(t *testing.T) {
	// A timer cancelled by an earlier event at the same timestamp
	// must not fire.
	s := NewScheduler()
	fired := false
	var victim Timer
	s.At(time.Millisecond, func(time.Duration) { victim.Stop() })
	victim = s.At(time.Millisecond, func(time.Duration) { fired = true })
	s.Run(time.Second)
	if fired {
		t.Error("cancelled same-timestamp timer fired")
	}
}

func TestReentrantRun(t *testing.T) {
	s := NewScheduler()
	var inner error
	s.After(time.Millisecond, func(time.Duration) {
		_, inner = s.Run(time.Second)
	})
	if _, err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if inner != ErrReentrantRun {
		t.Errorf("inner Run error = %v, want ErrReentrantRun", inner)
	}
}

func TestDrainCap(t *testing.T) {
	s := NewScheduler()
	var loop func(time.Duration)
	loop = func(time.Duration) { s.After(time.Millisecond, loop) }
	s.After(0, loop)
	n, capped := s.Drain(1000)
	if !capped {
		t.Error("runaway loop not capped")
	}
	if n != 1000 {
		t.Errorf("drained %d, want 1000", n)
	}
}

func TestSchedulerClockMonotoneProperty(t *testing.T) {
	// Property: regardless of scheduling order, events observe a
	// non-decreasing clock.
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var last time.Duration
		ok := true
		for _, d := range delays {
			s.At(time.Duration(d)*time.Microsecond, func(now time.Duration) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		s.Run(time.Second)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newTestNet() (*Scheduler, *Network) {
	s := NewScheduler()
	return s, NewNetwork(s, stats.NewRNG(1))
}

func TestNetworkDelivery(t *testing.T) {
	s, n := newTestNet()
	a := Addr{Host: "client", Port: 5060}
	b := Addr{Host: "server", Port: 5060}
	var got []byte
	var at time.Duration
	n.Bind(b, HandlerFunc(func(now time.Duration, p *Packet) {
		got = append(got[:0], p.Payload...) // payload is only valid during the handler
		at = now
		if p.Src != a || p.Dst != b {
			t.Errorf("addressing: %v -> %v", p.Src, p.Dst)
		}
	}))
	n.SetLink("client", "server", LinkProfile{Delay: 2 * time.Millisecond})
	n.Send(a, b, []byte("INVITE"))
	s.Run(time.Second)
	if string(got) != "INVITE" {
		t.Fatalf("payload = %q", got)
	}
	if at != 2*time.Millisecond {
		t.Errorf("delivered at %v, want 2ms", at)
	}
}

func TestNetworkUnboundCounted(t *testing.T) {
	s, n := newTestNet()
	n.Send(Addr{"a", 1}, Addr{"b", 2}, []byte("x"))
	s.Run(time.Second)
	if n.NoRoute() != 1 {
		t.Errorf("noRoute = %d", n.NoRoute())
	}
}

func TestNetworkLoss(t *testing.T) {
	s, n := newTestNet()
	n.SetLink("a", "b", LinkProfile{Loss: 0.25})
	dst := Addr{"b", 9}
	recv := 0
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { recv++ }))
	const total = 20000
	for i := 0; i < total; i++ {
		n.Send(Addr{"a", 1}, dst, []byte("p"))
	}
	s.Run(time.Minute)
	gotLoss := 1 - float64(recv)/total
	if gotLoss < 0.23 || gotLoss > 0.27 {
		t.Errorf("observed loss %.3f, want ~0.25", gotLoss)
	}
	ls := n.LinkStats("a", "b")
	if ls.Sent != total || ls.Dropped+ls.Delivered != total {
		t.Errorf("link accounting: %+v", ls)
	}
}

func TestNetworkJitterBounds(t *testing.T) {
	s, n := newTestNet()
	n.SetLink("a", "b", LinkProfile{Delay: 10 * time.Millisecond, Jitter: 3 * time.Millisecond})
	dst := Addr{"b", 9}
	var min, max time.Duration = time.Hour, 0
	n.Bind(dst, HandlerFunc(func(now time.Duration, p *Packet) {
		d := now - p.SentAt
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}))
	for i := 0; i < 5000; i++ {
		n.Send(Addr{"a", 1}, dst, []byte("p"))
	}
	s.Run(time.Minute)
	if min < 7*time.Millisecond || max > 13*time.Millisecond {
		t.Errorf("delay range [%v, %v], want within [7ms, 13ms]", min, max)
	}
	if max-min < 3*time.Millisecond {
		t.Errorf("jitter spread %v suspiciously small", max-min)
	}
}

func TestNetworkRateLimitSerializes(t *testing.T) {
	s, n := newTestNet()
	// 1000 bits per second; 97-byte payload + 28 overhead = 1000 bits
	// => one packet per second.
	n.SetLink("a", "b", LinkProfile{RateBps: 1000})
	dst := Addr{"b", 9}
	var arrivals []time.Duration
	n.Bind(dst, HandlerFunc(func(now time.Duration, p *Packet) { arrivals = append(arrivals, now) }))
	payload := make([]byte, 97)
	for i := 0; i < 3; i++ {
		n.Send(Addr{"a", 1}, dst, payload)
	}
	s.Run(time.Minute)
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if d := arrivals[i] - want; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("arrival %d at %v, want ~%v", i, arrivals[i], want)
		}
	}
}

func TestNetworkQueueLimitDrops(t *testing.T) {
	s, n := newTestNet()
	n.SetLink("a", "b", LinkProfile{RateBps: 1000, QueueLimit: 2})
	dst := Addr{"b", 9}
	recv := 0
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { recv++ }))
	payload := make([]byte, 97)
	for i := 0; i < 10; i++ {
		n.Send(Addr{"a", 1}, dst, payload)
	}
	s.Run(time.Hour)
	if recv >= 10 {
		t.Errorf("no tail drop despite tiny queue: recv=%d", recv)
	}
	if ls := n.LinkStats("a", "b"); ls.Dropped == 0 {
		t.Errorf("drops not counted: %+v", ls)
	}
}

func TestTapSeesLostPackets(t *testing.T) {
	s, n := newTestNet()
	n.SetLink("a", "b", LinkProfile{Loss: 1.0})
	tapped := 0
	n.AddTap(func(time.Duration, *Packet) { tapped++ })
	n.Send(Addr{"a", 1}, Addr{"b", 2}, []byte("x"))
	s.Run(time.Second)
	if tapped != 1 {
		t.Errorf("tap saw %d packets, want 1 (before loss)", tapped)
	}
}

func TestDuplexLink(t *testing.T) {
	s, n := newTestNet()
	n.SetDuplexLink("a", "b", LinkProfile{Delay: 5 * time.Millisecond})
	var aAt, bAt time.Duration
	n.Bind(Addr{"a", 1}, HandlerFunc(func(now time.Duration, _ *Packet) { aAt = now }))
	n.Bind(Addr{"b", 1}, HandlerFunc(func(now time.Duration, _ *Packet) { bAt = now }))
	n.Send(Addr{"a", 1}, Addr{"b", 1}, []byte("ping"))
	n.Send(Addr{"b", 1}, Addr{"a", 1}, []byte("pong"))
	s.Run(time.Second)
	if aAt != 5*time.Millisecond || bAt != 5*time.Millisecond {
		t.Errorf("delays %v / %v, want 5ms both ways", aAt, bAt)
	}
}

func TestRebindReplacesHandler(t *testing.T) {
	s, n := newTestNet()
	dst := Addr{"b", 9}
	first, second := 0, 0
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { first++ }))
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { second++ }))
	n.Send(Addr{"a", 1}, dst, []byte("x"))
	s.Run(time.Second)
	if first != 0 || second != 1 {
		t.Errorf("first=%d second=%d", first, second)
	}
}

func TestUnbind(t *testing.T) {
	s, n := newTestNet()
	dst := Addr{"b", 9}
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { t.Error("handler called after Unbind") }))
	n.Unbind(dst)
	n.Send(Addr{"a", 1}, dst, []byte("x"))
	s.Run(time.Second)
	if n.NoRoute() != 1 {
		t.Errorf("noRoute = %d", n.NoRoute())
	}
}

func TestNetworkDuplication(t *testing.T) {
	s, n := newTestNet()
	n.SetLink("a", "b", LinkProfile{DupProb: 0.5})
	dst := Addr{"b", 9}
	recv := 0
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { recv++ }))
	const total = 10000
	for i := 0; i < total; i++ {
		n.Send(Addr{"a", 1}, dst, []byte("p"))
	}
	s.Run(time.Minute)
	ls := n.LinkStats("a", "b")
	if ls.Duplicated == 0 {
		t.Fatal("no duplicates on a 50% duplicating link")
	}
	rate := float64(ls.Duplicated) / total
	if rate < 0.46 || rate > 0.54 {
		t.Errorf("duplication rate %.3f, want ~0.5", rate)
	}
	if uint64(recv) != total+ls.Duplicated {
		t.Errorf("received %d, want %d originals + %d copies", recv, total, ls.Duplicated)
	}
	if ls.Delivered != uint64(recv) {
		t.Errorf("Delivered=%d but handler saw %d", ls.Delivered, recv)
	}
}

func TestNetworkDuplicateTrailsOriginal(t *testing.T) {
	s, n := newTestNet()
	n.SetLink("a", "b", LinkProfile{
		Delay: 5 * time.Millisecond, DupProb: 1.0, DupDelay: 2 * time.Millisecond,
	})
	dst := Addr{"b", 9}
	var arrivals []time.Duration
	n.Bind(dst, HandlerFunc(func(now time.Duration, _ *Packet) { arrivals = append(arrivals, now) }))
	n.Send(Addr{"a", 1}, dst, []byte("x"))
	s.Run(time.Second)
	want := []time.Duration{5 * time.Millisecond, 7 * time.Millisecond}
	if len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Errorf("arrivals = %v, want %v", arrivals, want)
	}
}

func TestNetworkReordering(t *testing.T) {
	s, n := newTestNet()
	// Every second packet (statistically) is held back 10ms; with
	// packets sent 1ms apart, a held packet is overtaken by ~9
	// successors.
	n.SetLink("a", "b", LinkProfile{
		Delay: time.Millisecond, ReorderProb: 0.5, ReorderDelay: 10 * time.Millisecond,
	})
	dst := Addr{"b", 9}
	var order []int
	n.Bind(dst, HandlerFunc(func(_ time.Duration, p *Packet) {
		order = append(order, int(p.Payload[0])<<8|int(p.Payload[1]))
	}))
	const total = 1000
	for i := 0; i < total; i++ {
		seq := []byte{byte(i >> 8), byte(i)}
		s.At(time.Duration(i)*time.Millisecond, func(time.Duration) {
			n.Send(Addr{"a", 1}, dst, seq)
		})
	}
	s.Run(time.Minute)
	if len(order) != total {
		t.Fatalf("received %d of %d (reordering must not lose packets)", len(order), total)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("no out-of-order deliveries on a 50% reordering link")
	}
	ls := n.LinkStats("a", "b")
	if ls.Reordered == 0 {
		t.Error("Reordered counter stayed zero")
	}
	rate := float64(ls.Reordered) / total
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("reorder rate %.3f, want ~0.5", rate)
	}
}

func TestNetworkDupAndReorderDeterministic(t *testing.T) {
	run := func() []time.Duration {
		s := NewScheduler()
		n := NewNetwork(s, stats.NewRNG(7))
		n.SetLink("a", "b", LinkProfile{
			Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
			Loss: 0.05, DupProb: 0.1, ReorderProb: 0.1,
		})
		dst := Addr{"b", 9}
		var arrivals []time.Duration
		n.Bind(dst, HandlerFunc(func(now time.Duration, _ *Packet) { arrivals = append(arrivals, now) }))
		for i := 0; i < 2000; i++ {
			n.Send(Addr{"a", 1}, dst, []byte("x"))
		}
		s.Run(time.Minute)
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHandlerAccessorSurvivesPartition(t *testing.T) {
	s, n := newTestNet()
	dst := Addr{"b", 9}
	recv := 0
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) { recv++ }))
	saved := n.Handler(dst)
	if saved == nil {
		t.Fatal("Handler returned nil for a bound address")
	}
	n.Unbind(dst)
	if n.Handler(dst) != nil {
		t.Fatal("Handler returned non-nil after Unbind")
	}
	// Bindings resolve at delivery time, so the partition must cover
	// the packet's arrival, not just its send.
	n.Send(Addr{"a", 1}, dst, []byte("lost"))
	s.Run(100 * time.Millisecond)
	n.Bind(dst, saved)
	n.Send(Addr{"a", 1}, dst, []byte("heals"))
	s.Run(time.Second)
	if recv != 1 || n.NoRoute() != 1 {
		t.Errorf("recv=%d noRoute=%d, want 1/1", recv, n.NoRoute())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		s := NewScheduler()
		n := NewNetwork(s, stats.NewRNG(99))
		n.SetLink("a", "b", LinkProfile{Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.1})
		dst := Addr{"b", 9}
		var arrivals []time.Duration
		n.Bind(dst, HandlerFunc(func(now time.Duration, _ *Packet) { arrivals = append(arrivals, now) }))
		for i := 0; i < 1000; i++ {
			n.Send(Addr{"a", 1}, dst, []byte("x"))
		}
		s.Run(time.Minute)
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	var tick func(now time.Duration)
	n := 0
	tick = func(now time.Duration) {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	s.After(0, tick)
	s.Drain(uint64(b.N) + 1)
}

func BenchmarkNetworkSendDeliver(b *testing.B) {
	s := NewScheduler()
	n := NewNetwork(s, stats.NewRNG(1))
	dst := Addr{"b", 9}
	n.Bind(dst, HandlerFunc(func(time.Duration, *Packet) {}))
	payload := make([]byte, 172) // G.711 20ms frame + RTP header
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(Addr{"a", 1}, dst, payload)
		if i%1024 == 0 {
			s.Drain(2048)
		}
	}
	s.Drain(uint64(b.N))
}

// countHandler counts deliveries; a pointer to it is comparable, so a
// test can check which handler Network.Handler returns.
type countHandler struct{ n int }

func (c *countHandler) HandlePacket(time.Duration, *Packet) { c.n++ }

// TestRouteSeesRebind pins the route contract: a route resolved once
// holds the destination's binding slot, and the slot follows Unbind and
// Bind — so a cached route sees a partition or a rebind at delivery
// time, exactly as a per-packet lookup would.
func TestRouteSeesRebind(t *testing.T) {
	s, n := newTestNet()
	src, dst := Addr{"a", 1}, Addr{"b", 9}
	// Resolved before anything is bound: the empty slot fills on Bind.
	r := n.Resolve(0, src, dst)
	first, second := &countHandler{}, &countHandler{}
	n.Bind(dst, first)
	n.SendRoute(&r, []byte("x"))
	s.Run(s.Now() + time.Second)
	if first.n != 1 {
		t.Fatalf("first handler got %d, want 1", first.n)
	}

	n.Unbind(dst)
	if h := n.Handler(dst); h != nil {
		t.Fatalf("Handler after Unbind = %v, want nil", h)
	}
	n.SendRoute(&r, []byte("x"))
	s.Run(s.Now() + time.Second)
	if first.n != 1 || n.NoRoute() != 1 {
		t.Fatalf("after Unbind: first=%d noRoute=%d, want 1/1", first.n, n.NoRoute())
	}

	n.Bind(dst, second)
	if h := n.Handler(dst); h != Handler(second) {
		t.Fatalf("Handler after rebind = %v, want the new handler", h)
	}
	n.SendRoute(&r, []byte("x"))
	s.Run(s.Now() + time.Second)
	if first.n != 1 || second.n != 1 || n.NoRoute() != 1 {
		t.Errorf("after rebind: first=%d second=%d noRoute=%d, want 1/1/1", first.n, second.n, n.NoRoute())
	}
}

// TestRouteCrossShard checks a route between hosts of different shards:
// it holds no binding slot (no shard reads another shard's map), so the
// destination shard looks the binding up at delivery and counts a
// stray there after Unbind.
func TestRouteCrossShard(t *testing.T) {
	g := NewShardGroup(2)
	n := NewShardedNetwork(g, stats.NewRNG(1), map[string]int{"a": 0, "b": 1})
	n.SetDefaultProfile(LinkProfile{Delay: time.Millisecond})
	src, dst := Addr{"a", 1}, Addr{"b", 9}
	h := &countHandler{}
	n.Bind(dst, h)
	r := n.Resolve(n.ShardOf("a"), src, dst)
	if r.port != nil {
		t.Fatal("cross-shard route holds the destination shard's binding slot")
	}
	send := func(at time.Duration) {
		g.Shard(0).At(at, func(time.Duration) { n.SendRoute(&r, []byte("x")) })
	}
	send(10 * time.Millisecond)
	if err := g.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if h.n != 1 {
		t.Fatalf("delivered %d, want 1", h.n)
	}
	n.Unbind(dst)
	send(1100 * time.Millisecond)
	if err := g.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.n != 1 || n.shards[1].noRoute != 1 || n.shards[0].noRoute != 0 {
		t.Errorf("after Unbind: delivered=%d noRoute shard0=%d shard1=%d, want 1/0/1",
			h.n, n.shards[0].noRoute, n.shards[1].noRoute)
	}
	if gets, puts := n.PoolStats(); gets != puts {
		t.Errorf("packet pool leak: %d gets vs %d puts", gets, puts)
	}
}

// orderKey is the reference model's copy of the scheduler's total
// order: timestamp, scheduling time, then the ordinal — local items
// (class 0) before handoffs from another shard (class 1, whose shard
// tag is higher), each class in the order it was scheduled.
type orderKey struct {
	at, schedAt time.Duration
	class, n    int
}

func (a orderKey) less(b orderKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.n < b.n
}

// orderEvent is a Runner recording its id when it fires.
type orderEvent struct {
	id   int
	fire func(id int, now time.Duration)
}

func (e *orderEvent) RunEvent(now time.Duration) { e.fire(e.id, now) }

// TestSchedulerOrderMatchesReference drives a seeded random mix of At,
// AtTimer, Stop and ScheduleHandoff — from setup, from inside firing
// events (same-tick inserts included) and at window barriers, with
// handoffs whose older schedAt sorts them into the middle of a slot's
// tail, and delays reaching past the wheel horizon into the overflow
// heap — and demands the exact firing order of a reference that sorts
// every live item by (at, schedAt, ord).
func TestSchedulerOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		s := NewScheduler()
		s.setShardTag(0)
		var (
			keys     []orderKey
			stopped  []bool
			firedAt  []time.Duration
			fired    []int
			timers   []Timer
			timerIDs []int
			locals   int
			handoffs int
		)
		const budget = 4000
		// delay draws on a 100 µs grid, so equal timestamps are common;
		// a quarter land in the cursor's own tick, a few beyond the
		// ~2.15 s wheel horizon.
		delay := func() time.Duration {
			switch k := rng.Intn(8); {
			case k < 2:
				return time.Duration(rng.Intn(10)) * 100 * time.Microsecond
			case k < 7:
				return time.Duration(rng.Intn(400)) * 100 * time.Microsecond
			default:
				return time.Duration(rng.Intn(40000)) * 100 * time.Microsecond
			}
		}
		var op func()
		onFire := func(id int, now time.Duration) {
			fired = append(fired, id)
			firedAt = append(firedAt, now)
			for k := rng.Intn(3); k > 0 && len(keys) < budget; k-- {
				op()
			}
		}
		newID := func(k orderKey) int {
			keys = append(keys, k)
			stopped = append(stopped, false)
			return len(keys) - 1
		}
		local := func(at time.Duration) int {
			locals++
			return newID(orderKey{at: at, schedAt: s.Now(), class: 0, n: locals})
		}
		handoff := func(at, schedAt time.Duration) {
			handoffs++
			id := newID(orderKey{at: at, schedAt: schedAt, class: 1, n: handoffs})
			s.ScheduleHandoff(at, schedAt, ordTag(1)|uint64(handoffs), &orderEvent{id: id, fire: onFire})
		}
		op = func() {
			now := s.Now()
			switch k := rng.Intn(10); {
			case k < 3:
				at := now + delay()
				id := local(at)
				tm := s.At(at, func(now time.Duration) { onFire(id, now) })
				timers, timerIDs = append(timers, tm), append(timerIDs, id)
			case k < 6:
				at := now + delay()
				id := local(at)
				tm := s.AtTimer(at, &orderEvent{id: id, fire: onFire})
				timers, timerIDs = append(timers, tm), append(timerIDs, id)
			case k < 8:
				// A handoff strictly in the future, scheduled by a
				// sender whose clock read up to 50 ms earlier.
				at := now + 1 + delay()
				schedAt := now - time.Duration(rng.Intn(500))*100*time.Microsecond
				if schedAt < 0 {
					schedAt = 0
				}
				handoff(at, schedAt)
			default:
				if len(timers) == 0 {
					return
				}
				i := rng.Intn(len(timers))
				id := timerIDs[i]
				wasLive := !stopped[id]
				for _, f := range fired {
					if f == id {
						wasLive = false
					}
				}
				if got := timers[i].Stop(); got != wasLive {
					t.Fatalf("seed %d: Stop of item %d = %v, want %v", seed, id, got, wasLive)
				}
				if wasLive {
					stopped[id] = true
				}
			}
		}

		for i := 0; i < 300; i++ {
			op()
		}
		// Windows, as a shard runs them: events strictly before the
		// bound, then barrier handoffs at or after it — some into ticks
		// the cursor has already moved past, which clamp into its slot.
		for len(keys) < budget {
			bound := s.Now() + 1 + delay()
			if _, _, err := s.RunBefore(bound); err != nil {
				t.Fatal(err)
			}
			for k := rng.Intn(4); k > 0; k-- {
				at := bound + time.Duration(rng.Intn(30))*100*time.Microsecond
				schedAt := bound - 1 - time.Duration(rng.Intn(500))*100*time.Microsecond
				if schedAt < 0 {
					schedAt = 0
				}
				handoff(at, schedAt)
			}
			s.AdvanceTo(bound - 1)
		}
		if _, err := s.Run(time.Hour); err != nil {
			t.Fatal(err)
		}

		var want []int
		for id := range keys {
			if !stopped[id] {
				want = append(want, id)
			}
		}
		slices.SortFunc(want, func(a, b int) int {
			if keys[a].less(keys[b]) {
				return -1
			}
			return 1
		})
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i, id := range want {
			if fired[i] != id {
				t.Fatalf("seed %d: event %d fired item %d %+v, want item %d %+v",
					seed, i, fired[i], keys[fired[i]], id, keys[id])
			}
			if firedAt[i] != keys[id].at {
				t.Fatalf("seed %d: item %d fired at %v, want %v", seed, id, firedAt[i], keys[id].at)
			}
		}
		if s.Pending() != 0 {
			t.Errorf("seed %d: %d events still pending", seed, s.Pending())
		}
		t.Logf("seed %d: %d items (%d handoffs), %d fired", seed, len(keys), handoffs, len(fired))
	}
}

// wheelPointers is the pointer capacity the wheel holds on to: every
// slot's array plus the spare list's.
func wheelPointers(s *Scheduler) int {
	n := 0
	for i := range s.slots {
		n += cap(s.slots[i].items)
	}
	for _, a := range s.spare {
		n += cap(a)
	}
	return n
}

// tickRunner fires once a tick and schedules itself one tick ahead.
type tickRunner struct{ s *Scheduler }

func (r *tickRunner) RunEvent(now time.Duration) { r.s.AtRunner(now+1<<tickShift, r) }

// TestWheelLendsSlotBuffers drives a moving window — 64 events a tick,
// each firing one tick after it was scheduled — through three wheel
// revolutions, and requires the wheel to keep arrays only for the ticks
// that hold events: a slot the cursor has consumed lends its array to
// the next slot that fills, rather than keeping one as large as its
// busiest tick for the rest of the run. The same window runs once more
// through a two-shard group, where every event arrives as a cross-shard
// handoff.
func TestWheelLendsSlotBuffers(t *testing.T) {
	const (
		perTick = 64
		tick    = time.Duration(1) << tickShift
		until   = 3 * wheelSize * tick
		limit   = 4 * perTick
	)

	s := NewScheduler()
	for i := 0; i < perTick; i++ {
		s.AtRunner(tick, &tickRunner{s})
	}
	if _, err := s.Run(until); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Fired(), uint64(perTick*(3*wheelSize)); got != want {
		t.Fatalf("fired %d events, want %d", got, want)
	}
	if n := wheelPointers(s); n > limit {
		t.Errorf("single scheduler: the wheel holds %d pointers after %d ticks of %d events, want ≤ %d",
			n, 3*wheelSize, perTick, limit)
	}
	// Warmed up, the window allocates nothing: the lent arrays carry it.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Run(s.Now() + tick); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := allocs / perTick; perEvent != 0 {
		t.Errorf("warmed-up window: %v allocs per event, want 0", perEvent)
	}

	// Two shards, one host each: every packet crosses to the other
	// shard and is sent straight back, a one-tick hop each way.
	g := NewShardGroup(2)
	n := NewShardedNetwork(g, stats.NewRNG(1), map[string]int{"a": 0, "b": 1})
	n.SetDefaultProfile(LinkProfile{Delay: tick})
	a, b := Addr{"a", 1}, Addr{"b", 1}
	payload := []byte("x")
	n.Bind(a, HandlerFunc(func(time.Duration, *Packet) { n.Send(a, b, payload) }))
	n.Bind(b, HandlerFunc(func(time.Duration, *Packet) { n.Send(b, a, payload) }))
	for i := 0; i < perTick; i++ {
		n.Send(a, b, payload)
		n.Send(b, a, payload)
	}
	if err := g.Run(until); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Fired(), uint64(2*perTick*(3*wheelSize)); got != want {
		t.Fatalf("shard group fired %d events, want %d", got, want)
	}
	for i := 0; i < g.N(); i++ {
		if n := wheelPointers(g.Shard(i)); n > limit {
			t.Errorf("shard %d: the wheel holds %d pointers after %d ticks of %d handoffs, want ≤ %d",
				i, n, 3*wheelSize, perTick, limit)
		}
	}
}
