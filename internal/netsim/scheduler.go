// Package netsim provides the deterministic discrete-event substrate
// for the capacity experiments: a virtual-time scheduler and a
// simulated packet network with configurable per-link delay, jitter,
// loss and rate limits.
//
// Each Scheduler is single-threaded and deterministic: events at equal
// timestamps fire in the order they were scheduled. Parallelism comes
// in two forms, neither of which shares a scheduler between goroutines:
// running many independent simulations across a worker pool, or
// partitioning one simulation's hosts across a ShardGroup — several
// schedulers advancing in conservative-lookahead windows, exchanging
// packets only at barriers, with an event order (and therefore output)
// bit-identical to the single-scheduler run.
package netsim

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

// Runner is the allocation-free alternative to Event: a pre-built
// object whose RunEvent method fires at the scheduled time. Converting
// a pointer to this interface does not allocate, so per-packet work
// (network deliveries, reusable timers) schedules without a closure.
type Runner interface {
	RunEvent(now time.Duration)
}

// The wheel covers ticks of 2^tickShift nanoseconds (≈1.05 ms) across
// wheelSize slots (≈2.15 s of virtual time). Near events — RTP frame
// cadence, link delays, SIP T1 — land in the wheel in O(1); events
// beyond the horizon (call holds, transaction timeouts) go to a binary
// heap and migrate into the wheel as the cursor approaches them.
const (
	tickShift = 20
	wheelBits = 11
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

func tickOf(at time.Duration) int64 { return int64(at) >> tickShift }

// schedItem is a pooled event record. gen guards Timer handles against
// recycled items: a Timer captured before recycling can no longer stop
// the item's next life.
//
// Ordering: items fire in (at, schedAt, ord) order. schedAt is the
// scheduler's clock when the item was inserted and ord is a
// shard-tagged insertion ordinal. For a single scheduler schedAt is
// non-decreasing in insertion order, so the triple orders exactly like
// the historical (at, seq) pair — the extension exists so a cross-shard
// handoff (inserted late, at a barrier) can reconstruct the position it
// would have had if the sending shard had scheduled it directly.
type schedItem struct {
	at      time.Duration
	schedAt time.Duration
	seq     uint64
	ord     uint64
	gen     uint64
	fn      Event
	r       Runner
	heapIdx int // index in the overflow heap, -1 when in a wheel slot
}

func (it *schedItem) cancelled() bool { return it.fn == nil && it.r == nil }

// slot is one wheel bucket. Items [0:idx) have been consumed; the
// pending tail [idx:] is kept sorted by (at, schedAt, ord) on every
// insert (push), so the cursor consumes it front to back. A slot with
// nothing pending holds no array: the cursor lends a consumed slot's
// array to the scheduler's spare list, and the slot's next push
// borrows one back.
type slot struct {
	items []*schedItem
	idx   int
}

// push inserts it into the pending tail at its (at, schedAt, ord)
// position. A slot interleaves several sorted runs — 1 ms link
// deliveries beside 20 ms frame timers — so an item often sorts last
// and appends; otherwise it binary-searches the tail and shifts.
func (sl *slot) push(it *schedItem) {
	items := append(sl.items, it)
	n := len(items) - 1
	if n > sl.idx && itemLess(it, items[n-1]) {
		lo, hi := sl.idx, n-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if itemLess(it, items[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(items[lo+1:], items[lo:n])
		items[lo] = it
	}
	sl.items = items
}

// Timer is a handle to a scheduled event that can be stopped before it
// fires, in the manner of time.Timer. The zero value is a no-op.
type Timer struct {
	s    *Scheduler
	item *schedItem
	gen  uint64
}

// Stop cancels the timer. It reports whether the event had not yet
// fired (and therefore was actually cancelled). Stopping an already
// fired or already stopped timer is a no-op.
func (t Timer) Stop() bool {
	it := t.item
	if it == nil || it.gen != t.gen || it.cancelled() {
		return false
	}
	s := t.s
	if it.heapIdx >= 0 {
		// Far-future timers are removed from the overflow heap and
		// recycled eagerly: cancelled SIP transaction timers are the
		// common case and must not accumulate.
		s.overflowRemove(it.heapIdx)
		s.pendingTotal--
		s.cancelled++
		s.recycle(it)
		return true
	}
	// Wheel items are cancelled lazily; the cursor reaps them within
	// one wheel horizon of virtual time.
	it.fn, it.r = nil, nil
	s.cancelledWheel++
	s.cancelled++
	return true
}

// Scheduler is a virtual-time event loop. The zero value is not usable;
// use NewScheduler.
type Scheduler struct {
	now       time.Duration
	seq       uint64
	fired     uint64
	cancelled uint64
	running   bool
	// shardTag is OR'ed into every locally scheduled item's ord (the
	// shard index in the high bits), so tie-break ordinals from
	// different shards never collide. Zero for standalone schedulers.
	shardTag uint64

	cursorTick     int64
	slots          [wheelSize]slot
	occ            [wheelSize / 64]uint64
	wheelCount     int // items resident in wheel slots (incl. cancelled)
	cancelledWheel int
	pendingTotal   int // wheel + overflow items (incl. cancelled wheel items)

	overflow []*schedItem // binary heap by (at, schedAt, ord)
	free     []*schedItem
	// spare holds the emptied arrays of consumed slots (length 0, every
	// entry nil) for the next slot that becomes occupied, so the wheel
	// keeps arrays for the ticks that hold events, not for every tick it
	// has ever used.
	spare [][]*schedItem
}

// NewScheduler returns a scheduler with virtual time at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far, a useful
// throughput denominator in benchmarks.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled and not
// cancelled.
func (s *Scheduler) Pending() int { return s.pendingTotal - s.cancelledWheel }

// SchedStats is a point-in-time view of the scheduler's internals,
// feeding the telemetry plane's pull-style sched_* metrics.
type SchedStats struct {
	Now           time.Duration // virtual time
	Fired         uint64        // events executed
	Scheduled     uint64        // events ever scheduled (seq counter)
	Cancelled     uint64        // timers stopped before firing
	Pending       int           // live (non-cancelled) scheduled events
	WheelItems    int           // items resident in wheel slots, incl. cancelled
	OverflowDepth int           // far-future items in the overflow heap
}

// Stats returns the scheduler's current counters. It must be called
// from the scheduler goroutine (like every other method); the telemetry
// registry evaluates its pull-style funcs at snapshot time, which the
// experiment drivers do between or after event processing.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Now:           s.now,
		Fired:         s.fired,
		Scheduled:     s.seq,
		Cancelled:     s.cancelled,
		Pending:       s.Pending(),
		WheelItems:    s.wheelCount,
		OverflowDepth: len(s.overflow),
	}
}

// alloc takes an item from the free list or makes a new one.
func (s *Scheduler) alloc() *schedItem {
	if n := len(s.free); n > 0 {
		it := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return it
	}
	return &schedItem{}
}

// recycle returns a consumed item to the free list, invalidating any
// outstanding Timer handles to it.
func (s *Scheduler) recycle(it *schedItem) {
	it.gen++
	it.fn, it.r = nil, nil
	it.heapIdx = -1
	s.free = append(s.free, it)
}

// schedule inserts an event at absolute time at (already clamped).
func (s *Scheduler) schedule(at time.Duration, fn Event, r Runner) *schedItem {
	it := s.alloc()
	it.at = at
	it.schedAt = s.now
	it.seq = s.seq
	it.ord = s.shardTag | s.seq
	it.fn = fn
	it.r = r
	it.heapIdx = -1
	s.seq++
	s.pendingTotal++
	s.insert(it)
	return it
}

// insert places an already initialised item into the wheel or the
// overflow heap according to its timestamp.
func (s *Scheduler) insert(it *schedItem) {
	t := tickOf(it.at)
	if t < s.cursorTick {
		t = s.cursorTick
	}
	if t-s.cursorTick >= wheelSize && s.wheelCount == 0 {
		// The wheel is empty, so the cursor can jump forward to keep
		// short relative delays inside the wheel after long idle gaps.
		if nowTick := tickOf(s.now); nowTick > s.cursorTick {
			s.cursorTick = nowTick
		}
	}
	if t-s.cursorTick < wheelSize {
		s.wheelPush(t, it)
	} else {
		s.overflowPush(it)
	}
}

// wheelPush puts it into the slot of tick t, which must lie within the
// wheel horizon. A slot without an array borrows a spare one first.
func (s *Scheduler) wheelPush(t int64, it *schedItem) {
	sl := &s.slots[t&wheelMask]
	if sl.items == nil {
		if n := len(s.spare); n > 0 {
			sl.items = s.spare[n-1]
			s.spare[n-1] = nil
			s.spare = s.spare[:n-1]
		}
	}
	sl.push(it)
	s.occ[(t&wheelMask)>>6] |= 1 << uint(t&63)
	s.wheelCount++
}

// At schedules fn at absolute virtual time at. Scheduling in the past
// (before Now) clamps to Now, preserving causal order.
func (s *Scheduler) At(at time.Duration, fn Event) Timer {
	if at < s.now {
		at = s.now
	}
	it := s.schedule(at, fn, nil)
	return Timer{s: s, item: it, gen: it.gen}
}

// After schedules fn after delay d from the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Event) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtRunner schedules r at absolute virtual time at without allocating a
// closure or a cancellation handle — the zero-cost path for per-packet
// deliveries.
func (s *Scheduler) AtRunner(at time.Duration, r Runner) {
	if at < s.now {
		at = s.now
	}
	s.schedule(at, nil, r)
}

// AtTimer is AtRunner with a cancellation handle, for reusable timers.
func (s *Scheduler) AtTimer(at time.Duration, r Runner) Timer {
	if at < s.now {
		at = s.now
	}
	it := s.schedule(at, nil, r)
	return Timer{s: s, item: it, gen: it.gen}
}

// itemLess is the scheduler's total event order: timestamp, then the
// virtual time the event was scheduled at, then the shard-tagged
// insertion ordinal. ord values are unique within one scheduler, so
// ties cannot remain.
func itemLess(a, b *schedItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.ord < b.ord
}

// nextOccupied returns the first occupied slot tick strictly after
// cursorTick within the wheel horizon, scanning the occupancy bitmap.
func (s *Scheduler) nextOccupied() (int64, bool) {
	if s.wheelCount == 0 {
		return 0, false
	}
	// Scan wheelSize slots starting just after the cursor, walking the
	// bitmap a word at a time.
	start := (s.cursorTick + 1) & wheelMask
	for scanned := int64(0); scanned < wheelSize; {
		word := s.occ[start>>6]
		// Mask off bits below the start position within this word.
		word &= ^uint64(0) << uint(start&63)
		if word != 0 {
			bit := int64(bits.TrailingZeros64(word))
			slotIdx := (start &^ 63) + bit
			delta := (slotIdx - ((s.cursorTick + 1) & wheelMask)) & wheelMask
			return s.cursorTick + 1 + delta, true
		}
		advance := 64 - (start & 63)
		scanned += advance
		start = (start + advance) & wheelMask
	}
	return 0, false
}

// advanceCursor moves the cursor to the tick of the next pending event,
// migrating overflow events that have come within the wheel horizon.
// It reports whether any event is pending.
func (s *Scheduler) advanceCursor() bool {
	next, ok := s.nextOccupied()
	if len(s.overflow) > 0 {
		oTick := tickOf(s.overflow[0].at)
		if !ok || oTick <= next {
			if !ok && oTick >= s.cursorTick+wheelSize {
				// Wheel empty and the heap head is beyond the horizon:
				// jump the cursor so the head's tick is in the window.
				s.cursorTick = oTick
			}
			limit := s.cursorTick + wheelSize
			for len(s.overflow) > 0 {
				t := tickOf(s.overflow[0].at)
				if t >= limit || (ok && t > next) {
					break
				}
				s.wheelPush(t, s.overflowPop())
				if !ok || t < next {
					next, ok = t, true
				}
			}
		}
	}
	if !ok {
		return false
	}
	s.cursorTick = next
	return true
}

// peek returns the next pending item without consuming it, advancing
// the cursor and reaping cancelled items along the way. Returns nil
// when nothing is pending.
func (s *Scheduler) peek() *schedItem {
	for {
		sl := &s.slots[s.cursorTick&wheelMask]
		for sl.idx < len(sl.items) {
			it := sl.items[sl.idx]
			if it.cancelled() {
				sl.items[sl.idx] = nil
				sl.idx++
				s.wheelCount--
				s.cancelledWheel--
				s.pendingTotal--
				s.recycle(it)
				continue
			}
			return it
		}
		if sl.idx > 0 {
			// Slot fully consumed: pop and the reaping above have
			// cleared every entry, so the array goes to the spare list
			// empty and the slot waits for its next push without one.
			s.spare = append(s.spare, sl.items[:0])
			sl.items = nil
			sl.idx = 0
			s.occ[(s.cursorTick&wheelMask)>>6] &^= 1 << uint(s.cursorTick&63)
		}
		if !s.advanceCursor() {
			return nil
		}
	}
}

// pop consumes the item peek returned (always the head of the cursor
// slot's pending tail).
func (s *Scheduler) pop() {
	sl := &s.slots[s.cursorTick&wheelMask]
	sl.items[sl.idx] = nil
	sl.idx++
	s.wheelCount--
	s.pendingTotal--
}

// fire executes one item and recycles it. The item is recycled before
// the callback runs so the callback's own scheduling can reuse it.
func (s *Scheduler) fire(it *schedItem) {
	fn, r := it.fn, it.r
	s.now = it.at
	s.fired++
	s.recycle(it)
	if r != nil {
		r.RunEvent(s.now)
	} else {
		fn(s.now)
	}
}

// ErrReentrantRun reports that Run was called from inside an event.
var ErrReentrantRun = errors.New("netsim: reentrant Run")

// Run executes events in timestamp order until either no events remain
// or virtual time would exceed until. Events scheduled exactly at until
// still run. It returns the number of events fired during this call.
func (s *Scheduler) Run(until time.Duration) (uint64, error) {
	if s.running {
		return 0, ErrReentrantRun
	}
	s.running = true
	defer func() { s.running = false }()
	start := s.fired
	for {
		it := s.peek()
		if it == nil || it.at > until {
			break
		}
		s.pop()
		s.fire(it)
	}
	// Advance the clock to the horizon so repeated Runs are monotone.
	if s.now < until {
		s.now = until
	}
	return s.fired - start, nil
}

// setShardTag marks this scheduler as shard idx of a ShardGroup. Must
// be called before any event is scheduled.
func (s *Scheduler) setShardTag(idx int) { s.shardTag = ordTag(idx) }

// ordTag returns the high-bits shard tag for ordinals originating on
// shard idx. The low 48 bits carry the per-shard insertion counter,
// which leaves room for ~2.8e14 events per shard per run.
func ordTag(idx int) uint64 { return uint64(idx+1) << 48 }

// RunBefore executes events strictly before bound, leaving the clock at
// the last fired event rather than advancing it to the bound — the
// shard-window primitive: a shard may only consume events it can prove
// no other shard can still influence. It returns the timestamp of the
// next pending event, if any.
func (s *Scheduler) RunBefore(bound time.Duration) (next time.Duration, hasNext bool, err error) {
	if s.running {
		return 0, false, ErrReentrantRun
	}
	s.running = true
	defer func() { s.running = false }()
	for {
		it := s.peek()
		if it == nil {
			return 0, false, nil
		}
		if it.at >= bound {
			return it.at, true, nil
		}
		s.pop()
		s.fire(it)
	}
}

// NextEventAt reports the timestamp of the earliest pending event. Like
// every scheduler method it must not run concurrently with Run.
func (s *Scheduler) NextEventAt() (time.Duration, bool) {
	it := s.peek()
	if it == nil {
		return 0, false
	}
	return it.at, true
}

// AdvanceTo moves the clock forward to t without firing anything, so a
// windowed run ends with the same clock reading as Run(until) would.
func (s *Scheduler) AdvanceTo(t time.Duration) {
	if s.now < t {
		s.now = t
	}
}

// ScheduleHandoff inserts an event delivered from another shard,
// carrying the (schedAt, ord) key the sending shard assigned at send
// time — the event sorts exactly where the sender's own scheduler
// would have placed it. It panics if the delivery is already in this
// shard's past, which would mean the conservative-lookahead window was
// violated.
func (s *Scheduler) ScheduleHandoff(at, schedAt time.Duration, ord uint64, r Runner) {
	if at < s.now {
		panic(fmt.Sprintf("netsim: cross-shard handoff into the past (lookahead violated): at=%d schedAt=%d now=%d", at, schedAt, s.now))
	}
	it := s.alloc()
	it.at = at
	it.schedAt = schedAt
	it.seq = s.seq
	it.ord = ord
	it.fn = nil
	it.r = r
	it.heapIdx = -1
	s.seq++
	s.pendingTotal++
	s.insert(it)
}

// Drain runs until no events remain, with a safety cap on the number of
// events to stop runaway self-scheduling loops in tests. It returns
// the number of events fired and whether the cap was hit.
func (s *Scheduler) Drain(maxEvents uint64) (uint64, bool) {
	var n uint64
	s.running = true
	defer func() { s.running = false }()
	for n < maxEvents {
		it := s.peek()
		if it == nil {
			break
		}
		s.pop()
		n++
		s.fire(it)
	}
	return n, s.Pending() > 0
}

// Overflow heap: a plain binary min-heap by (at, schedAt, ord) with
// index tracking so Stop can remove cancelled far-future timers
// eagerly.

func overflowLess(a, b *schedItem) bool { return itemLess(a, b) }

func (s *Scheduler) overflowPush(it *schedItem) {
	it.heapIdx = len(s.overflow)
	s.overflow = append(s.overflow, it)
	s.overflowUp(it.heapIdx)
}

func (s *Scheduler) overflowPop() *schedItem {
	it := s.overflow[0]
	s.overflowRemove(0)
	return it
}

func (s *Scheduler) overflowRemove(i int) {
	n := len(s.overflow) - 1
	it := s.overflow[i]
	if i != n {
		s.overflow[i] = s.overflow[n]
		s.overflow[i].heapIdx = i
	}
	s.overflow[n] = nil
	s.overflow = s.overflow[:n]
	if i < n {
		s.overflowDown(i)
		s.overflowUp(i)
	}
	it.heapIdx = -1
}

func (s *Scheduler) overflowUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(s.overflow[i], s.overflow[parent]) {
			break
		}
		s.overflow[i], s.overflow[parent] = s.overflow[parent], s.overflow[i]
		s.overflow[i].heapIdx = i
		s.overflow[parent].heapIdx = parent
		i = parent
	}
}

func (s *Scheduler) overflowDown(i int) {
	n := len(s.overflow)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && overflowLess(s.overflow[l], s.overflow[smallest]) {
			smallest = l
		}
		if r < n && overflowLess(s.overflow[r], s.overflow[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.overflow[i], s.overflow[smallest] = s.overflow[smallest], s.overflow[i]
		s.overflow[i].heapIdx = i
		s.overflow[smallest].heapIdx = smallest
		i = smallest
	}
}
