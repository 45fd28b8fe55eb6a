package directory

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/transport"
)

// fakeClock is a hand-cranked virtual clock: Advance moves time and
// fires due timers in deadline order, so expiry behavior can be probed
// at exact instants without a full simulation scheduler.
type fakeClock struct {
	now    time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
	fired   bool
}

func (t *fakeTimer) Stop() bool {
	was := !t.stopped && !t.fired
	t.stopped = true
	return was
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	t := &fakeTimer{at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return t
}

// Advance moves the clock to target, firing every due timer in
// deadline order (timers armed by callbacks included).
func (c *fakeClock) Advance(target time.Duration) {
	for {
		var next *fakeTimer
		for _, t := range c.timers {
			if t.stopped || t.fired || t.at > target {
				continue
			}
			if next == nil || t.at < next.at {
				next = t
			}
		}
		if next == nil {
			break
		}
		c.now = next.at
		next.fired = true
		next.fn()
	}
	c.now = target
}

// regOp is one step of a generated registration history.
type regOp struct {
	kind    int // 0 register, 1 refresh-or-register, 2 remove one, 3 wildcard
	user    string
	contact string
	at      time.Duration
	ttl     time.Duration
}

// genOps produces a deterministic pseudo-random operation history over
// a fixed user population, with interleaved registers, refreshes,
// single-contact removals and wildcard clears at increasing times.
func genOps(seed uint64, users, steps int) []regOp {
	rng := stats.NewRNG(seed)
	ops := make([]regOp, 0, steps)
	at := time.Duration(0)
	for i := 0; i < steps; i++ {
		at += time.Duration(rng.Float64() * float64(200*time.Millisecond))
		ops = append(ops, regOp{
			kind:    int(rng.Uint64() % 4),
			user:    fmt.Sprintf("u%d", rng.Uint64()%uint64(users)),
			contact: fmt.Sprintf("10.0.0.%d:5060", rng.Uint64()%8),
			at:      at,
			ttl:     time.Duration(1+rng.Uint64()%60) * time.Second,
		})
	}
	return ops
}

// visibleState flattens everything a SIP-layer caller can observe:
// per-user contact sets (ordered), the registered-user count, and the
// live-binding gauge.
func visibleState(d *Directory, users int, now time.Duration) string {
	var b []string
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("u%d", i)
		cs := d.Contacts(u, now)
		best, ok := d.Contact(u, now)
		b = append(b, fmt.Sprintf("%s: contacts=%v best=%q live=%v", u, cs, best, ok))
	}
	b = append(b, fmt.Sprintf("registered=%d liveBindings=%d", d.Registered(now), d.LiveBindings()))
	return fmt.Sprint(b)
}

// TestShardPlacementInvariance is the battery's core property: the
// same operation history applied to stores with 1, 4 and 64 shards —
// with the expiry wheel running on a virtual clock — must leave the
// same visible state at every probe instant. Shard layout is a lock
// domain choice, never semantics.
func TestShardPlacementInvariance(t *testing.T) {
	const users, steps = 24, 400
	for _, seed := range []uint64{1, 42, 160} {
		ops := genOps(seed, users, steps)
		var baseline []string
		for _, shards := range []int{1, 4, 64} {
			clock := &fakeClock{}
			d := NewSharded(shards)
			for i := 0; i < users; i++ {
				if err := d.AddUser(User{Username: fmt.Sprintf("u%d", i), Password: "pw"}); err != nil {
					t.Fatal(err)
				}
			}
			d.StartExpiry(clock)
			var states []string
			for _, op := range ops {
				clock.Advance(op.at)
				switch op.kind {
				case 0, 1:
					if err := d.Register(op.user, op.contact, op.at, op.ttl); err != nil {
						t.Fatalf("register: %v", err)
					}
				case 2:
					if err := d.Register(op.user, op.contact, op.at, 0); err != nil {
						t.Fatalf("remove: %v", err)
					}
				case 3:
					if err := d.UnregisterAll(op.user); err != nil {
						t.Fatalf("wildcard: %v", err)
					}
				}
				checkHeaps(t, d)
				states = append(states, visibleState(d, users, op.at))
			}
			// Probe through the quiet tail too: expiry ordering across
			// shards must agree as the remaining TTLs run out.
			last := ops[len(ops)-1].at
			for off := time.Second; off <= 70*time.Second; off += time.Second {
				clock.Advance(last + off)
				states = append(states, visibleState(d, users, last+off))
			}
			if baseline == nil {
				baseline = states
				continue
			}
			for i := range states {
				if states[i] != baseline[i] {
					t.Fatalf("seed=%d shards=%d: state diverged from shards=1 at step %d:\n got:  %s\n want: %s",
						seed, shards, i, states[i], baseline[i])
				}
			}
		}
	}
}

// TestExactTTLExpiryOnVirtualClock pins the expiry instant: a binding
// with a 30 s TTL is visible until—but not at—t0+30 s, and the timer
// wheel removes it from the store at exactly that deadline, not on a
// later scan.
func TestExactTTLExpiryOnVirtualClock(t *testing.T) {
	clock := &fakeClock{}
	d := NewSharded(4)
	if err := d.AddUser(User{Username: "alice", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	d.StartExpiry(clock)
	if err := d.Register("alice", "10.0.0.1:5060", clock.Now(), 30*time.Second); err != nil {
		t.Fatal(err)
	}

	clock.Advance(30*time.Second - time.Nanosecond)
	if _, ok := d.Contact("alice", clock.Now()); !ok {
		t.Fatal("binding invisible one nanosecond before its deadline")
	}
	if d.LiveBindings() != 1 {
		t.Fatalf("LiveBindings = %d before the deadline, want 1", d.LiveBindings())
	}

	clock.Advance(30 * time.Second)
	if _, ok := d.Contact("alice", clock.Now()); ok {
		t.Fatal("binding visible at its exact deadline")
	}
	if d.LiveBindings() != 0 {
		t.Fatalf("LiveBindings = %d at the deadline, want 0 (event-driven removal)", d.LiveBindings())
	}
	if d.Registered(clock.Now()) != 0 {
		t.Fatal("user still counted as registered at the deadline")
	}
}

// TestRefreshNeverGaps is the no-gap property: a refresh before the
// old deadline extends the binding seamlessly — the superseded heap
// entry firing at the old deadline must not evict the refreshed
// binding, at that instant or any other until the new deadline.
func TestRefreshNeverGaps(t *testing.T) {
	clock := &fakeClock{}
	d := NewSharded(4)
	if err := d.AddUser(User{Username: "bob", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	d.StartExpiry(clock)
	if err := d.Register("bob", "10.0.0.2:5060", 0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	clock.Advance(25 * time.Second)
	if err := d.Register("bob", "10.0.0.2:5060", clock.Now(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Probe every 100 ms across the old deadline and up to the new one.
	for at := 25 * time.Second; at < 55*time.Second; at += 100 * time.Millisecond {
		clock.Advance(at)
		if _, ok := d.Contact("bob", clock.Now()); !ok {
			t.Fatalf("refresh gap: binding invisible at %s (refreshed deadline 55s)", at)
		}
		if d.LiveBindings() != 1 {
			t.Fatalf("LiveBindings = %d at %s, want 1", d.LiveBindings(), at)
		}
	}
	clock.Advance(55 * time.Second)
	if _, ok := d.Contact("bob", clock.Now()); ok {
		t.Fatal("binding visible at its refreshed deadline")
	}
	if d.LiveBindings() != 0 {
		t.Fatalf("LiveBindings = %d after the refreshed deadline, want 0", d.LiveBindings())
	}
}

// TestWildcardClearsAllContacts pins RFC 3261 §10.2.2 semantics: the
// wildcard clears every contact of the user — and only that user —
// while single-contact deregistration (ttl 0) removes exactly one.
func TestWildcardClearsAllContacts(t *testing.T) {
	d := NewSharded(4)
	for _, u := range []string{"carol", "dave"} {
		if err := d.AddUser(User{Username: u, Password: "pw"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		contact := fmt.Sprintf("10.0.1.%d:5060", i)
		if err := d.Register("carol", contact, 0, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Register("dave", "10.0.2.1:5060", 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Contacts("carol", 0)); got != 3 {
		t.Fatalf("carol has %d contacts, want 3", got)
	}

	// Single-contact removal first.
	if err := d.Register("carol", "10.0.1.1:5060", 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Contacts("carol", 0); len(got) != 2 {
		t.Fatalf("after single removal carol has %v, want 2 contacts", got)
	}

	if err := d.UnregisterAll("carol"); err != nil {
		t.Fatal(err)
	}
	if got := d.Contacts("carol", 0); len(got) != 0 {
		t.Fatalf("wildcard left contacts behind: %v", got)
	}
	if _, ok := d.Contact("dave", 0); !ok {
		t.Fatal("wildcard for carol cleared dave's binding")
	}
	if d.LiveBindings() != 1 {
		t.Fatalf("LiveBindings = %d, want 1 (dave)", d.LiveBindings())
	}
	if err := d.UnregisterAll("nobody"); err == nil {
		t.Fatal("wildcard for unknown user did not fail")
	}
}

// TestNewShardedRejectsBadCounts pins the power-of-two contract.
func TestNewShardedRejectsBadCounts(t *testing.T) {
	for _, n := range []int{-1, 0, 3, 6, 12, 100} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(%d) did not panic", n)
				}
			}()
			NewSharded(n)
		}()
	}
	for _, n := range []int{1, 2, 16, 64} {
		if got := NewSharded(n).Shards(); got != n {
			t.Errorf("Shards() = %d, want %d", got, n)
		}
	}
}

// TestRegistrarStress is the registrar's `make race` drill: every
// shard-visible operation hammered from GOMAXPROCS-scaled writers
// under -race, with the expiry wheel running on the real clock. The
// assertions are conservation properties: the live-binding gauge must
// equal the sum of per-user contact counts once the dust settles.
func TestRegistrarStress(t *testing.T) {
	const users = 64
	const workers = 8
	const opsPerWorker = 2000

	d := NewSharded(16)
	clock := transport.NewRealClock()
	for i := 0; i < users; i++ {
		if err := d.AddUser(User{Username: fmt.Sprintf("u%d", i), Password: "pw"}); err != nil {
			t.Fatal(err)
		}
	}
	d.StartExpiry(clock)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(uint64(w)*7919 + 1)
			for i := 0; i < opsPerWorker; i++ {
				user := fmt.Sprintf("u%d", rng.Uint64()%users)
				contact := fmt.Sprintf("10.1.%d.%d:5060", w, rng.Uint64()%4)
				now := clock.Now()
				switch rng.Uint64() % 8 {
				case 0:
					d.Unregister(user)
				case 1:
					_ = d.Register(user, contact, now, 0)
				case 2:
					_, _ = d.Contact(user, now)
				case 3:
					_ = d.Contacts(user, now)
				case 4:
					d.Registered(now)
				default:
					// Mostly registers/refreshes, some with TTLs short
					// enough to expire mid-run on the real clock.
					ttl := time.Duration(1+rng.Uint64()%50) * time.Millisecond * 10
					_ = d.Register(user, contact, now, ttl)
				}
			}
		}()
	}
	wg.Wait()

	// Conservation: the atomic gauge and the expiry heaps must agree
	// with a raw walk of the shard maps. Every shard stays locked until
	// the gauge is read, so no expiry timer still due from the run can
	// remove a binding between the walk and the reads.
	raw, heaped := 0, 0
	for _, s := range d.shards {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, bs := range s.bindings {
			raw += len(bs)
		}
		heaped += len(s.heap)
	}
	if int64(raw) != d.LiveBindings() {
		t.Fatalf("gauge drift: %d stored bindings vs LiveBindings=%d", raw, d.LiveBindings())
	}
	if heaped != raw {
		t.Fatalf("%d expiry heap entries for %d stored bindings", heaped, raw)
	}
}

// checkHeaps fails t unless every shard's expiry heap holds exactly
// its stored bindings, and returns the total.
func checkHeaps(t *testing.T, d *Directory) int {
	t.Helper()
	total := 0
	for i, s := range d.shards {
		s.mu.Lock()
		n := 0
		for _, bs := range s.bindings {
			n += len(bs)
		}
		h := len(s.heap)
		s.mu.Unlock()
		if h != n {
			t.Fatalf("shard %d: %d expiry heap entries for %d bindings", i, h, n)
		}
		total += n
	}
	return total
}

// TestOneHeapEntryPerBinding: a binding sits in the expiry heap once,
// however often it is refreshed, and every way out of the store —
// Expires: 0, the wildcard, Unregister and expiry — takes it out.
func TestOneHeapEntryPerBinding(t *testing.T) {
	clock := &fakeClock{}
	d := NewSharded(4)
	if err := d.AddUser(User{Username: "alice", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	d.StartExpiry(clock)
	const contact = "10.0.0.1:5060"
	register := func(ttl time.Duration) {
		t.Helper()
		if err := d.Register("alice", contact, clock.Now(), ttl); err != nil {
			t.Fatal(err)
		}
	}
	want := func(step string, n int) {
		t.Helper()
		if got := checkHeaps(t, d); got != n {
			t.Fatalf("after %s: %d bindings in the heap, want %d", step, got, n)
		}
	}
	for i := 0; i < 10000; i++ {
		clock.Advance(clock.Now() + time.Millisecond)
		register(time.Hour)
	}
	want("10 000 refreshes", 1)
	register(0)
	want("Expires: 0", 0)
	register(time.Hour)
	if err := d.UnregisterAll("alice"); err != nil {
		t.Fatal(err)
	}
	want("the wildcard", 0)
	register(time.Hour)
	d.Unregister("alice")
	want("Unregister", 0)
	register(time.Minute)
	clock.Advance(clock.Now() + time.Minute)
	want("expiry", 0)
	register(time.Minute)
	want("registering after expiry", 1)
}

// TestBindingOwnsItsStrings: a REGISTER's username and contact arrive
// as slices of its parsed text. The stored binding must keep neither:
// its user (and map key) is the provisioned username and its contact a
// copy, so the request's text is garbage once its transaction ends.
func TestBindingOwnsItsStrings(t *testing.T) {
	d := NewSharded(4)
	if err := d.AddUser(User{Username: "alice", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	d.StartExpiry(&fakeClock{})
	buf := make([]byte, 4096)
	copy(buf[100:], "alice")
	copy(buf[200:], "10.0.0.9:5060")
	copy(buf[300:], "10.0.0.7:5060")
	text := string(buf)
	user, first, second := text[100:105], text[200:213], text[300:313]
	for _, contact := range []string{first, second, first} { // create, add, refresh
		if err := d.Register(user, contact, 0, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	inText := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= lo && p < lo+uintptr(len(text))
	}
	s := d.shardFor("alice")
	provisioned := unsafe.StringData(s.users["alice"].Username)
	for key, bs := range s.bindings {
		if unsafe.StringData(key) != provisioned {
			t.Errorf("bindings map key %q is not the provisioned username", key)
		}
		for _, b := range bs {
			if unsafe.StringData(b.user) != provisioned {
				t.Errorf("binding user %q is not the provisioned username", b.user)
			}
			if inText(b.contact) {
				t.Errorf("binding contact %q points into the request text", b.contact)
			}
		}
	}
	if got := d.Contacts("alice", 0); len(got) != 2 || got[0] != second || got[1] != first {
		t.Fatalf("contacts = %v, want [%s %s]", got, second, first)
	}
}
