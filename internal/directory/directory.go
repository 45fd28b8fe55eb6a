// Package directory is the user store behind the PBX — the stand-in
// for the LDAP server the paper's deployment uses "for user
// authentication and call registration" (Sec. II-A). It maps SIP
// usernames to digest credentials and assigned extensions, and records
// contact bindings created by REGISTER.
//
// The store is sharded for the million-endpoint registrar: a
// power-of-two number of shards, each with its own lock, user map,
// binding map and expiry heap, so concurrent REGISTER bursts from the
// real-UDP listener shards do not serialize on one mutex. Binding
// expiry is event-driven: each shard keeps its bindings in a min-heap
// on their deadlines and arms one timer on the attached clock (the
// simulation timing wheel in sim runs, the wall clock in pbxd) for the
// earliest one, instead of scanning N bindings. A binding is one
// record, in its user's list and at one heap position: a refresh moves
// its deadline and fixes the heap in place, a removal takes it out, so
// the store holds users × contacts records however often they refresh.
// A record owns its strings — the provisioned username and a copy of
// the contact — so no REGISTER's text outlives its transaction.
package directory

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// User is one provisioned account.
type User struct {
	// Username is the SIP user part (also the dialable extension).
	Username string
	// Password is the digest secret.
	Password string
	// DisplayName is informational.
	DisplayName string
}

// binding is a registered contact: where to reach a user right now.
type binding struct {
	user      string // the provisioned User.Username
	contact   string // transport address "host:port"
	expiresAt time.Duration
	// idx is the binding's position in its shard's expiry heap, or -1
	// while it is in none (no clock attached, or removed).
	idx int
}

// DefaultShards is the shard count used by New. Sixteen keeps the
// single-host sim cheap while giving the real-UDP PBX (one goroutine
// per REUSEPORT listener shard) lock-free parallelism.
const DefaultShards = 16

// shard is one lock domain of the directory.
type shard struct {
	mu    sync.Mutex
	users map[string]User
	// bindings lists each user's contacts, oldest registration first.
	bindings map[string][]*binding
	// heap holds every binding of the shard once while a clock is
	// attached, earliest deadline first.
	heap expiryHeap
	// armedAt is the deadline the shard timer is currently set for,
	// or -1 when no timer is pending.
	armedAt time.Duration
	timer   transport.Timer
}

// Directory is an in-memory user and registration store. It is safe
// for concurrent use (the real-UDP PBX serves from multiple
// goroutines).
type Directory struct {
	shards []*shard
	mask   uint32
	// live counts stored bindings across all shards; kept with
	// atomics so telemetry gauges never take shard locks.
	live atomic.Int64
	// clock drives event-driven expiry once StartExpiry attaches it.
	// nil means bindings expire lazily on read, as before. Held in an
	// atomic so the register hot path never takes a directory-wide
	// lock.
	clock atomic.Pointer[clockBox]
}

// clockBox wraps the clock interface for atomic.Pointer.
type clockBox struct{ c transport.Clock }

func (d *Directory) expiryClock() transport.Clock {
	if b := d.clock.Load(); b != nil {
		return b.c
	}
	return nil
}

// New returns an empty directory with DefaultShards shards.
func New() *Directory { return NewSharded(DefaultShards) }

// NewSharded returns an empty directory with the given power-of-two
// shard count.
func NewSharded(n int) *Directory {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("directory: shard count %d is not a power of two", n))
	}
	d := &Directory{shards: make([]*shard, n), mask: uint32(n - 1)}
	for i := range d.shards {
		d.shards[i] = &shard{
			users:    make(map[string]User),
			bindings: make(map[string][]*binding),
			armedAt:  -1,
		}
	}
	return d
}

// Errors.
var (
	ErrNoSuchUser    = errors.New("directory: no such user")
	ErrDuplicateUser = errors.New("directory: user already exists")
)

// fnv1a32 is the shard hash. FNV-1a keeps equal usernames on equal
// shards across restarts with zero allocation.
func fnv1a32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (d *Directory) shardFor(username string) *shard {
	return d.shards[fnv1a32(username)&d.mask]
}

// Shards returns the shard count.
func (d *Directory) Shards() int { return len(d.shards) }

// AddUser provisions an account. Adding an existing username fails.
func (d *Directory) AddUser(u User) error {
	if u.Username == "" {
		return errors.New("directory: empty username")
	}
	s := d.shardFor(u.Username)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[u.Username]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateUser, u.Username)
	}
	s.users[u.Username] = u
	return nil
}

// Provision bulk-creates users named <prefix><start>…<prefix><start+n-1>
// with per-user passwords, mirroring how the campus assigns accounts
// from institutional IDs. It returns the created usernames.
func (d *Directory) Provision(prefix string, start, n int) []string {
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", prefix, start+i)
		if err := d.AddUser(User{Username: name, Password: "pw-" + name}); err == nil {
			names = append(names, name)
		}
	}
	return names
}

// Lookup returns the account for username.
func (d *Directory) Lookup(username string) (User, error) {
	s := d.shardFor(username)
	s.mu.Lock()
	u, ok := s.users[username]
	s.mu.Unlock()
	if !ok {
		return User{}, fmt.Errorf("%w: %s", ErrNoSuchUser, username)
	}
	return u, nil
}

// Authenticate verifies a password.
func (d *Directory) Authenticate(username, password string) bool {
	u, err := d.Lookup(username)
	return err == nil && u.Password == password
}

// Register stores a contact binding for username with the given
// lifetime measured on the caller's clock. A user may hold several
// contacts; registering an existing contact refreshes its deadline.
// A non-positive ttl removes that one contact (RFC 3261 "Expires: 0").
func (d *Directory) Register(username, contact string, now, ttl time.Duration) error {
	s := d.shardFor(username)
	s.mu.Lock()
	u, ok := s.users[username]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchUser, username)
	}
	// Key and record by the provisioned name: username may be a slice
	// of the request's text.
	username = u.Username
	if ttl <= 0 {
		d.removeContactLocked(s, username, contact)
		s.mu.Unlock()
		return nil
	}
	bs := s.bindings[username]
	var b *binding
	for i := range bs {
		if bs[i].contact == contact {
			// Move the refreshed binding to the end: Contact()
			// resolves to the most recently registered contact.
			b = bs[i]
			copy(bs[i:], bs[i+1:])
			bs[len(bs)-1] = b
			break
		}
	}
	if b == nil {
		b = &binding{user: username, contact: strings.Clone(contact), idx: -1}
		s.bindings[username] = append(bs, b)
		d.live.Add(1)
	}
	b.expiresAt = now + ttl
	if clock := d.expiryClock(); clock != nil {
		if b.idx < 0 {
			heap.Push(&s.heap, b)
		} else {
			heap.Fix(&s.heap, b.idx)
		}
		d.armLocked(s, clock.Now())
	}
	s.mu.Unlock()
	return nil
}

// removeContactLocked drops one contact of username, or every contact
// when contact is empty.
func (d *Directory) removeContactLocked(s *shard, username, contact string) {
	// Backwards: removing one binding shifts only those after it.
	bs := s.bindings[username]
	for i := len(bs) - 1; i >= 0; i-- {
		if contact == "" || bs[i].contact == contact {
			d.removeLocked(s, bs[i])
		}
	}
}

// removeLocked takes b out of the expiry heap and its user's list.
func (d *Directory) removeLocked(s *shard, b *binding) {
	if b.idx >= 0 {
		heap.Remove(&s.heap, b.idx)
	}
	bs := s.bindings[b.user]
	i := slices.Index(bs, b)
	bs = slices.Delete(bs, i, i+1)
	if len(bs) == 0 {
		delete(s.bindings, b.user)
	} else {
		s.bindings[b.user] = bs
	}
	d.live.Add(-1)
}

// Contact resolves a username to its most recently registered,
// unexpired contact.
func (d *Directory) Contact(username string, now time.Duration) (string, bool) {
	s := d.shardFor(username)
	s.mu.Lock()
	defer s.mu.Unlock()
	bs := s.bindings[username]
	for i := len(bs) - 1; i >= 0; i-- {
		if bs[i].expiresAt > now {
			return bs[i].contact, true
		}
	}
	return "", false
}

// Contacts returns every unexpired contact of username, oldest
// registration first.
func (d *Directory) Contacts(username string, now time.Duration) []string {
	s := d.shardFor(username)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, b := range s.bindings[username] {
		if b.expiresAt > now {
			out = append(out, b.contact)
		}
	}
	return out
}

// Unregister removes every binding of username.
func (d *Directory) Unregister(username string) {
	s := d.shardFor(username)
	s.mu.Lock()
	d.removeContactLocked(s, username, "")
	s.mu.Unlock()
}

// UnregisterAll clears all of a user's contacts — the "Contact: *"
// with "Expires: 0" wildcard from RFC 3261 §10.2.2.
func (d *Directory) UnregisterAll(username string) error {
	s := d.shardFor(username)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[username]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchUser, username)
	}
	d.removeContactLocked(s, username, "")
	return nil
}

// Users returns the number of provisioned accounts.
func (d *Directory) Users() int {
	n := 0
	for _, s := range d.shards {
		s.mu.Lock()
		n += len(s.users)
		s.mu.Unlock()
	}
	return n
}

// Registered returns the number of users with at least one live
// binding at time now.
func (d *Directory) Registered(now time.Duration) int {
	n := 0
	for _, s := range d.shards {
		s.mu.Lock()
		for _, bs := range s.bindings {
			for _, b := range bs {
				if b.expiresAt > now {
					n++
					break
				}
			}
		}
		s.mu.Unlock()
	}
	return n
}

// LiveBindings returns the number of stored contact bindings. With the
// expiry wheel running (StartExpiry) this tracks live bindings exactly;
// without it, bindings past their deadline still count until removed.
func (d *Directory) LiveBindings() int64 { return d.live.Load() }

// StartExpiry attaches a clock and switches binding expiry from lazy
// read-side checks to event-driven removal: each shard arms one timer
// for its earliest deadline. In the sim this is the scheduler's timing
// wheel; in pbxd it is the wall clock.
func (d *Directory) StartExpiry(clock transport.Clock) {
	d.clock.Store(&clockBox{c: clock})
	now := clock.Now()
	for _, s := range d.shards {
		s.mu.Lock()
		// Catch up deadlines registered before the clock attached (or
		// before a restarted server attached its own).
		for _, bs := range s.bindings {
			for _, b := range bs {
				if b.idx < 0 {
					heap.Push(&s.heap, b)
				}
			}
		}
		d.armLocked(s, now)
		s.mu.Unlock()
	}
}

// armLocked makes sure the shard timer fires at the heap head. Called
// with s.mu held.
func (d *Directory) armLocked(s *shard, now time.Duration) {
	clock := d.expiryClock()
	if clock == nil || len(s.heap) == 0 {
		return
	}
	head := s.heap[0].expiresAt
	if s.armedAt >= 0 && s.armedAt <= head {
		return // pending timer already fires early enough
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.armedAt = head
	delay := head - now
	if delay < 0 {
		delay = 0
	}
	s.timer = clock.AfterFunc(delay, func() { d.expire(s, clock) })
}

// expire removes every binding on one shard whose deadline has passed.
// A refreshed binding sits in the heap at its new deadline only, so
// everything popped is due.
func (d *Directory) expire(s *shard, clock transport.Clock) {
	now := clock.Now()
	s.mu.Lock()
	for len(s.heap) > 0 && s.heap[0].expiresAt <= now {
		d.removeLocked(s, s.heap[0])
	}
	s.armedAt = -1
	s.timer = nil
	d.armLocked(s, now)
	s.mu.Unlock()
}

// expiryHeap is a min-heap of bindings on their deadlines, for
// container/heap; each binding keeps its own index so a refresh or a
// removal finds it without a search.
type expiryHeap []*binding

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expiresAt < h[j].expiresAt }

func (h expiryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *expiryHeap) Push(x any) {
	b := x.(*binding)
	b.idx = len(*h)
	*h = append(*h, b)
}

func (h *expiryHeap) Pop() any {
	old := *h
	b := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	b.idx = -1
	return b
}
