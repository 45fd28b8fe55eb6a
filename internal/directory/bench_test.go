package directory

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sip"
	"repro/internal/transport"
)

// BenchmarkRegistrarRegister measures the register/refresh hot path
// across shard counts: after the first lap every operation is a
// refresh (same user+contact), which is the steady-state storm the
// million-endpoint registrar sustains. The parallel variant is where
// shard count matters — per-shard locks turn the REUSEPORT listener
// fan-in into independent lock domains. The expiry heap runs on the
// wall clock, as it does in pbxd.
func BenchmarkRegistrarRegister(b *testing.B) {
	const users = 4096
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := NewSharded(shards)
			names := make([]string, users)
			for i := range names {
				names[i] = fmt.Sprintf("u%d", i)
				if err := d.AddUser(User{Username: names[i], Password: "pw"}); err != nil {
					b.Fatal(err)
				}
			}
			d.StartExpiry(transport.NewRealClock())
			contact := "10.0.0.1:5060"
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					u := names[i&(users-1)]
					if err := d.Register(u, contact, time.Duration(i), time.Hour); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkNonceCacheHit is the auth fast path: a REGISTER whose
// preemptive Authorization answers a cached nonce. The verdict is a
// pure MD5 check against the stored HA1 — it must stay at zero
// allocations per op, or a refresh storm turns into GC pressure.
func BenchmarkNonceCacheHit(b *testing.B) {
	hit := nonceCacheHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit(i)
	}
}

// nonceCacheHit returns the i-th verification of a cached nonce.
func nonceCacheHit(tb testing.TB) func(i int) {
	c := NewNonceCache(16, 0, 0)
	ha1 := sip.DigestHA1("alice", "pbx", "secret")
	const uri = "sip:pbx:5060"
	nonces := make([]string, 64)
	responses := make([]string, 64)
	for i := range nonces {
		nonces[i] = fmt.Sprintf("n%d-%d", i, i*7919)
		c.Issue(nonces[i], "alice", ha1, 0)
		ch := sip.DigestChallenge{Realm: "pbx", Nonce: nonces[i]}
		responses[i] = ch.Answer("alice", "secret", sip.REGISTER, uri).Response
	}
	return func(i int) {
		k := i & 63
		if v := c.Verify(nonces[k], "alice", sip.REGISTER, uri, responses[k], 0); v != NonceHit {
			tb.Fatalf("verdict %v, want hit", v)
		}
	}
}

// TestRegistrarAllocs pins the two operations a refresh storm is made
// of — the binding refresh in the store, expiry heap included, and the
// preemptive digest check against a cached nonce — at no allocation,
// or the storm turns into collector pressure.
func TestRegistrarAllocs(t *testing.T) {
	const users = 4096
	d := NewSharded(16)
	names := d.Provision("u", 0, users)
	d.StartExpiry(&fakeClock{})
	for _, u := range names { // first lap: every later Register is a refresh
		if err := d.Register(u, "10.0.0.1:5060", 0, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	hit := nonceCacheHit(t)
	i := 0
	for name, op := range map[string]func(){
		"Directory.Register refresh": func() {
			if err := d.Register(names[i&(users-1)], "10.0.0.1:5060", time.Duration(i), time.Hour); err != nil {
				t.Fatal(err)
			}
			i++
		},
		"NonceCache hit": func() { hit(i); i++ },
	} {
		if n := testing.AllocsPerRun(10000, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
