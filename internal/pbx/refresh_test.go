package pbx_test

import (
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/sipp"
	"repro/internal/stats"
)

// An endpoint with a short binding that refreshes it stays resolvable
// well past the original TTL, and lapses once the refreshing stops. The
// refresh loop is the registration generator's, with a population of
// one (an external test: rig imports pbx).
func TestRegistrationRefreshKeepsBindingAlive(t *testing.T) {
	r := rig.NewSim(1, 0, nil, stats.NewRNG(31), netsim.LinkProfile{Delay: time.Millisecond})
	dir := directory.New()
	if err := rig.AddUsers(dir, "u0"); err != nil {
		t.Fatal(err)
	}
	server := r.PBX("pbx", dir, pbx.Config{})
	gen := r.RegisterGenerator("phone", server.Addr(), sipp.RegisterConfig{
		Endpoints: 1, Expires: 30 * time.Second, Ramp: time.Second, Window: 5 * time.Minute, Seed: 1,
	})
	var res *sipp.RegisterResults
	gen.Start(func(got sipp.RegisterResults) { res = &got })
	if err := r.RunUntil(func() bool { return res != nil }, time.Second); err != nil {
		t.Fatal(err)
	}

	if res.Registers < 8 {
		t.Errorf("registers = %d over 5 min with 30s TTL, want >= 8", res.Registers)
	}
	if _, ok := dir.Contact("u0", r.Group.Now()); !ok {
		t.Error("binding expired despite refresh loop")
	}
	// The window is over: nothing refreshes the binding any more.
	if err := r.Group.Run(r.Group.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok := dir.Contact("u0", r.Group.Now()); ok {
		t.Error("binding alive 2 min after the last refresh")
	}
}
