package sipp

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/transport"
)

// testbed builds network + PBX + generator, provisioned and ready.
func testbed(t *testing.T, pbxCfg pbx.Config, genCfg Config) (*netsim.Scheduler, *pbx.Server, *Generator) {
	t.Helper()
	return testbedOn(t, func(c transport.Clock) transport.Clock { return c }, pbxCfg, genCfg)
}

// testbedOn is testbed with the generator's timers (not the PBX's) on
// genClock(the virtual clock).
func testbedOn(t *testing.T, genClock func(transport.Clock) transport.Clock, pbxCfg pbx.Config, genCfg Config) (*netsim.Scheduler, *pbx.Server, *Generator) {
	t.Helper()
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched, stats.NewRNG(77))
	net.SetDefaultProfile(netsim.LinkProfile{Delay: time.Millisecond})
	clock := transport.SimClock{Sched: sched}

	dir := directory.New()
	dir.AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	dir.AddUser(directory.User{Username: "uas", Password: "pw-uas"})
	factory := func(port int) (transport.Transport, error) {
		return transport.NewSim(net, fmt.Sprintf("pbx:%d", port)), nil
	}
	server := pbx.New(sip.NewEndpoint(transport.NewSim(net, "pbx:5060"), clock), dir, factory, pbxCfg)
	return sched, server, newGen(t, net, genClock(clock), genCfg)
}

// newGen puts a generator on the simulated network the way internal/rig
// does (which this package cannot import), its timers on clock.
func newGen(t *testing.T, net *netsim.Network, clock transport.Clock, cfg Config) *Generator {
	t.Helper()
	listen := func(addr string) (transport.Transport, error) {
		return transport.NewSim(net, addr), nil
	}
	gen, err := New(clock, listen, Bind{"sippc:5060", 20000}, Bind{"sipps:5060", 30000}, "pbx:5060", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func runToCompletion(t *testing.T, sched *netsim.Scheduler, gen *Generator) Results {
	t.Helper()
	var out Results
	done := false
	gen.Start(func(r Results, err error) {
		if err != nil {
			t.Error(err)
		}
		out, done = r, true
	})
	for i := 0; i < 50 && !done; i++ {
		sched.Run(sched.Now() + 10*time.Minute)
	}
	if !done {
		t.Fatal("generator did not finish")
	}
	return out
}

func TestPoissonArrivalCount(t *testing.T) {
	// λ = 1/3 call/s over 180 s → ~60 calls (paper's A=40 row).
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:   1.0 / 3,
		Window: 180 * time.Second,
		Hold:   120 * time.Second,
		Seed:   1,
	})
	res := runToCompletion(t, sched, gen)
	if res.Attempts < 40 || res.Attempts > 80 {
		t.Errorf("attempts = %d, want ~60", res.Attempts)
	}
	if res.Blocked != 0 || res.Failed != 0 {
		t.Errorf("unexpected blocked=%d failed=%d", res.Blocked, res.Failed)
	}
	if res.Established != res.Attempts {
		t.Errorf("established=%d != attempts=%d", res.Established, res.Attempts)
	}
	// ~40 concurrent at steady state (A = λh = 40).
	if res.PeakConcurrent < 25 || res.PeakConcurrent > 60 {
		t.Errorf("peak concurrent = %d, want ~40-50", res.PeakConcurrent)
	}
}

func TestUniformArrivalsDeterministicCount(t *testing.T) {
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:     0.5,
		Window:   60 * time.Second,
		Hold:     10 * time.Second,
		Arrivals: ArrivalUniform,
		Seed:     1,
	})
	res := runToCompletion(t, sched, gen)
	// Every 2s within 60s: 30 calls exactly.
	if res.Attempts != 30 {
		t.Errorf("attempts = %d, want 30", res.Attempts)
	}
}

func TestCallDurationFixed(t *testing.T) {
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:   0.2,
		Window: 30 * time.Second,
		Hold:   15 * time.Second,
		Seed:   2,
	})
	res := runToCompletion(t, sched, gen)
	for _, rec := range res.Records {
		if !rec.Established {
			continue
		}
		if rec.Duration < 14*time.Second || rec.Duration > 16*time.Second {
			t.Errorf("call %d duration %v, want ~15s", rec.ID, rec.Duration)
		}
	}
}

func TestExponentialHoldMean(t *testing.T) {
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:     2,
		Window:   120 * time.Second,
		Hold:     20 * time.Second,
		HoldDist: HoldExponential,
		Seed:     3,
	})
	res := runToCompletion(t, sched, gen)
	var s stats.Summary
	for _, rec := range res.Records {
		if rec.Established {
			s.Add(rec.Duration.Seconds())
		}
	}
	if s.N() < 100 {
		t.Fatalf("too few calls: %d", s.N())
	}
	if math.Abs(s.Mean()-20) > 4 {
		t.Errorf("mean hold = %vs, want ~20s", s.Mean())
	}
	if s.Stddev() < 10 {
		t.Errorf("hold stddev = %v; exponential expected ~mean", s.Stddev())
	}
}

func TestBlockingRecorded(t *testing.T) {
	sched, server, gen := testbed(t, pbx.Config{MaxChannels: 5}, Config{
		Rate:   2,
		Window: 60 * time.Second,
		Hold:   30 * time.Second,
		Seed:   4,
	})
	res := runToCompletion(t, sched, gen)
	if res.Blocked == 0 {
		t.Fatal("no blocking with a 5-channel cap under ~60 Erlangs")
	}
	if res.BlockingProbability <= 0.5 {
		t.Errorf("blocking probability = %v, want high", res.BlockingProbability)
	}
	for _, rec := range res.Records {
		if rec.Blocked && rec.Status != sip.StatusServiceUnavailable {
			t.Errorf("blocked call %d status %d", rec.ID, rec.Status)
		}
	}
	c := server.CountersSnapshot()
	if int(c.Blocked) != res.Blocked {
		t.Errorf("server blocked %d vs generator %d", c.Blocked, res.Blocked)
	}
	if res.Attempts != res.Established+res.Blocked+res.Failed {
		t.Errorf("accounting: %d != %d+%d+%d", res.Attempts, res.Established, res.Blocked, res.Failed)
	}
}

func TestWarmupExcludedFromAggregates(t *testing.T) {
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:     1,
		Window:   60 * time.Second,
		Warmup:   30 * time.Second,
		Hold:     5 * time.Second,
		Arrivals: ArrivalUniform,
		Seed:     5,
	})
	res := runToCompletion(t, sched, gen)
	// 60 placed, first ~30 in warmup.
	if len(res.Records) != 60 {
		t.Fatalf("records = %d, want 60 (all calls recorded)", len(res.Records))
	}
	if res.Attempts < 28 || res.Attempts > 32 {
		t.Errorf("counted attempts = %d, want ~30 (warmup excluded)", res.Attempts)
	}
}

func TestPacketizedMediaReports(t *testing.T) {
	sched, server, gen := testbed(t,
		pbx.Config{RelayRTP: true},
		Config{
			Rate:   0.2,
			Window: 20 * time.Second,
			Hold:   30 * time.Second,
			Media:  MediaPacketized,
			Seed:   6,
		})
	res := runToCompletion(t, sched, gen)
	if res.Established == 0 {
		t.Fatal("no calls established")
	}
	if res.MOS.N() != res.Established {
		t.Errorf("MOS scored %d of %d calls", res.MOS.N(), res.Established)
	}
	if res.MOS.Mean() < 4.2 {
		t.Errorf("clean-path MOS = %v", res.MOS.Mean())
	}
	// 30s call at 50pps ≈ 1500 packets per direction per call.
	wantMin := uint64(res.Established) * 1400
	if res.RTPSent < wantMin {
		t.Errorf("RTP sent = %d, want >= %d", res.RTPSent, wantMin)
	}
	for _, rec := range res.Records {
		if !rec.Established {
			continue
		}
		if rec.CallerMedia.Sent == 0 || rec.CalleeMedia.Sent == 0 {
			t.Errorf("call %d missing media reports: caller=%d callee=%d",
				rec.ID, rec.CallerMedia.Sent, rec.CalleeMedia.Sent)
		}
		if rec.MOS < 4.0 {
			t.Errorf("call %d MOS = %v", rec.ID, rec.MOS)
		}
	}
	if c := server.CountersSnapshot(); c.RelayedPackets == 0 {
		t.Error("PBX relayed nothing in packetized mode")
	}
}

func TestSetupTimeRecorded(t *testing.T) {
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:   0.5,
		Window: 20 * time.Second,
		Hold:   5 * time.Second,
		Seed:   7,
	})
	res := runToCompletion(t, sched, gen)
	if res.SetupTime.N() == 0 {
		t.Fatal("no setup times recorded")
	}
	// 4 link traversals (INVITE in/out, 200 in/out) at 1 ms ≈ 4-8 ms.
	if res.SetupTime.Mean() < 2 || res.SetupTime.Mean() > 20 {
		t.Errorf("mean setup = %v ms", res.SetupTime.Mean())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Results {
		sched, _, gen := testbed(t, pbx.Config{MaxChannels: 20}, Config{
			Rate:   1,
			Window: 60 * time.Second,
			Hold:   30 * time.Second,
			Seed:   42,
		})
		return runToCompletion(t, sched, gen)
	}
	a, b := run(), run()
	if a.Attempts != b.Attempts || a.Blocked != b.Blocked || a.Established != b.Established {
		t.Errorf("replay diverged: %+v vs %+v", a.Attempts, b.Attempts)
	}
}

func TestAbandonmentWithPatience(t *testing.T) {
	// Callee rings 15 s; callers give up at 5 s: every call abandons.
	sched, server, gen := testbed(t, pbx.Config{}, Config{
		Rate:        0.5,
		Window:      20 * time.Second,
		Hold:        10 * time.Second,
		Patience:    5 * time.Second,
		AnswerDelay: 15 * time.Second,
		Seed:        8,
	})
	res := runToCompletion(t, sched, gen)
	if res.Attempts == 0 {
		t.Fatal("no attempts")
	}
	if res.Abandoned != res.Attempts {
		t.Errorf("abandoned %d of %d with patience << ring time", res.Abandoned, res.Attempts)
	}
	if res.Established != 0 || res.Blocked != 0 || res.Failed != 0 {
		t.Errorf("misclassified: %+v", res)
	}
	c := server.CountersSnapshot()
	if int(c.Canceled) != res.Abandoned {
		t.Errorf("server canceled %d vs generator %d", c.Canceled, res.Abandoned)
	}
	if server.ActiveChannels() != 0 {
		t.Errorf("channels leaked: %d", server.ActiveChannels())
	}
}

func TestPatienceLongerThanRingIsHarmless(t *testing.T) {
	sched, _, gen := testbed(t, pbx.Config{}, Config{
		Rate:        0.5,
		Window:      20 * time.Second,
		Hold:        10 * time.Second,
		Patience:    10 * time.Second,
		AnswerDelay: 2 * time.Second,
		Seed:        9,
	})
	res := runToCompletion(t, sched, gen)
	if res.Abandoned != 0 {
		t.Errorf("abandoned = %d with patience > ring time", res.Abandoned)
	}
	if res.Established != res.Attempts {
		t.Errorf("established %d of %d", res.Established, res.Attempts)
	}
}

func TestRetryAfterBackoffRecoversBlockedCalls(t *testing.T) {
	// A tiny pool (2 channels) under short calls: without retries many
	// calls block; with backoff retries most find a free channel on a
	// later attempt.
	base := Config{
		Rate:     1,
		Window:   60 * time.Second,
		Hold:     3 * time.Second,
		Arrivals: ArrivalUniform,
		Seed:     5,
	}
	pbxCfg := pbx.Config{
		MaxChannels: 2,
		Admission:   pbx.Admission{ShedAt: 1},
	}

	sched, _, gen := testbed(t, pbxCfg, base)
	baseline := runToCompletion(t, sched, gen)
	if baseline.Blocked == 0 {
		t.Fatalf("baseline saw no blocking (established=%d), test needs an overloaded pool",
			baseline.Established)
	}
	if baseline.Retries != 0 {
		t.Errorf("baseline retried %d times with RetryMax=0", baseline.Retries)
	}

	withRetry := base
	withRetry.RetryMax = 3
	withRetry.RetryBase = 250 * time.Millisecond
	sched2, _, gen2 := testbed(t, pbxCfg, withRetry)
	retried := runToCompletion(t, sched2, gen2)
	if retried.Retries == 0 {
		t.Fatal("no retries recorded despite blocking and RetryMax=3")
	}
	if retried.Established <= baseline.Established {
		t.Errorf("retries did not improve establishment: %d vs baseline %d",
			retried.Established, baseline.Established)
	}
	if retried.Blocked >= baseline.Blocked {
		t.Errorf("blocked with retries = %d, want < baseline %d",
			retried.Blocked, baseline.Blocked)
	}
	// Accounting: every logical call ends in exactly one bucket.
	total := retried.Established + retried.Blocked + retried.Abandoned + retried.Failed
	if total != retried.Attempts {
		t.Errorf("accounting: %d+%d+%d+%d != attempts %d", retried.Established,
			retried.Blocked, retried.Abandoned, retried.Failed, retried.Attempts)
	}
	perCall := 0
	for _, r := range retried.Records {
		perCall += r.Retries
	}
	if perCall < retried.Retries {
		t.Errorf("per-record retries %d < aggregate %d", perCall, retried.Retries)
	}
}

func TestRetryHonorsServerRetryAfterHint(t *testing.T) {
	// With the occupancy controller shedding at a full pool, the 503
	// carries Retry-After >= 1s; with RetryBase far below that, the gap
	// between an attempt and its retry must stretch to the hint.
	cfg := Config{
		Rate:      2,
		Window:    30 * time.Second,
		Hold:      10 * time.Second,
		Arrivals:  ArrivalUniform,
		RetryMax:  1,
		RetryBase: 10 * time.Millisecond,
		Seed:      9,
	}
	sched, server, gen := testbed(t, pbx.Config{
		MaxChannels: 3,
		Admission:   pbx.Admission{ShedAt: 1},
	}, cfg)
	res := runToCompletion(t, sched, gen)
	if res.Retries == 0 {
		t.Fatal("scenario produced no retries")
	}
	// The server's Blocked counter counts every rejected INVITE
	// (attempts + retries); the generator's Blocked counts logical
	// calls. Their difference is the retry traffic.
	srv := server.CountersSnapshot()
	if srv.Blocked == 0 {
		t.Fatal("server blocked nothing")
	}
	if int(srv.Blocked) <= res.Blocked {
		t.Errorf("server blocked %d, generator %d: retries should add rejected INVITEs",
			srv.Blocked, res.Blocked)
	}
}

// lateClock fires every timer by after it is due: a wall clock's
// wake-up latency, on the virtual clock.
type lateClock struct {
	transport.Clock
	by time.Duration
}

func (c lateClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return c.Clock.AfterFunc(d+c.by, fn)
}

// TestLateTimersDoNotThinTheOfferedLoad: arrivals are due at absolute
// times, so a generator whose timers all fire 2 ms late still places
// every arrival the window holds (a chain of relative sleeps places
// about 5/(5+2) of them) and says how late it ran. At 20 ms it falls
// seconds behind, and against one channel — most calls are refused in a
// round trip, so none is outstanding between two placements — it still
// does not finish under an arrival that is overdue.
func TestLateTimersDoNotThinTheOfferedLoad(t *testing.T) {
	cfg := Config{Rate: 200, Window: 5 * time.Second, Seed: 9}
	sched, _, gen := testbed(t, pbx.Config{}, cfg)
	want := runToCompletion(t, sched, gen)
	if want.Attempts < 900 || want.LateP99 != 0 {
		t.Fatalf("on time: %d attempts, late p99 %v; want ~1000 and 0", want.Attempts, want.LateP99)
	}

	for _, tc := range []struct {
		by       time.Duration
		channels int
	}{{2 * time.Millisecond, 0}, {20 * time.Millisecond, 1}} {
		late := func(c transport.Clock) transport.Clock { return lateClock{c, tc.by} }
		sched, _, gen := testbedOn(t, late, pbx.Config{MaxChannels: tc.channels}, cfg)
		got := runToCompletion(t, sched, gen)
		if got.Attempts != want.Attempts || tc.channels == 0 && got.Established != want.Established {
			t.Errorf("timers %v late: %d attempts, %d established; on time %d, %d",
				tc.by, got.Attempts, got.Established, want.Attempts, want.Established)
		}
		if got.LateP99 < tc.by {
			t.Errorf("late p99 = %v with every timer %v late", got.LateP99, tc.by)
		}
		sched.Run(sched.Now() + time.Minute)
		if after := gen.Results(); after.Attempts != got.Attempts {
			t.Errorf("timers %v late: done fired at %d attempts, the run went on to %d", tc.by, got.Attempts, after.Attempts)
		}
	}
}
