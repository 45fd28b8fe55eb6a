// Command sipload is the SIPp stand-in for real-UDP runs: flags around
// internal/sipp, the simulated experiments' generator, on the wall
// clock and UDP sockets. It registers a caller (uac) and an
// auto-answering callee (uas) against a pbxd server, places calls at a
// Poisson rate for a window, holds each for the configured duration,
// and prints the blocking rate — the paper's empirical method (Fig. 5)
// on real sockets. With -media each established call also runs G.711
// RTP both ways through the PBX relay, so the run reports packet rates
// and MOS alongside Pb; -json makes the summary machine-readable.
//
//	pbxd -addr 127.0.0.1:5060 &
//	sipload -proxy 127.0.0.1:5060 -rate 2 -window 30s -hold 10s -media -json
//
// With -register it becomes a registration-storm generator instead: N
// endpoints (u0..uN-1) register through one socket over a ramp, refresh
// at 80% of the granted lifetime for the window, and with -avalanche
// re-REGISTER all at once at its end — restart pbxd first to reproduce
// the cold-start wave:
//
//	sipload -register -endpoints 500 -expires 30s -window 60s -avalanche
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/media"
	"repro/internal/sipp"
	"repro/internal/transport"
)

// summary is the machine-readable run result (-json).
type summary struct {
	Attempts    int     `json:"attempts"`
	Established int     `json:"established"`
	Blocked     int     `json:"blocked"`
	Failed      int     `json:"failed"`
	Throttled   int     `json:"throttled"`
	Retries     int     `json:"retries"`
	Pb          float64 `json:"pb"`
	Seed        uint64  `json:"seed"`
	Rate        float64 `json:"rate"`
	WindowS     float64 `json:"window_s"`
	HoldS       float64 `json:"hold_s"`
	ElapsedS    float64 `json:"elapsed_s"`
	// LateP99Ms is how long after its due time the generator placed an
	// arrival, 99th percentile; a run whose generator ran late is void.
	LateP99Ms   float64 `json:"late_p99_ms"`
	Media       bool    `json:"media"`
	MediaLegs   int     `json:"media_legs,omitempty"`
	RTPSent     uint64  `json:"rtp_sent,omitempty"`
	RTPReceived uint64  `json:"rtp_received,omitempty"`
	// PPS is the endpoint-side RTP packet rate (sent+received across
	// both legs) over the whole run — every received packet crossed
	// the PBX relay once.
	PPS    float64 `json:"pps,omitempty"`
	MOSAvg float64 `json:"mos_avg,omitempty"`
	MOSMin float64 `json:"mos_min,omitempty"`
	// Measured per-stream sensor outputs, aggregated across legs:
	// RFC 3550 interarrival jitter, effective loss (network + late
	// discards, packet-weighted), and RTCP-derived round trips (zero
	// unless -rtcp is enabled and reports made it back).
	JitterAvgMs  float64 `json:"jitter_avg_ms,omitempty"`
	JitterMaxMs  float64 `json:"jitter_max_ms,omitempty"`
	LossRatio    float64 `json:"loss_ratio,omitempty"`
	RTTAvgMs     float64 `json:"rtt_avg_ms,omitempty"`
	RTTMaxMs     float64 `json:"rtt_max_ms,omitempty"`
	RTCPSent     uint64  `json:"rtcp_sent,omitempty"`
	RTCPReceived uint64  `json:"rtcp_received,omitempty"`
}

// registerSummary is the machine-readable result of a -register run.
type registerSummary struct {
	Endpoints    int     `json:"endpoints"`
	Registered   int     `json:"registered"`
	Failed       int     `json:"failed"`
	Retries      int     `json:"retries"`
	Registers    int     `json:"registers"` // total 200 OKs incl. refreshes
	StaleRetries int     `json:"stale_retries"`
	PerSec       float64 `json:"reg_per_sec"`
	WindowS      float64 `json:"window_s"`
	ExpiresS     float64 `json:"expires_s"`
	Avalanche    bool    `json:"avalanche"`
	DrainS       float64 `json:"drain_s,omitempty"`
	Seed         uint64  `json:"seed"`
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// addMedia folds every media leg the records carry into the summary.
func (s *summary) addMedia(records []sipp.CallRecord, elapsed time.Duration) {
	var jitter, rtt time.Duration
	var mosSum float64
	var lost, expected, rtts uint64
	leg := func(r media.Report) {
		if r.Sent == 0 && r.Stream.Received == 0 {
			return // no session on this leg
		}
		s.MediaLegs++
		s.RTPSent += r.Sent
		s.RTPReceived += r.Stream.Received
		mosSum += r.MOS
		if s.MediaLegs == 1 || r.MOS < s.MOSMin {
			s.MOSMin = r.MOS
		}
		jitter += r.Stream.Jitter
		s.JitterMaxMs = max(s.JitterMaxMs, ms(r.Stream.Jitter))
		if r.Stream.Expected > 0 {
			lost += uint64(r.Stream.Lost) + r.Late
			expected += uint64(r.Stream.Expected)
		}
		if r.RTT > 0 {
			rtt += r.RTT
			rtts++
			s.RTTMaxMs = max(s.RTTMaxMs, ms(r.RTT))
		}
		s.RTCPSent += r.RTCPSent
		s.RTCPReceived += r.RTCPReceived
	}
	for _, rec := range records {
		leg(rec.CallerMedia)
		leg(rec.CalleeMedia)
	}
	s.PPS = float64(s.RTPSent+s.RTPReceived) / elapsed.Seconds()
	if s.MediaLegs > 0 {
		s.MOSAvg = mosSum / float64(s.MediaLegs)
		s.JitterAvgMs = ms(jitter) / float64(s.MediaLegs)
	}
	if expected > 0 {
		s.LossRatio = float64(lost) / float64(expected)
	}
	if rtts > 0 {
		s.RTTAvgMs = ms(rtt) / float64(rtts)
	}
}

var (
	proxy     = flag.String("proxy", "127.0.0.1:5060", "PBX address")
	caller    = flag.String("caller-addr", "127.0.0.1:0", "caller UDP bind address (the one socket of -register)")
	callee    = flag.String("callee-addr", "127.0.0.1:0", "callee UDP bind address")
	rate      = flag.Float64("rate", 1, "call arrival rate (calls/second)")
	window    = flag.Duration("window", 30*time.Second, "call placement window (-register: the storm after the ramp)")
	hold      = flag.Duration("hold", 10*time.Second, "call hold time")
	target    = flag.String("target", "uas", "extension to dial")
	retries   = flag.Int("retries", 0, "max re-attempts after a 503/486 rejection; with -register, after a 503 or timeout, where 0 means the generator's default of 8")
	retryBase = flag.Duration("retry-base", 500*time.Millisecond, "base for full-jitter retry backoff")
	seed      = flag.Uint64("seed", 0, "RNG seed for arrivals and backoff jitter (0 = from wall clock)")
	withMedia = flag.Bool("media", false, "run bidirectional G.711 RTP on every established call")
	rtcp      = flag.Duration("rtcp", 2*time.Second, "RTCP sender-report interval on media legs, for RTT and loss feedback (0 = disabled)")
	mediaPort = flag.Int("media-port", 41000, "uac RTP port base (uas uses +8192); 2 ports per concurrent call")
	jsonOut   = flag.Bool("json", false, "print a JSON summary to stdout (progress goes to stderr)")
	register  = flag.Bool("register", false, "registration-storm mode: N endpoints register and refresh instead of placing calls")
	endpoints = flag.Int("endpoints", 100, "endpoint population for -register (pbxd must provision at least this many -users)")
	expires   = flag.Duration("expires", 60*time.Second, "binding lifetime requested by -register endpoints")
	regRamp   = flag.Duration("register-ramp", 2*time.Second, "spread of the initial REGISTERs in -register mode")
	avalanche = flag.Bool("avalanche", false, "as the window closes, re-REGISTER the whole population at once and report drain time")
)

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"sipload:"}, args...)...)
	os.Exit(1)
}

// info prints progress: to stderr when stdout carries the JSON summary.
func info(format string, args ...any) {
	w := os.Stdout
	if *jsonOut {
		w = os.Stderr
	}
	fmt.Fprintf(w, format, args...)
}

// listen is the generator's substrate: one UDP socket per address. A
// phone's SIP dialogue and a 50 pps stream gain nothing from syscall
// batching, so they run the portable loop and its small buffers — the
// batched data plane under test is the server's.
func listen(addr string) (transport.Transport, error) {
	return transport.ListenUDPConfig(addr, transport.UDPConfig{DisableBatch: true})
}

func main() {
	flag.Parse()
	if *seed == 0 {
		*seed = uint64(time.Now().UnixNano())
	}
	clock := transport.NewRealClock()
	var s any
	if *register {
		s = runRegister(clock)
	} else {
		s = runCalls(clock)
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
	}
}

func runCalls(clock transport.Clock) summary {
	cfg := sipp.Config{
		Rate: *rate, Window: *window, Hold: *hold, Target: *target,
		RetryMax: *retries, RetryBase: *retryBase, Seed: *seed,
	}
	if *withMedia {
		cfg.Media, cfg.RTCPInterval = sipp.MediaPacketized, *rtcp
	}
	gen, err := sipp.New(clock, listen, sipp.Bind{Addr: *caller, MediaPort: *mediaPort},
		sipp.Bind{Addr: *callee, MediaPort: *mediaPort + 8192}, *proxy, cfg)
	if err != nil {
		fatal(err)
	}
	info("sipload: uac and %s at %s; λ=%.2f/s window=%v hold=%v (A=%.1f E)\n",
		*target, *proxy, *rate, *window, *hold, *rate*hold.Seconds())
	done := make(chan error, 1)
	start := time.Now()
	gen.Start(func(_ sipp.Results, err error) { done <- err })
	err = <-done
	elapsed := time.Since(start)
	if errors.Is(err, sipp.ErrNotRegistered) {
		fatal("registration failed (is pbxd running?)")
	} else if err != nil {
		fatal(err)
	}
	res := gen.Results()
	if *withMedia {
		var settled bool
		if res, settled = gen.SettledResults(2 * time.Second); !settled {
			info("sipload: an established call is missing a leg's media report\n")
		}
	}
	s := summary{
		Attempts: res.Attempts, Established: res.Established, Blocked: res.Blocked,
		Failed: res.Failed + res.Abandoned, Throttled: res.Throttled, Retries: res.Retries,
		Pb: res.BlockingProbability, Seed: *seed, Rate: *rate, WindowS: window.Seconds(),
		HoldS: hold.Seconds(), ElapsedS: elapsed.Seconds(), LateP99Ms: ms(res.LateP99), Media: *withMedia,
	}
	if *withMedia {
		s.addMedia(res.Records, elapsed)
	}
	if !*jsonOut {
		fmt.Printf("sipload: attempts=%d established=%d blocked=%d failed=%d throttled=%d retries=%d Pb=%.2f%% late_p99=%.1fms\n",
			s.Attempts, s.Established, s.Blocked, s.Failed, s.Throttled, s.Retries, s.Pb*100, s.LateP99Ms)
		if *withMedia {
			fmt.Printf("sipload: media legs=%d rtp_sent=%d rtp_received=%d pps=%.0f mos_avg=%.2f mos_min=%.2f\n",
				s.MediaLegs, s.RTPSent, s.RTPReceived, s.PPS, s.MOSAvg, s.MOSMin)
			fmt.Printf("sipload: measured jitter_avg=%.2fms jitter_max=%.2fms loss=%.4f rtt_avg=%.1fms rtt_max=%.1fms rtcp=%d/%d\n",
				s.JitterAvgMs, s.JitterMaxMs, s.LossRatio, s.RTTAvgMs, s.RTTMaxMs, s.RTCPReceived, s.RTCPSent)
		}
	}
	return s
}

// runRegister is the simulator's registration storm, N logical endpoints
// through one socket. Against a freshly restarted pbxd -avalanche is the
// cold-restart wave: the restart emptied the nonce cache, so every
// endpoint eats a stale=true re-challenge on top of the thundering herd.
func runRegister(clock transport.Clock) registerSummary {
	gen, err := sipp.NewRegister(clock, listen, *caller, *proxy, sipp.RegisterConfig{
		Endpoints: *endpoints, Expires: *expires, Ramp: *regRamp, Window: *window,
		RetryMax: *retries, RetryBase: *retryBase, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	info("sipload: %d endpoints at %s; ramp=%v window=%v expires=%v\n", *endpoints, *proxy, *regRamp, *window, *expires)
	done := make(chan sipp.RegisterResults, 1)
	start := time.Now()
	gen.Start(func(res sipp.RegisterResults) { done <- res })
	if *avalanche {
		// Just inside the window, so that the generator holds the run
		// open until the wave has drained.
		clock.AfterFunc(*regRamp+*window-100*time.Millisecond, func() {
			info("sipload: avalanche: re-registering all %d endpoints at once\n", *endpoints)
			gen.Avalanche(0)
		})
	}
	res := <-done
	if res.Registers == 0 {
		fatal("no endpoint registered (is pbxd running with enough -users?)")
	}
	s := registerSummary{
		Endpoints: res.Endpoints, Registered: res.Initial, Failed: res.Failed,
		Retries: res.Retries, Registers: res.Registers, StaleRetries: res.StaleRetries,
		PerSec: float64(res.Registers) / time.Since(start).Seconds(), WindowS: window.Seconds(),
		ExpiresS: expires.Seconds(), Avalanche: *avalanche, DrainS: res.DrainTime.Seconds(), Seed: *seed,
	}
	if !*jsonOut {
		fmt.Printf("sipload: registers=%d (initial %d, failed %d, retries %d, stale %d) rate=%.0f/s",
			s.Registers, s.Registered, s.Failed, s.Retries, s.StaleRetries, s.PerSec)
		if *avalanche {
			fmt.Printf(" drain=%.3fs", s.DrainS)
		}
		fmt.Println()
	}
	return s
}
