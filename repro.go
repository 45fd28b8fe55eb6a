// Package repro is the public façade of the Asterisk PBX capacity
// evaluation reproduction (Costa, Nunes, Bordim, Nakano — IPDPSW 2015).
//
// It exposes the two instruments the paper pairs:
//
//   - the Erlang-B analytical model (Traffic, ErlangB, ChannelsFor,
//     AdmissibleTraffic) for dimensioning a PBX on paper, and
//   - the empirical method (Experiment, Run, RunReplications, Sweep):
//     a complete simulated testbed — SIP stack, Asterisk-style B2BUA
//     with a channel pool and CPU model, SIPp-style load generator,
//     RTP media with E-model MOS scoring, and Table I's message
//     counts read off the senders' books — that measures blocking probability and voice quality under an
//     offered load, reproducing Table I and Figures 3, 6 and 7.
//
// Quick start:
//
//	// How many channels for 3000 busy-hour calls of 3 minutes at
//	// 1.8% blocking? (The paper's sizing check: 165.)
//	n, _ := repro.ChannelsFor(repro.Traffic(3000, 3), 0.018)
//
//	// Measure a 240-Erlang load against a 165-channel PBX.
//	res := repro.Run(repro.Experiment{Workload: 240, Capacity: 165})
//	fmt.Println(res.BlockingProbability(), res.MOS.Mean())
package repro

import (
	"time"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/sipp"
)

// Experiment configures one empirical run; see core.ExperimentConfig
// for field documentation. The zero value plus a Workload reproduces
// the paper's settings (h = 120 s, 180 s window, 1 ms LAN).
type Experiment = core.ExperimentConfig

// Result is the outcome of one empirical run.
type Result = core.ExperimentResult

// Replications aggregates repeated runs of one configuration.
type Replications = core.Replications

// Media modes for Experiment.Media.
const (
	// MediaFlow runs signalling through the PBX and evaluates voice
	// quality with the closed-form flow model (fast; default).
	MediaFlow = sipp.MediaNone
	// MediaPacketized simulates every 20 ms RTP frame end to end
	// through the PBX relay (the paper-faithful mode).
	MediaPacketized = sipp.MediaPacketized
)

// Arrival processes for Experiment.Arrivals.
const (
	ArrivalPoisson = sipp.ArrivalPoisson
	ArrivalUniform = sipp.ArrivalUniform
)

// Hold-time distributions for Experiment.HoldDist.
const (
	HoldFixed       = sipp.HoldFixed
	HoldExponential = sipp.HoldExponential
)

// DefaultCapacity is the concurrent-call capacity the paper measured
// for its Asterisk host (~165 calls).
const DefaultCapacity = 165

// Run executes one experiment (one Table I cell).
func Run(cfg Experiment) Result { return core.Run(cfg) }

// RunReplications executes n seeds of cfg across a worker pool
// (workers <= 0 selects GOMAXPROCS) and aggregates them.
func RunReplications(cfg Experiment, n, workers int) Replications {
	return core.RunReplications(cfg, n, workers)
}

// Sweep runs replications for each workload (in Erlangs), in parallel
// across sweep points.
func Sweep(base Experiment, workloads []float64, reps, workers int) []Replications {
	return core.Sweep(base, workloads, reps, workers)
}

// Erlangs is a traffic intensity (one busy channel for one hour).
type Erlangs = erlang.Erlangs

// Traffic converts busy-hour call volume to Erlangs (paper Eq. 1):
// A = callsPerHour × durationMinutes / 60.
func Traffic(callsPerHour, durationMinutes float64) Erlangs {
	return erlang.Traffic(callsPerHour, durationMinutes)
}

// ErlangB returns the blocking probability of offered load a on n
// channels (paper Eq. 2).
func ErlangB(a Erlangs, n int) float64 { return erlang.B(a, n) }

// ErlangC returns the probability an arrival waits in an n-channel
// queueing (rather than loss) system.
func ErlangC(a Erlangs, n int) float64 { return erlang.C(a, n) }

// ChannelsFor returns the minimum channels so blocking <= targetPb.
func ChannelsFor(a Erlangs, targetPb float64) (int, error) {
	return erlang.ChannelsFor(a, targetPb)
}

// AdmissibleTraffic returns the largest offered load an n-channel
// server carries at blocking <= targetPb.
func AdmissibleTraffic(n int, targetPb float64) (Erlangs, error) {
	return erlang.TrafficFor(n, targetPb)
}

// BusyHour describes a busy-hour workload in the paper's units.
type BusyHour = erlang.Load

// PaperHold and PaperWindow are the empirical method's constants
// (Sec. III-C).
const (
	PaperHold   = 120 * time.Second
	PaperWindow = 180 * time.Second
)
