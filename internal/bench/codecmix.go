package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/pbx"
	"repro/internal/sipp"
)

// CodecMixOptions tunes the mixed-codec capacity study.
type CodecMixOptions struct {
	// Workload is the offered load A in Erlangs (default 240, the
	// paper's saturating point).
	Workload float64
	// Capacity is the hard channel plateau of the paper's host
	// (default 165). Calls must clear it and the CPU budget.
	Capacity int
	// CPUThreshold is the admission limit (default 50, calibrated so
	// a pure G.711 workload is channel-bound at the plateau while
	// transcoding mixes become CPU-bound below it).
	CPUThreshold float64
	Workers      int
	Seed         uint64
}

func (o CodecMixOptions) withDefaults() CodecMixOptions {
	if o.Workload == 0 {
		o.Workload = 240
	}
	if o.Capacity == 0 {
		o.Capacity = 165
	}
	if o.CPUThreshold == 0 {
		o.CPUThreshold = 50
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// CodecMixRow is one workload mix of the mixed-codec capacity table.
type CodecMixRow struct {
	Name string
	Mix  []sipp.CodecShare
	// Baseline marks the seed configuration: a G.711-only PBX with a
	// 100% G.711 workload, bit-identical to the plain (no CodecMix)
	// run. Non-baseline rows enable the full codec registry on the
	// PBX, so non-G.711 callers transcode to the G.711 answering bank.
	Baseline bool
	Result   core.ExperimentResult
}

// CodecMixTable measures capacity under mixed codec workloads: every
// row offers the same load against the same host — 165-channel
// plateau plus CPU budget; only the codec mix, and therefore the
// per-call transcoding surcharge, varies. The G.711 row is
// channel-bound and reproduces the seed ≈165-call capacity; the
// G.729 rows become CPU-bound below the plateau, the capacity cliff
// the transcode cost matrix predicts (0.3%/call surcharge on top of
// the 0.2%/call relay cost).
func CodecMixTable(opts CodecMixOptions) []CodecMixRow {
	opts = opts.withDefaults()
	g711 := sipp.CodecShare{Name: "g711", Payloads: codec.DefaultPreference(), Share: 1}
	g729 := sipp.CodecShare{Name: "g729", Payloads: []int{18}, Share: 1}
	share := func(s sipp.CodecShare, w float64) sipp.CodecShare {
		s.Share = w
		return s
	}
	rows := []CodecMixRow{
		{Name: "G.711 100%", Mix: []sipp.CodecShare{g711}, Baseline: true},
		{Name: "G.711/G.729 75/25", Mix: []sipp.CodecShare{share(g711, 0.75), share(g729, 0.25)}},
		{Name: "G.711/G.729 50/50", Mix: []sipp.CodecShare{share(g711, 0.5), share(g729, 0.5)}},
		{Name: "G.729 100%", Mix: []sipp.CodecShare{g729}},
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Workers)
	for i := range rows {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := core.ExperimentConfig{
				Workload:  erlang.Erlangs(opts.Workload),
				Capacity:  opts.Capacity,
				Admission: pbx.Admission{CPUPercent: opts.CPUThreshold},
				Media:     sipp.MediaPacketized,
				CodecMix:  rows[i].Mix,
				Seed:      opts.Seed,
			}
			if !rows[i].Baseline {
				cfg.PBXCodecs = codec.AllPayloadTypes()
				cfg.CalleeCodecs = []int{0, 8}
			}
			rows[i].Result = core.Run(cfg)
		}(i)
	}
	wg.Wait()
	return rows
}

// WriteCodecMix renders the mixed-codec capacity table.
func WriteCodecMix(w io.Writer, rows []CodecMixRow) {
	if len(rows) == 0 {
		return
	}
	cfg := rows[0].Result.Config
	fmt.Fprintf(w, "Mixed-codec capacity at A=%.0f Erlangs, %d channels, CPU threshold %.0f%% (packetized)\n",
		float64(cfg.Workload), cfg.Capacity, cfg.Admission.CPUPercent)
	fmt.Fprintf(w, "%-20s%12s%12s%12s%8s%14s\n",
		"mix", "peak calls", "blocked %", "CPU mean", "MOS", "transcoded")
	for _, row := range rows {
		r := row.Result
		fmt.Fprintf(w, "%-20s%12d%11.1f%%%11.1f%%%8.2f%14d\n",
			row.Name, r.ChannelsUsed, r.BlockingProbability()*100,
			r.CPUMean, r.MOS.Mean(), r.Server.TranscodedCalls)
	}
}
