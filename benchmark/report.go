package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostFingerprint identifies where numbers were taken. Two result
// files are comparable only if everything here but the commit agrees:
// the same benchmark on another host, kernel or toolchain is another
// experiment.
type hostFingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func fingerprint() hostFingerprint {
	commit := "unknown" // a checkout that is not a git repository has none
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostFingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Kernel: kernelRelease(),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commit,
	}
}

func (h hostFingerprint) String() string {
	return fmt.Sprintf("%d cpus, GOMAXPROCS %d, %s, kernel %s, %s %s, commit %s",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.Kernel, h.GoVersion, h.OSArch, h.Commit)
}

// sameHost reports whether two fingerprints differ in nothing but the
// commit.
func (h hostFingerprint) sameHost(o hostFingerprint) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

// result is the file one all-workloads invocation writes.
type result struct {
	Host     hostFingerprint `json:"host"`
	Note     string          `json:"note"`
	Seed     uint64          `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Traced   bool            `json:"traced"`
	Outcomes []*outcome      `json:"outcomes"`
}

func (r *result) write() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	kind := "e2e"
	if r.Traced {
		kind = "trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d.json", kind, r.Seed))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) resultLine() resultLine {
	defs := endToEnd
	if o.Traced {
		defs = perLayer
	}
	line := resultLine{Correct: o.correct(), Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{o.Metrics[d.name], d.unit}
	}
	return line
}

// printOutcome prints every metric of a run by name with its unit,
// then the verification checks.
func printOutcome(o *outcome) {
	samples := func(name string) string {
		if n, ok := o.Samples[name]; ok {
			return fmt.Sprintf("  (%d samples)", n)
		}
		return ""
	}
	if !o.Traced {
		fmt.Println("  end-to-end (tracing off):")
		for _, d := range endToEnd {
			fmt.Printf("    %-18s %14.6g %-4s%s\n", d.name, o.Metrics[d.name], d.unit, samples(d.name))
		}
		fmt.Println("  layers read from outside on the way (the traced run reports them all):")
		units := map[string]string{}
		for _, d := range perLayer {
			units[d.name] = d.unit
		}
		for _, k := range sortedKeys(o.Layers) {
			fmt.Printf("    %-32s %14.6g %s%s\n", k, o.Layers[k], units[k], samples(k))
		}
	} else {
		fmt.Println("  per-layer (traced run; never an end-to-end figure):")
		for _, d := range perLayer {
			fmt.Printf("    %-32s %14.6g %s%s\n", d.name, o.Metrics[d.name], d.unit, samples(d.name))
		}
	}
	fmt.Printf("  failed_ratio %.6f (%d failed of %d attempted)\n", o.failedRatio(), o.Failed, o.Attempted)
	for _, reason := range o.Invalid {
		fmt.Printf("  INVALID TIMING: %s\n", reason)
	}
	failed := 0
	for _, c := range o.Checks {
		if !c.OK {
			failed++
			fmt.Printf("  CHECK FAILED  %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Printf("  checks: %d passed, %d failed\n", len(o.Checks)-failed, failed)
}

// compareFiles prints b against a, metric by metric, and flags every
// end-to-end metric that worsened by more than its bound. It refuses
// files from different hosts: across hosts the difference is the host.
func compareFiles(pathA, pathB string) int {
	load := func(path string) (*result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if !a.Host.sameHost(b.Host) {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare across host fingerprints:\n  %s: %s\n  %s: %s\n",
			pathA, a.Host, pathB, b.Host)
		return 2
	}
	if a.Traced != b.Traced || a.Seconds != b.Seconds {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to compare runs of different kind or length")
		return 2
	}
	fmt.Printf("compare %s (commit %s) → %s (commit %s) — loopback, not a real link\n",
		pathA, a.Host.Commit, pathB, b.Host.Commit)
	byName := map[string]*outcome{}
	for _, o := range a.Outcomes {
		byName[o.Workload] = o
	}
	defs := endToEnd
	if a.Traced {
		defs = perLayer
	}
	regressed := 0
	for _, ob := range b.Outcomes {
		oa := byName[ob.Workload]
		if oa == nil {
			continue
		}
		fmt.Printf("\n== %s ==\n", ob.Workload)
		for _, d := range defs {
			va, vb := oa.Metrics[d.name], ob.Metrics[d.name]
			change := 0.0
			if va != 0 {
				change = (vb - va) / va
			}
			verdict := ""
			if d.bound > 0 {
				worse := change
				if d.better == "higher" {
					worse = -change
				}
				if worse > d.bound {
					verdict = fmt.Sprintf("  WORSE by more than the %.0f%% bound", d.bound*100)
					regressed++
				}
			}
			fmt.Printf("  %-32s %14.6g → %14.6g %-5s %+7.2f%%%s\n", d.name, va, vb, d.unit, change*100, verdict)
		}
	}
	if regressed > 0 {
		fmt.Printf("\n%d metric(s) beyond their bound. One pair of runs is not a verdict: see README.md, \"Claiming a change\".\n", regressed)
		return 1
	}
	return 0
}
