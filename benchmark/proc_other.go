//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"runtime"
)

// The benchmark reads the server's CPU and memory from Linux's /proc;
// elsewhere it builds (so `go build ./...` stays portable) and reports
// that it cannot measure.
var errNoProc = errors.New("benchmark: needs Linux /proc to measure the server process")

func setDeathSignal(*exec.Cmd)        {}
func procCPU(int) (cpuTimes, error)   { return cpuTimes{}, errNoProc }
func procStatus(int) (memStat, error) { return memStat{}, errNoProc }
func resetPeakRSS()                   {}
func selfCPU() cpuTimes               { return cpuTimes{} }
func kernelRelease() string           { return runtime.GOOS }
func cpuModel() string                { return runtime.GOARCH }
