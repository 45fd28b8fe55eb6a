//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// setDeathSignal has the kernel kill the child if the benchmark dies
// without reaping it (even by SIGKILL), the one exit path no handler
// of ours can cover.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procCPU reads a process's cumulative user and system CPU time from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func procCPU(pid int) (cpuTimes, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStat(string(data))
}

func parseProcStat(s string) (cpuTimes, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("proc stat: no command name in %q", s)
	}
	f := strings.Fields(s[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("proc stat: short line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: bad utime/stime in %q", s)
	}
	return cpuTimes{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}, nil
}

// procStatus reads VmRSS and VmHWM from /proc/<pid>/status, and the
// voluntary context switches of every thread from
// /proc/<pid>/task/*/status (the process-level file counts the main
// thread only).
func procStatus(pid int) (memStat, error) {
	fields, err := statusFields(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return memStat{}, err
	}
	m := memStat{rssKB: fields["VmRSS"], hwmKB: fields["VmHWM"]}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return m, err
	}
	for _, t := range tasks {
		// A thread may exit between the listing and the read.
		if f, err := statusFields(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name())); err == nil {
			m.volCtx += f["voluntary_ctxt_switches"]
		}
	}
	return m, nil
}

// statusFields parses the "Key:\tvalue [unit]" lines of a status file,
// keeping the numeric ones.
func statusFields(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				out[key] = v
			}
		}
	}
	return out, nil
}

// resetPeakRSS restarts this process's VmHWM from its current VmRSS
// (writing 5 to clear_refs, Linux 4.0 on). Best effort: where it is
// refused the peak simply covers the whole process life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // see above: a refusal only widens the figure
}

// selfCPU is the benchmark process's own cumulative CPU time.
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// kernelRelease and cpuModel feed the host fingerprint.
func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
