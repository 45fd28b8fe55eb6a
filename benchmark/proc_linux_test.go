//go:build linux

package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// The command name may contain spaces and parentheses.
	line := "1234 (pbxd (x) y) S 1 1234 1234 0 -1 4194560 500 0 0 0 237 128 0 0 20 0 5 0 1000 100000 200 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.user != 2370*time.Millisecond || got.sys != 1280*time.Millisecond {
		t.Errorf("user %v sys %v, want 2.37s 1.28s", got.user, got.sys)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	cpu, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu.total() < 0 {
		t.Errorf("negative cpu %v", cpu)
	}
	m, err := procStatus(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if m.rssKB <= 0 || m.hwmKB < m.rssKB {
		t.Errorf("rss %v KB, hwm %v KB", m.rssKB, m.hwmKB)
	}
}
