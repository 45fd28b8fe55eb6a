package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRegistrarCapacityTable runs the sim side of the registrar study
// at two shard counts and checks the study's core promise: the virtual
// -time columns are identical across shard counts (shard placement is
// not allowed to change behavior), while the wall-clock store column
// reports a real rate.
func TestRegistrarCapacityTable(t *testing.T) {
	rc := RegistrarCapacityTable(RegistrarOptions{
		ShardCounts:   []int{1, 4},
		StoreDuration: 50 * time.Millisecond,
	})
	if len(rc.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rc.Points))
	}
	a, b := rc.Points[0], rc.Points[1]
	if a.SimPerSec <= 0 || a.DrainTime <= 0 || a.Peak503 <= 0 {
		t.Fatalf("sim columns empty: %+v", a)
	}
	if a.SimPerSec != b.SimPerSec || a.DrainTime != b.DrainTime || a.Peak503 != b.Peak503 {
		t.Fatalf("sim columns moved with shard count: %+v vs %+v", a, b)
	}
	if a.StorePerSec <= 0 || b.StorePerSec <= 0 {
		t.Fatalf("store column empty: %v / %v", a.StorePerSec, b.StorePerSec)
	}

	var sb strings.Builder
	WriteRegistrarCapacity(&sb, rc)
	out := sb.String()
	for _, want := range []string{"Registrar capacity", "sim reg/s", "drain(s)", "store ops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wire reg/s") {
		t.Errorf("wire column rendered without the wire pass:\n%s", out)
	}
}

// TestWireRegisterRateClosesWhatItOpens: the wire pass starts a
// listener, a leg pool and a socket with its read loop per phone for
// every row of the table; when it returns they are gone, so a long
// study does not run out of descriptors.
func TestWireRegisterRateClosesWhatItOpens(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	before := runtime.NumGoroutine()
	rate, err := wireRegisterRate(4, 8, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Errorf("no REGISTER completed: %v/s", rate)
	}
	// Close waits for every read loop; a timer callback that was already
	// running when its endpoint closed (the reaper sweeps every 100 ms)
	// may take a moment more to return.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the wire pass, %d after it returned", before, after)
	}
}
