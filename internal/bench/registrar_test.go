package bench

import (
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
}
