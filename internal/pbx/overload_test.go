package pbx

import "testing"

// TestAdmissionOrder checks the admission row: each check on its own,
// the order they run in (quality floor, pool, CPU — the first rejection
// wins and supplies the Retry-After hint), the hint of every reason,
// and the label the row reports.
func TestAdmissionOrder(t *testing.T) {
	const good = 4.2 // a predicted MOS above every floor below
	cases := []struct {
		name  string
		row   Admission
		max   int
		st    admissionState
		want  shedReason
		retry int
	}{
		// The channel cap composed with the CPU threshold: the call must
		// clear both bounds.
		{"both clear", Admission{CPUPercent: 50}, 10,
			admissionState{Channels: 5, ProjectedCPU: 30}, admitted, 0},
		{"channel bound", Admission{CPUPercent: 50}, 10,
			admissionState{Channels: 10, ProjectedCPU: 30}, shedPool, 0},
		{"cpu bound", Admission{CPUPercent: 50}, 10,
			admissionState{Channels: 5, ProjectedCPU: 60}, shedCPU, 0},
		{"both bound: pool first", Admission{CPUPercent: 50}, 10,
			admissionState{Channels: 10, ProjectedCPU: 60}, shedPool, 0},
		{"cpu alone, no pool", Admission{CPUPercent: 50}, 0,
			admissionState{Channels: 1000, ProjectedCPU: 60}, shedCPU, 0},

		// The zero row is the hard cap; with no pool it admits anything.
		{"zero row, no pool", Admission{}, 0,
			admissionState{Channels: 1000, ProjectedCPU: 100}, admitted, 0},
		{"zero row under the cap", Admission{}, 10,
			admissionState{Channels: 9, OccupancyEWMA: 50}, admitted, 0},

		// The occupancy controller sheds below the pool with a graded hint.
		{"occupancy sheds early", Admission{ShedAt: 0.5}, 10,
			admissionState{Channels: 6}, shedPool, retryAfterMin},
		{"occupancy below the shed point", Admission{ShedAt: 0.5}, 10,
			admissionState{Channels: 4, OccupancyEWMA: 4.9}, admitted, 0},
		{"occupancy damped by the EWMA", Admission{ShedAt: 0.5}, 10,
			admissionState{Channels: 0, OccupancyEWMA: 5}, shedPool, retryAfterMin},
		{"occupancy half errors", Admission{ShedAt: 0.5}, 10,
			admissionState{Channels: 6, AttemptsRate: 3, ErrorsRate: 3}, shedPool, 5},
		{"occupancy all errors", Admission{ShedAt: 0.5}, 10,
			admissionState{Channels: 6, ErrorsRate: 3}, shedPool, retryAfterMax},
		{"occupancy shed point floored at one call", Admission{ShedAt: 0.01}, 10,
			admissionState{Channels: 1}, shedPool, retryAfterMin},
		{"occupancy never past the pool", Admission{ShedAt: 2}, 10,
			admissionState{Channels: 10}, shedPool, retryAfterMin},
		{"occupancy without a pool", Admission{ShedAt: 0.5}, 0,
			admissionState{Channels: 1000}, admitted, 0},

		// The quality floor runs first.
		{"floor clear", Admission{MOSFloor: 3.5}, 10,
			admissionState{Channels: 5, PredictedMOS: good}, admitted, 0},
		{"floor sheds", Admission{MOSFloor: 3.5}, 10,
			admissionState{Channels: 5, PredictedMOS: 3.0}, shedFloor, floorRetryAfter},
		{"floor before pool", Admission{MOSFloor: 3.5}, 10,
			admissionState{Channels: 10, PredictedMOS: 3.0}, shedFloor, floorRetryAfter},
		{"floor clear, pool bound", Admission{MOSFloor: 3.5}, 10,
			admissionState{Channels: 10, PredictedMOS: good}, shedPool, 0},
		{"floor before cpu", Admission{MOSFloor: 3.5, CPUPercent: 50}, 10,
			admissionState{Channels: 5, ProjectedCPU: 60, PredictedMOS: 3.0}, shedFloor, floorRetryAfter},
	}
	for _, tc := range cases {
		reason, retry := tc.row.decide(tc.max, tc.st)
		if reason != tc.want || retry != tc.retry {
			t.Errorf("%s: decide = (%d, %d), want (%d, %d)", tc.name, reason, retry, tc.want, tc.retry)
		}
	}

	labels := []struct {
		row  Admission
		max  int
		want string
	}{
		{Admission{}, 10, "channel-cap"},
		{Admission{}, 0, "channel-cap"},
		{Admission{CPUPercent: 50}, 10, "channel-cap+cpu-threshold"},
		{Admission{CPUPercent: 50}, 0, "cpu-threshold"},
		{Admission{ShedAt: 0.7}, 10, "occupancy"},
		{Admission{MOSFloor: 3.5}, 10, "quality-floor"},
		{Admission{MOSFloor: 3.5, ShedAt: 0.7, CPUPercent: 50}, 10, "quality-floor"},
	}
	for _, l := range labels {
		if got := l.row.name(l.max); got != l.want {
			t.Errorf("%+v over %d channels: name = %q, want %q", l.row, l.max, got, l.want)
		}
	}
}
