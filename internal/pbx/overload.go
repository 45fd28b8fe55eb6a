package pbx

// Overload control: one admission row deciding, per INVITE, whether the
// PBX takes the call or sheds it with 503 + Retry-After. The SIP
// overload-control literature (Hong et al., "A Comparative Study of SIP
// Overload Control Algorithms") shows that a server that only rejects
// at its hard capacity limit collapses under sustained overload: every
// rejected INVITE still costs CPU, retransmissions amplify the offered
// load, and the calls that are admitted run on a saturated host with
// degraded media. Shedding *early* — below the capacity knee — and
// telling clients how long to back off keeps the host in the flat part
// of its load curve and preserves goodput.

// Admission is the INVITE admission row: a handful of thresholds, each
// measured against Config.MaxChannels and the server's load, checked in
// a fixed order — quality floor, channel pool, projected CPU — with the
// first failing check shedding the call. The zero value is the classical
// Asterisk behaviour and the paper's operating model: admit until the
// channel pool is exhausted, then 503 (MaxChannels 0 admits every call).
type Admission struct {
	// MOSFloor, when > 0, sheds a call whose predicted E-model MOS falls
	// below it (e.g. 3.6, the bottom of G.107 Annex B's "medium" band):
	// admitting it would both deliver a call the user scores as poor and
	// push loss onto every established call. A G.729 caller, whose codec
	// has a lower MOS ceiling and a tandem penalty when transcoded, hits
	// the floor earlier than a G.711 caller at the same host load.
	MOSFloor float64
	// ShedAt, when > 0, turns the pool check into the occupancy
	// controller: shed at ShedAt·MaxChannels channels (0 < ShedAt <= 1) —
	// before the pool, and with it the CPU knee, is reached — with a
	// Retry-After graded by how hard the server is being hit, so clients
	// spread their retries instead of hammering a saturated host in
	// lockstep.
	ShedAt float64
	// CPUPercent, when > 0, sheds a call whose admission would push the
	// modelled CPU utilization past it. With the channel pool it forms
	// the paper's host: a 165-channel plateau and a CPU budget that
	// transcoding calls drain faster than passthrough calls.
	CPUPercent float64
}

// shedReason is why an INVITE was refused; admitted means it was not.
type shedReason uint8

const (
	admitted  shedReason = iota
	shedDrain            // administrative drain
	shedBlock            // the degradation ladder's Block rung
	shedFloor            // Admission.MOSFloor
	shedPool             // the channel pool or the occupancy controller
	shedCPU              // Admission.CPUPercent
)

// Retry-After hints (seconds) on the 503s the server sends: a quality
// shed, a draining server, and the occupancy controller's graded band.
const (
	floorRetryAfter = 4
	drainRetryAfter = 10
	retryAfterMin   = 1
	retryAfterMax   = 8
)

// admissionState is the load snapshot the row decides on, read under
// the server lock at INVITE arrival.
type admissionState struct {
	// Channels is the number of calls currently holding a channel.
	Channels int
	// OccupancyEWMA is the smoothed channel occupancy (EWMA of Channels
	// over the CPU model's 1 s samples).
	OccupancyEWMA float64
	// AttemptsRate and ErrorsRate are the smoothed per-second INVITE
	// arrival and error rates (EWMA over the CPU model's 1 s samples).
	AttemptsRate float64
	ErrorsRate   float64
	// ProjectedCPU is the modelled utilization with one more call
	// admitted, from the raw per-second attempt/error windows; 0 on a
	// server with no CPU model.
	ProjectedCPU float64
	// PredictedMOS is the E-model score this call is predicted to get if
	// admitted: the offered codec's profile at a nominal mouth-to-ear
	// delay and the RTP loss the CPU model would impose at ProjectedCPU.
	PredictedMOS float64
}

// decide runs the row's checks in order and returns the first failing
// one with its Retry-After hint in seconds (0 omits the header), or
// admitted. It is pure: no locking, no clock, no randomness.
func (a Admission) decide(maxChannels int, st admissionState) (shedReason, int) {
	if st.PredictedMOS < a.MOSFloor {
		return shedFloor, floorRetryAfter
	}
	if maxChannels > 0 {
		occ, limit := float64(st.Channels), maxChannels
		if a.ShedAt > 0 {
			// Decide on the dampened occupancy: the worse of the
			// instantaneous channel count and its EWMA. Rising load is
			// capped immediately (Channels dominates); falling load
			// re-opens only after the EWMA decays below the limit, so
			// decisions don't flap with every teardown at the boundary.
			// Rejection stays monotone in both inputs — see
			// TestOccupancyMonotoneInLoad.
			occ = max(occ, st.OccupancyEWMA)
			limit = max(1, int(float64(maxChannels)*min(a.ShedAt, 1)))
		}
		if occ >= float64(limit) {
			if a.ShedAt > 0 {
				return shedPool, gradedRetryAfter(st)
			}
			return shedPool, 0
		}
	}
	if a.CPUPercent > 0 && st.ProjectedCPU > a.CPUPercent {
		return shedCPU, 0
	}
	return admitted, 0
}

// gradedRetryAfter maps rejection pressure — the fraction of recent
// work that was errors (mostly rejected INVITEs) — into the
// [retryAfterMin, retryAfterMax] band. A lightly loaded shed returns
// the minimum; a server rejecting most of its arrivals the maximum.
func gradedRetryAfter(st admissionState) int {
	severity := 0.0
	if total := st.AttemptsRate + st.ErrorsRate; total > 0 {
		severity = min(st.ErrorsRate/total, 1)
	}
	return retryAfterMin + int(severity*(retryAfterMax-retryAfterMin)+0.5)
}

// name labels the row for pbx_admission_total{policy} and the wide call
// event: "quality-floor" when the floor is set, else the pool check
// ("channel-cap" or "occupancy") and the CPU check ("cpu-threshold")
// joined by "+", the pool left out when it admits everything.
func (a Admission) name(maxChannels int) string {
	if a.MOSFloor > 0 {
		return "quality-floor"
	}
	pool := "channel-cap"
	if a.ShedAt > 0 {
		pool = "occupancy"
	}
	switch {
	case a.CPUPercent <= 0:
		return pool
	case maxChannels <= 0 && a.ShedAt <= 0:
		return "cpu-threshold"
	}
	return pool + "+cpu-threshold"
}
