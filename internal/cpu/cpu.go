// Package cpu models the PBX host's processor load and the overload
// behaviour the paper observes: "The CPU demand grew proportionally to
// the presented workload, except for the case of A = 240, which rose a
// little more due to the number of packet errors. Nevertheless, the
// CPU usage was always below 60%" (Sec. IV).
//
// The paper's capacity (~165 concurrent calls) is a property of its
// 2.67 GHz Xeon; since that hardware is not reproducible, the model is
// calibrated so that the *shape* of Table I's CPU column holds: load
// grows with active calls (who carry the RTP, "responsible for the
// great part of the CPU demands") plus a smaller term per call attempt
// (SIP processing), with a packet-error bump once utilization crosses
// the overload knee.
package cpu

// Model converts observed PBX activity into a utilization percentage
// and, above the overload knee, a packet drop probability. The zero
// value is no model: it reads 0 % and never drops. Use DefaultModel or
// fill every field.
type Model struct {
	// BasePercent is the idle daemon overhead.
	BasePercent float64
	// PerCallPercent is the marginal cost of one active call's RTP
	// relay (both directions, 100 pkt/s through the server).
	PerCallPercent float64
	// PerAttemptPercent is the cost of one call setup per second
	// (SIP parsing, routing, channel allocation).
	PerAttemptPercent float64
	// PerErrorPercent is the extra cost of one error message per
	// second (rejections re-enter the SIP machinery).
	PerErrorPercent float64
	// OverloadKnee is the utilization above which the relay starts
	// dropping RTP packets.
	OverloadKnee float64
	// MaxDropProbability is the RTP drop probability as utilization
	// approaches 100%.
	MaxDropProbability float64
}

// DefaultModel is calibrated against Table I: it puts the six
// workloads near the reported bands (≈17/26/36/44/47/52–57%) while
// keeping utilization under 60% and introducing packet errors only at
// the A ≥ 160 overload region.
func DefaultModel() Model {
	return Model{
		BasePercent:        7.0,
		PerCallPercent:     0.20,
		PerAttemptPercent:  5.0,
		PerErrorPercent:    2.5,
		OverloadKnee:       45,
		MaxDropProbability: 0.04,
	}
}

// UtilizationWith returns the modelled CPU percentage for the given
// instantaneous activity — concurrently active calls, call attempts per
// second, error responses per second — plus an extra load term in
// percent, the hook for activity the linear per-call model does not
// cover, such as the codec-dependent DSP cost of transcoding bridges.
// The result is clamped to [0, 100]; the zero Model returns 0.
func (m Model) UtilizationWith(activeCalls int, attemptsPerSec, errorsPerSec, extraPercent float64) float64 {
	if m == (Model{}) {
		return 0
	}
	u := m.BasePercent +
		m.PerCallPercent*float64(activeCalls) +
		m.PerAttemptPercent*attemptsPerSec +
		m.PerErrorPercent*errorsPerSec +
		extraPercent
	if u < 0 {
		return 0
	}
	if u > 100 {
		return 100
	}
	return u
}

// DropProbability returns the RTP packet drop probability at the given
// utilization: zero below the knee, rising linearly to
// MaxDropProbability at 100%.
func (m Model) DropProbability(utilization float64) float64 {
	if utilization <= m.OverloadKnee || m.OverloadKnee >= 100 {
		return 0
	}
	frac := (utilization - m.OverloadKnee) / (100 - m.OverloadKnee)
	if frac > 1 {
		frac = 1
	}
	return frac * m.MaxDropProbability
}
