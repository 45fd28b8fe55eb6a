package pbx_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/rig"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// TestWireFamiliesAreSimPlusFive pins the observability contract that
// sim and wire export the same metric families: with one Config, the
// pbx_*, sip_* and rtp_relay_* families of pbxd's wiring are the sim
// rig's plus exactly the five that wire.go adds, and the wire also
// exports its process CPU (an external test: rig imports pbx).
func TestWireFamiliesAreSimPlusFive(t *testing.T) {
	cfg := pbx.Config{
		RelayRTP:    true,
		Registrar:   pbx.RegistrarConfig{Enabled: true},
		Degradation: &pbx.DegradationConfig{},
	}
	families := func(reg *telemetry.Registry) []string {
		var out []string
		for _, f := range reg.Snapshot().Families {
			for _, p := range []string{"pbx_", "sip_", "rtp_relay_"} {
				if strings.HasPrefix(f.Name, p) {
					out = append(out, f.Name)
				}
			}
		}
		return out
	}

	r := rig.NewSim(1, 0, nil, stats.NewRNG(1), netsim.LinkProfile{Delay: time.Millisecond})
	simCfg := cfg
	simCfg.Telemetry = r.Reg
	r.PBX("pbx", directory.New(), simCfg).Close()
	// The SLO evaluator core.Run attaches to a sim run, as ListenWire
	// does to the wire.
	monitor.NewSLO(r.Reg, monitor.DefaultSLORules())
	want := append(families(r.Reg), "rtp_relay_rejected_total",
		"sip_active_transactions", "sip_lingering_bytes", "sip_lingering_transactions", "sip_tx_reaper_runs_total")
	sort.Strings(want)

	w, err := pbx.ListenWire("127.0.0.1:0", 1, directory.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := families(w.Registry); !reflect.DeepEqual(got, want) {
		t.Errorf("wire families:\n  %v\nwant the sim's plus wire.go's four:\n  %v", got, want)
	}
	snap := w.Registry.Snapshot()
	if f := snap.Family("process_cpu_seconds_total"); f == nil || f.Kind != telemetry.KindCounter {
		t.Errorf("process_cpu_seconds_total: %+v, want a counter", f)
	} else if v := snap.Scalar(f.Name); v <= 0 {
		t.Errorf("process_cpu_seconds_total = %v, want the CPU this test process has used", v)
	}
	if r.Reg.Snapshot().Family("process_cpu_seconds_total") != nil {
		t.Error("the sim exports process_cpu_seconds_total; it is the wire's alone")
	}
}
