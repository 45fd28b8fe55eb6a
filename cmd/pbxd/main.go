// Command pbxd runs the Asterisk-style PBX on a real UDP socket, so
// the same server code measured in the simulation can be driven with
// cmd/sipload (or any SIP user agent) over loopback or a LAN:
//
//	pbxd -addr 127.0.0.1:5060 -capacity 165 -users 200 -relay
//
// Provisioned users are u0…uN-1 with passwords pw-u0…, plus the
// generator pair uac/uas. Statistics print every 5 s and on SIGINT.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/directory"
	"repro/internal/pbx"
)

// dumpFlight writes the flight-recorder ring as JSON — the crash-path
// twin of /debug/flight. Best-effort: a failed dump must not mask the
// panic that triggered it.
func dumpFlight(path string, events []pbx.FlightEvent) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbxd: flight dump:", err)
		return
	}
	json.NewEncoder(f).Encode(events)
	f.Close()
	fmt.Fprintf(os.Stderr, "pbxd: flight recorder dumped to %s (%d events)\n", path, len(events))
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:5060", "UDP listen address")
		capacity = flag.Int("capacity", pbx.DefaultCapacity, "channel capacity (0 = unlimited)")
		users    = flag.Int("users", 100, "number of provisioned users (u0..uN-1)")
		relay    = flag.Bool("relay", true, "relay RTP through the server")
		rtpBase  = flag.Int("rtp-base", 10000, "first RTP relay port")
		quiet    = flag.Bool("quiet", false, "suppress periodic stats")
		occ      = flag.Float64("occupancy", 0, "shed load at this fraction of capacity with 503+Retry-After (0 = hard cap)")
		degrade  = flag.Bool("degrade", false, "enable the graceful-degradation ladder (codec downgrade, passthrough-only, upstream throttle, block), which degrades on measured call quality")
		admin    = flag.String("admin", "127.0.0.1:9690", "admin HTTP address serving /metrics, /healthz, /debug/vars, /debug/calls, /debug/flight and /debug/pprof (empty = disabled)")
		shards   = flag.Int("shards", 1, "SO_REUSEPORT listener shards on the SIP port (1 = single socket)")
		callLog  = flag.String("call-log", "", "append one JSON call event per teardown to this file (empty = ring buffer only)")
		instance = flag.String("instance", "pbxd", "instance name stamped into call events (backend field)")
		flight   = flag.String("flight-dump", "pbxd-flight.json", "write the flight-recorder ring here on panic (empty = disabled)")

		registrar = flag.Bool("registrar", true, "enable the sharded registrar plane (binding TTL wheel, nonce cache, REGISTER admission lane)")
		dirShards = flag.Int("dir-shards", 0, "location-store shard count, power of two (0 = default 16)")
		regRate   = flag.Int("register-rate", 0, "max REGISTER arrivals per second before shedding with a spread Retry-After (0 = uncapped)")
	)
	flag.Parse()

	var dir *directory.Directory
	if *dirShards > 0 {
		dir = directory.NewSharded(*dirShards)
	} else {
		dir = directory.New()
	}
	dir.Provision("u", 0, *users)
	dir.AddUser(directory.User{Username: "uac", Password: "pw-uac"})
	dir.AddUser(directory.User{Username: "uas", Password: "pw-uas"})

	cfg := pbx.Config{
		MaxChannels: *capacity,
		RelayRTP:    *relay,
		// Real endpoints stamp RTP from their own clocks; transit
		// estimates at the relay are epoch offsets, not delays.
		RemoteMediaClocks: true,
		RTPPortBase:       *rtpBase,
		Seed:              uint64(time.Now().UnixNano()),
		Instance:          *instance,
	}
	if *registrar {
		// The registrar plane runs the binding-expiry wheel on the wall
		// clock (pbx.New arms it from the endpoint clock) and REGISTER's
		// own admission lane — REGISTER is never refused for channel
		// capacity, only by this rate cap.
		cfg.Registrar = pbx.RegistrarConfig{
			Enabled:            true,
			MaxRegistersPerSec: *regRate,
		}
	}
	if *callLog != "" {
		f, err := os.OpenFile(*callLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbxd: call-log:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.CallLog = f
	}
	if *occ > 0 {
		if *occ > 1 {
			fmt.Fprintln(os.Stderr, "pbxd: -occupancy must be in (0,1]")
			os.Exit(1)
		}
		cfg.Admission.ShedAt = *occ
	}
	if *degrade {
		cfg.Degradation = &pbx.DegradationConfig{}
	}
	w, err := pbx.ListenWire(*addr, *shards, dir, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbxd:", err)
		os.Exit(1)
	}
	server, tr := w.Server, w.Listener
	fmt.Printf("pbxd: listening on %s (%d shard(s), batched=%v), capacity %d, %d users, relay=%v, admission=%s, degrade=%v\n",
		tr.LocalAddr(), tr.NumShards(), tr.Batched(),
		*capacity, dir.Users(), *relay, server.AdmissionName(), *degrade)
	if *registrar {
		fmt.Printf("pbxd: registrar on: %d location shards, register rate cap %d/s\n",
			dir.Shards(), *regRate)
	}

	// The flight recorder is most valuable exactly when the process
	// dies: dump the ring before re-panicking so a crashed run leaves
	// its last ~512 call-stage transitions on disk.
	if *flight != "" {
		defer func() {
			if r := recover(); r != nil {
				dumpFlight(*flight, server.TraceEvents())
				panic(r)
			}
		}()
	}

	if *admin != "" {
		// /healthz doubles as the load-balancer readiness signal: it
		// flips to 503 the moment a drain starts, before the last call
		// ends, so orchestrators stop routing while calls finish.
		bound, err := startAdmin(*admin, w.Registry,
			func() bool { return !server.Draining() },
			func() { server.Drain() },
			server.RecentCalls, server.TraceEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbxd: admin:", err)
			os.Exit(1)
		}
		fmt.Printf("pbxd: admin HTTP on http://%s (/metrics /healthz /drain /debug/vars /debug/calls /debug/flight /debug/pprof)\n", bound)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	// cpu= is the share of one core pbxd used since the previous line,
	// measured by getrusage: not the CPU model's figure.
	lastAt, lastCPU := time.Now(), pbx.ProcessCPUSeconds()
	for {
		select {
		case now := <-tick.C:
			if !*quiet {
				cpuNow := pbx.ProcessCPUSeconds()
				share := 100 * (cpuNow - lastCPU) / now.Sub(lastAt).Seconds()
				lastAt, lastCPU = now, cpuNow
				c := server.CountersSnapshot()
				st := tr.Stats()
				fmt.Printf("pbxd: active=%d attempts=%d established=%d blocked=%d relayed=%d cpu=%.1f%% sip_rx=%d(%d batches) sip_tx=%d\n",
					server.ActiveChannels(), c.Attempts, c.Established, c.Blocked, c.RelayedPackets, share,
					st.RxPackets, st.RxBatches, st.TxPackets)
			}
		case <-stop:
			w.Close()
			c := server.CountersSnapshot()
			st := tr.Stats()
			gets, puts := tr.PoolStats()
			fmt.Printf("\npbxd: final counters: %+v\n", c)
			fmt.Printf("pbxd: sip transport: %+v pool gets=%d puts=%d\n", st, gets, puts)
			fmt.Printf("pbxd: relay legs: %+v\n", w.Legs.Stats())
			return
		}
	}
}
