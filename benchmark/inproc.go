package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/directory"
	"repro/internal/monitor"
	"repro/internal/pbx"
	"repro/internal/sip"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// inprocServer is pbx.Server inside the benchmark process, wired as
// cmd/pbxd/main.go wires it (same listener, relay socket tuning,
// registrar, sampler and SLO evaluator), so that the traced run can
// put its wrapper around the sockets. Its CPU and memory figures are
// the whole process's — generator included — which is why they never
// feed an end-to-end metric.
type inprocServer struct {
	listener *transport.ShardedUDP
	ep       *sip.Endpoint
	reg      *telemetry.Registry
	srv      *pbx.Server
	sampler  *monitor.Sampler
}

// startInproc starts the server; a nil tracer leaves the sockets bare.
func startInproc(users, rtpBase int, tr *tracer) (*inprocServer, error) {
	listener, err := transport.ListenUDPSharded("127.0.0.1:0", 1, transport.UDPConfig{})
	if err != nil {
		return nil, err
	}
	var sipTr transport.Transport = listener
	var sipTraced *tracedTransport
	if tr != nil {
		sipTraced = tr.wrap(listener, false)
		sipTr = sipTraced
	}
	clock := transport.NewRealClock()
	ep := sip.NewEndpoint(sipTr, clock)
	reg := telemetry.NewRegistry()
	ep.UseTelemetry(reg)
	transport.PublishTelemetry(reg, "sip", listener)

	dir := directory.New()
	dir.Provision("u", 0, users)
	for _, u := range []string{"uac", "uas"} {
		if err := dir.AddUser(directory.User{Username: u, Password: "pw-" + u}); err != nil {
			listener.Close()
			return nil, err
		}
	}

	relayCfg := transport.UDPConfig{BatchSize: 8, BufferSize: transport.MaxDatagram}
	listen := func(port int) (*transport.UDPTransport, error) {
		return transport.ListenUDPConfig(fmt.Sprintf("127.0.0.1:%d", port), relayCfg)
	}
	factory := func(port int) (transport.Transport, error) { return listen(port) }
	if tr != nil {
		// newRelay asks for a call's two legs one after the other from
		// the SIP handler, so products pair up in order: each leg is
		// sent on from its peer's read loop.
		var first *tracedTransport
		factory = func(port int) (transport.Transport, error) {
			var w *tracedTransport
			var err error
			tr.timed(spanListen, sipTraced, func() {
				var t *transport.UDPTransport
				if t, err = listen(port); err == nil {
					w = tr.wrap(t, true)
				}
			})
			if err != nil {
				first = nil
				return nil, err
			}
			w.listener = sipTraced
			if first == nil {
				first = w
			} else {
				w.sender, first.sender = first, w
				first = nil
			}
			return w, nil
		}
	}

	srv := pbx.New(ep, dir, factory, pbx.Config{
		RelayRTP:          true,
		RemoteMediaClocks: true,
		RTPPortBase:       rtpBase,
		Seed:              uint64(time.Now().UnixNano()),
		Telemetry:         reg,
		Instance:          "pbxd",
		Registrar:         pbx.RegistrarConfig{Enabled: true},
	})
	sampler := monitor.NewSampler(reg, clock)
	slo := monitor.NewSLO(reg, monitor.DefaultSLORules())
	sampler.SetObserver(slo.Observe)
	sampler.Start()
	return &inprocServer{listener: listener, ep: ep, reg: reg, srv: srv, sampler: sampler}, nil
}

func (s *inprocServer) sipAddr() string { return s.listener.LocalAddr() }

func (s *inprocServer) scrape() (promSamples, error) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return telemetry.ParsePrometheus(&buf)
}

func (s *inprocServer) usage() (cpuTimes, error) { return selfCPU(), nil }

func (s *inprocServer) memory() (memStat, error) {
	m, err := procStatus(os.Getpid())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapInuseMB = float64(ms.HeapInuse) / (1 << 20)
	m.numGC = float64(ms.NumGC)
	return m, err
}

func (s *inprocServer) stop() error {
	s.srv.Close()
	s.sampler.Stop()
	return s.ep.Close()
}
