package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/pbx"
	"repro/internal/telemetry"
)

// startAdmin serves the observability and control plane over HTTP:
//
//	/metrics      Prometheus text exposition of the telemetry registry
//	/healthz      readiness probe (200 "ok", 503 while draining)
//	/drain        POST: begin graceful drain (503 new calls, finish old)
//	/debug/vars   the registry's JSON snapshot (expvar-style)
//	/debug/calls  records of recently torn-down calls (JSON, CDR.MarshalJSON)
//	/debug/flight the flight recorder: each call's stages and outcome (JSON, oldest first)
//	/debug/pprof  the standard Go profiling handlers
//
// The mux is private — none of this is registered on
// http.DefaultServeMux, so importing net/http/pprof side-effects
// elsewhere cannot widen the surface. Returns the bound address
// (useful with ":0").
func startAdmin(addr string, reg *telemetry.Registry, healthy func() bool, drain func(),
	calls func() []pbx.CDR, flight func() []pbx.FlightEvent) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if drain == nil {
			http.Error(w, "drain not supported", http.StatusNotImplemented)
			return
		}
		drain()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "draining")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthy != nil && !healthy() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		out, err := reg.Snapshot().MarshalIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(out)
	})
	mux.HandleFunc("/debug/calls", func(w http.ResponseWriter, r *http.Request) {
		ev := []pbx.CDR{}
		if calls != nil {
			if v := calls(); v != nil {
				ev = v
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(ev)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		ev := []pbx.FlightEvent{}
		if flight != nil {
			if v := flight(); v != nil {
				ev = v
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(ev)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}
