// Package adminhttp implements the small HTTP admin surface shared by the
// daemons: adding and removing fan-out destinations on a running node
// (sourceagent's /caches/*, cachesyncd's /children/*). Both daemons build
// their handlers here so the dial/redial semantics of a destination
// added over HTTP cannot drift from one added with a boot flag — the
// handlers route through runtime.DialDestinations exactly like the flags
// do.
package adminhttp

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"bestsync/internal/runtime"
)

// RegisterPprof mounts the standard net/http/pprof handlers under
// /debug/pprof/ on mux. The daemons call this behind their -pprof flag so
// CPU and heap profiles of a live node are one curl away without the
// blanket side effects of importing net/http/pprof into the default mux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// AddHandler returns a POST handler that dials ?addr=host:port (optional
// &weight=w, a positive Section 7 share weight) and hands the resulting
// destination to add. An address that is down right now is still added —
// it starts on a dead stub connection and the session's redial loop
// connects when the peer appears, the same deferred-dial contract the boot
// flags have.
func AddHandler(add func(runtime.Destination) error, sourceID string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed (POST)", http.StatusMethodNotAllowed)
			return
		}
		addr := r.FormValue("addr")
		if addr == "" {
			http.Error(w, "missing addr=host:port", http.StatusBadRequest)
			return
		}
		weight := 0.0
		if ws := r.FormValue("weight"); ws != "" {
			var err error
			weight, err = strconv.ParseFloat(ws, 64)
			if err != nil || weight <= 0 {
				http.Error(w, "weight must be a positive number", http.StatusBadRequest)
				return
			}
		}
		dests, deferred := runtime.DialDestinations([]string{addr}, []float64{weight}, sourceID)
		if err := add(dests[0]); err != nil {
			dests[0].Conn.Close()
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if len(deferred) > 0 {
			fmt.Fprintf(w, "added %s (unreachable now, session will keep redialing)\n", addr)
			return
		}
		fmt.Fprintf(w, "added %s\n", addr)
	}
}

// RemoveHandler returns a POST handler that removes the destination whose
// label is ?addr=host:port (destinations added by flag or by AddHandler
// are labeled with their dial address).
func RemoveHandler(remove func(addr string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed (POST)", http.StatusMethodNotAllowed)
			return
		}
		addr := r.FormValue("addr")
		if addr == "" {
			http.Error(w, "missing addr=host:port", http.StatusBadRequest)
			return
		}
		if err := remove(addr); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "removed %s\n", addr)
	}
}
