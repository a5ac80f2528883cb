package metrics

import (
	"fmt"
	"net"
	"net/http"
)

// HTTP exposition, used by regionbench and regionserve -metrics-addr:
// Handler serves a fresh registry snapshot in the Prometheus text format,
// HeapHandler serves heap profiles as JSON, and Serve mounts them on a
// listener. Both handlers take their data source as a callback so the
// caller controls capture timing and locking; a profile provider that
// cannot produce reports yet (run not started) returns an empty slice.

// Serve listens on addr and serves r at GET /metrics and, when heap is not
// nil, heap's profiles at GET /heap, from a goroutine of its own until the
// returned listener is closed. It returns once the listener is bound, so
// an address that cannot be bound is an error before anything runs, and
// the listener's Addr is the bound address: with port 0, the port the
// system chose.
func Serve(addr string, r *Registry, heap func() ([]*HeapReport, error)) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	if heap != nil {
		mux.Handle("/heap", HeapHandler(heap))
	}
	// http.Serve returns only once the listener is closed, which is no
	// error to report.
	go func() { _ = http.Serve(ln, mux) }()
	return ln, nil
}

// Handler returns an http.Handler serving r in the Prometheus text
// exposition format — mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
	})
}

// HeapHandler returns an http.Handler serving heap profiles as a JSON array
// — mount it at /heap. provider is called once per request.
func HeapHandler(provider func() ([]*HeapReport, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reports, err := provider()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if reports == nil {
			reports = []*HeapReport{}
		}
		_, _ = w.Write([]byte("[\n"))
		for i, r := range reports {
			if i > 0 {
				_, _ = w.Write([]byte(",\n"))
			}
			_ = r.WriteJSON(w)
		}
		_, _ = w.Write([]byte("]\n"))
	})
}
