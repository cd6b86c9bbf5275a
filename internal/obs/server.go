package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"segscale/internal/modelhealth"
	"segscale/internal/telemetry"
	"segscale/internal/transport"
)

// ServerOptions configures the observability HTTP server.
type ServerOptions struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port;
	// Start returns the resolved URL).
	Addr string
	// Telemetry feeds /metrics (live Prometheus rendering) and
	// /debug/flight (when its flight recorder is enabled). May be nil.
	Telemetry *telemetry.Collector
	// Alerts feeds /debug/alerts. May be nil.
	Alerts *AlertLog
	// Health feeds /debug/health: a live snapshot of the training-
	// health plane (per-layer statistics, sentinel alerts). May be nil.
	Health *modelhealth.Plane
}

// Server is the live observability endpoint of a run:
//
//	/metrics       Prometheus text, rendered live from the collector
//	/healthz       process liveness (always 200 while serving) + world detail
//	/readyz        503 until a healthy world is tracked, 503 again while a world drains after a rank failure
//	/debug/flight  Chrome-trace dump of the flight recorder's window
//	/debug/alerts  the run's alert log as JSON
//	/debug/health  the training-health plane's live snapshot
//	/debug/pprof/  the standard pprof handlers
//
// World liveness comes from transport incarnation state: the trainer's
// OnWorld hook calls TrackWorld once per incarnation, and /readyz
// reports the *current* incarnation's transport.World.Failure().
type Server struct {
	opts ServerOptions
	mux  *http.ServeMux
	srv  *http.Server

	mu    sync.Mutex
	ln    net.Listener
	world *transport.World
	inc   int
}

// NewServer builds a server (not yet listening; Start does that).
func NewServer(opts ServerOptions) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux.HandleFunc("/debug/alerts", s.handleAlerts)
	s.mux.HandleFunc("/debug/health", s.handleHealth)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the route mux — what httptest-based scrape tests
// mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on the configured address and serves in a background
// goroutine, returning the resolved base URL (useful with ":0").
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", s.opts.Addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	srv := s.srv
	s.mu.Unlock()
	// Serve returns http.ErrServerClosed (or a listener error) once
	// Close runs; a background observability plane has no one to hand
	// that to.
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// Close stops the listener. Safe to call without Start.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// TrackWorld points liveness at a new world incarnation. A restarted
// incarnation (inc > 0) supersedes the poisoned world it replaces, so
// readiness recovers the moment the trainer rebuilds.
func (s *Server) TrackWorld(w *transport.World, inc int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.world = w
	s.inc = inc
	s.mu.Unlock()
}

// worldState snapshots the tracked incarnation (nil before the first).
func (s *Server) worldState() (w *transport.World, inc int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.world, s.inc
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "segscale observability\n\n/metrics\n/healthz\n/readyz\n/debug/flight\n/debug/alerts\n/debug/health\n/debug/pprof/\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	col := s.opts.Telemetry
	if col == nil {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := col.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is log into the body.
		fmt.Fprintf(w, "# render error: %v\n", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	world, inc := s.worldState()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ok\n")
	if world == nil {
		fmt.Fprint(w, "world: none tracked\n")
		return
	}
	fmt.Fprintf(w, "world: size=%d incarnation=%d\n", world.Size(), inc)
	if failed := world.FailedRanks(); len(failed) > 0 {
		sort.Ints(failed)
		fmt.Fprintf(w, "failed ranks: %v\n", failed)
	}
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	world, inc := s.worldState()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if world == nil {
		http.Error(w, "not ready: no world tracked yet", http.StatusServiceUnavailable)
		return
	}
	if err := world.Failure(); err != nil {
		http.Error(w, fmt.Sprintf("not ready (incarnation %d): %v", inc, err),
			http.StatusServiceUnavailable)
		return
	}
	fmt.Fprint(w, "ready\n")
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	f := s.opts.Telemetry.Flight()
	if f == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := f.WriteChromeTrace(w); err != nil {
		fmt.Fprintf(w, "\n# render error: %v\n", err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.opts.Health == nil {
		http.Error(w, "health plane disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := s.opts.Health.Snapshot()
	if snap.Alerts == nil {
		snap.Alerts = []modelhealth.Alert{}
	}
	if snap.Layers == nil {
		snap.Layers = []modelhealth.LayerSummary{}
	}
	_ = enc.Encode(snap)
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.opts.Alerts == nil {
		http.Error(w, "alert log disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	alerts := s.opts.Alerts.Alerts()
	if alerts == nil {
		alerts = []Alert{}
	}
	_ = enc.Encode(struct {
		Alerts []Alert `json:"alerts"`
	}{alerts})
}
