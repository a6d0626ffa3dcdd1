package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/tensor"
)

// populate runs a tiny simulated contraction against reg so every endpoint
// has something real to serve: counters/histograms from the simulator,
// decision records, spans, and flight-recorder contents.
func populate(t *testing.T, reg *obs.Registry) {
	t.Helper()
	reg.SetFlightRecorder(obs.NewFlightRecorder())
	c, err := gpusim.NewCluster(gpusim.MI100(2))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.SetObserver(reg)
	mk := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 64, Batch: 1}
	}
	a, b, out := mk(1), mk(2), mk(3)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatalf("ExecContraction: %v", err)
	}
	c.FlushObserver()
	reg.RecordDecision(&obs.DecisionRecord{Stage: 0, Pair: 0, Out: 3, Device: 0, Policy: "test"})
	sp := reg.StartSpan("run", nil)
	reg.StartSpan("stage", sp).End()
	sp.End()
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// TestServerEndpoints is the -serve smoke test: every endpoint answers 200
// with a well-formed payload. /metrics must pass the same exposition-format
// checker as the file exporter, and /trace must parse as a Chrome trace
// JSON array.
func TestServerEndpoints(t *testing.T) {
	reg := obs.New()
	populate(t, reg)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	code, body, _ := get(t, srv, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body, ctype := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Errorf("/metrics Content-Type = %q, want %q", ctype, want)
	}
	if err := obs.CheckExposition([]byte(body)); err != nil {
		t.Errorf("/metrics output fails exposition check: %v", err)
	}
	if !strings.Contains(body, `micco_sim_events_total{kind="kernel"} 1`) {
		t.Errorf("/metrics missing kernel counter:\n%s", body)
	}

	code, body, _ = get(t, srv, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not a Snapshot: %v", err)
	}
	if snap.Counters[`micco_sim_events_total{kind="kernel"}`] != 1 {
		t.Errorf("/metrics.json kernel counter = %v, want 1", snap.Counters[`micco_sim_events_total{kind="kernel"}`])
	}
	if len(snap.Spans) != 2 {
		t.Errorf("/metrics.json spans = %d, want 2", len(snap.Spans))
	}

	code, body, _ = get(t, srv, "/decisions")
	if code != http.StatusOK {
		t.Fatalf("/decisions = %d", code)
	}
	recs, err := obs.ReadDecisionsNDJSON(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/decisions not parseable NDJSON: %v", err)
	}
	if len(recs) != 1 || recs[0].Policy != "test" {
		t.Errorf("/decisions = %+v, want 1 record with policy test", recs)
	}

	code, body, ctype = get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	if ctype != "application/json" {
		t.Errorf("/trace Content-Type = %q", ctype)
	}
	var traceEvents []map[string]any
	if err := json.Unmarshal([]byte(body), &traceEvents); err != nil {
		t.Fatalf("/trace is not a Chrome trace JSON array: %v", err)
	}
	// Two operand fetches, the kernel, and the decision instant.
	if len(traceEvents) != 4 {
		t.Fatalf("/trace has %d events, want 4:\n%s", len(traceEvents), body)
	}
	for _, ev := range traceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("/trace event missing %q: %v", field, ev)
			}
		}
	}

	code, body, _ = get(t, srv, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	var fsnap obs.FlightSnapshot
	if err := json.Unmarshal([]byte(body), &fsnap); err != nil {
		t.Fatalf("/flight not a FlightSnapshot: %v", err)
	}
	if fsnap.TotalEvents != 3 || len(fsnap.Events) != 3 {
		t.Errorf("/flight events = %d (total %d), want 3", len(fsnap.Events), fsnap.TotalEvents)
	}
	if code, _, _ = get(t, srv, "/flight?dump=1"); code != http.StatusNotFound {
		t.Errorf("/flight?dump=1 with no dump = %d, want 404", code)
	}
	reg.FlightRecorder().Dump("test-dump")
	code, body, _ = get(t, srv, "/flight?dump=1")
	if code != http.StatusOK {
		t.Fatalf("/flight?dump=1 after dump = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &fsnap); err != nil || fsnap.Reason != "test-dump" {
		t.Errorf("/flight?dump=1 reason = %q err=%v, want test-dump", fsnap.Reason, err)
	}

	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _, _ = get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}
	if code, _, _ = get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// TestServerNilRegistry: every endpoint stays well-formed with no registry
// attached, so a server can be mounted before a run is configured.
func TestServerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/metrics", "/metrics.json", "/decisions", "/trace", "/flight"} {
		code, body, _ := get(t, srv, path)
		if code != http.StatusOK {
			t.Errorf("%s with nil registry = %d, want 200", path, code)
		}
		switch path {
		case "/trace":
			var arr []any
			if err := json.Unmarshal([]byte(body), &arr); err != nil {
				t.Errorf("%s: %v", path, err)
			}
		case "/metrics.json", "/flight":
			var obj map[string]any
			if err := json.Unmarshal([]byte(body), &obj); err != nil {
				t.Errorf("%s: %v", path, err)
			}
		}
	}
}

// TestServeLifecycle exercises the real listener path used by
// miccorun -serve: bind an ephemeral port, hit /healthz over TCP, shut
// down gracefully.
func TestServeLifecycle(t *testing.T) {
	s, err := Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	resp, err := http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Shutdown: %v", err)
	}
}
