package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"toposhot/internal/metrics"
	"toposhot/internal/trace"
)

func testDash() (*Dash, *Logger) {
	lg := New(Options{Level: LevelDebug})
	lg.SetClock(func() float64 { return 1.0 })
	lg.Info("campaign-started", Int("nodes", 30))
	led := sampleLedger()
	reg := metrics.NewRegistry()
	reg.Counter("obs.test.counter").Add(3)
	tr := trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true})
	sp := tr.StartSpan("phase")
	sp.End()
	return &Dash{Logger: lg, Ledger: led, Metrics: reg, Tracer: tr}, lg
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestDashEndpointsServe(t *testing.T) {
	d, _ := testDash()
	h := d.Handler()
	for url, want := range map[string]string{
		"/dashboard":                   "campaign observatory",
		"/":                            "campaign observatory",
		"/events?format=jsonl":         `"kind":"header"`,
		"/log":                         `"msg":"campaign-started"`,
		"/log?format=text":             "msg=campaign-started",
		"/ledger":                      `"totals"`,
		"/ledger?format=jsonl":         `"kind":"pair"`,
		"/metrics":                     "obs.test.counter",
		"/metrics?format=prom":         "toposhot_obs_test_counter",
		"/trace/snapshot":              "traceEvents",
		"/trace/snapshot?format=jsonl": `"kind":"header"`,
		"/progress":                    `"phases"`,
	} {
		rec := get(t, h, url)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", url, rec.Code)
			continue
		}
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: body missing %q:\n%s", url, want, rec.Body.String())
		}
	}
	if rec := get(t, d.Handler(), "/no-such-page"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", rec.Code)
	}
}

func TestDashNilSurfaces(t *testing.T) {
	d := &Dash{} // every surface nil: endpoints serve empty docs, not 404s
	h := d.Handler()
	for _, url := range []string{
		"/events?format=jsonl", "/log", "/ledger", "/metrics", "/trace/snapshot", "/progress",
	} {
		if rec := get(t, h, url); rec.Code != http.StatusOK {
			t.Errorf("%s with nil surfaces: status %d", url, rec.Code)
		}
	}
}

func TestDashLedgerJSONShape(t *testing.T) {
	d, _ := testDash()
	rec := get(t, d.Handler(), "/ledger")
	var body struct {
		Totals CostTotals  `json:"totals"`
		Ether  float64     `json:"fee_ether"`
		Phases []PhaseCost `json:"phases"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Totals != d.Ledger.Totals() {
		t.Fatalf("totals = %+v, want %+v", body.Totals, d.Ledger.Totals())
	}
	if len(body.Phases) != 2 {
		t.Fatalf("phases = %+v", body.Phases)
	}
	if body.Ether != d.Ledger.Totals().FeeEther() {
		t.Fatalf("fee_ether = %g", body.Ether)
	}
}

func TestDashEventsSSEReplaysSnapshot(t *testing.T) {
	d, lg := testDash()
	lg.Info("second-event", trace.Bool("ok", true))
	// A pre-cancelled context makes the SSE handler replay the buffered
	// snapshot and return at the first live-stream select.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/events", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(body, "data: ") ||
		!strings.Contains(body, `"msg":"campaign-started"`) ||
		!strings.Contains(body, `"msg":"second-event"`) {
		t.Fatalf("SSE replay missing events:\n%s", body)
	}
}
